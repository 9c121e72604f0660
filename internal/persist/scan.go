package persist

import "strconv"

// Scanner reads the canonical subset of JSON the service's clients and its
// own writers emit, in one pass and without reflection: objects whose keys
// are exactly the expected field names, holding plain numbers, true and
// false, ASCII strings without escapes, and arrays of such values. It never
// reports an error of its own. Every method returns ok == false for
// anything outside the subset — an escape, a null, an unknown or
// case-folded key, a number of the wrong kind, any syntax error — and the
// caller then hands the same bytes to encoding/json, which stays the one
// definition of what is accepted and of every error text. On input the
// Scanner does accept, the result equals encoding/json's.
//
// It has two users: the search body and its request (ParseRequest, pinned
// by FuzzParseRequest), and recovery — slot lists (ParseSlotList, pinned by
// FuzzReadSlotList), owned windows (ParseOwnedWindow, pinned by
// FuzzReadOwnedWindow) and the WAL's event and snapshot envelopes, which
// keep nested windows and slot lists as Raw bytes but read a snapshot's
// base in their own pass (pinned by internal/wal's FuzzDecodeEvent and
// FuzzDecodeState).
type Scanner struct {
	buf []byte
	pos int
}

// NewScanner scans b from its first byte.
func NewScanner(b []byte) *Scanner { return &Scanner{buf: b} }

func (s *Scanner) space() {
	for s.pos < len(s.buf) {
		switch s.buf[s.pos] {
		case ' ', '\t', '\r', '\n':
			s.pos++
		default:
			return
		}
	}
}

// one consumes the next byte if it is a or b.
func (s *Scanner) one(a, b byte) bool {
	if s.pos < len(s.buf) && (s.buf[s.pos] == a || s.buf[s.pos] == b) {
		s.pos++
		return true
	}
	return false
}

// eat skips whitespace and consumes the next byte if it is c.
func (s *Scanner) eat(c byte) bool {
	s.space()
	return s.one(c, c)
}

// End reports whether only whitespace remains.
func (s *Scanner) End() bool {
	s.space()
	return s.pos == len(s.buf)
}

// Object scans {"key": value, ...}. For each member it calls field with
// the key, which aliases the input; field scans the value, or returns false
// for a key it does not know. A repeated key is scanned again and the last
// value stands, as in encoding/json.
func (s *Scanner) Object(field func(key []byte) bool) bool {
	if !s.eat('{') {
		return false
	}
	if s.eat('}') {
		return true
	}
	for {
		key, ok := s.raw()
		if !ok || !s.eat(':') || !field(key) {
			return false
		}
		if !s.eat(',') {
			return s.eat('}')
		}
	}
}

// raw scans a string and returns its bytes, which alias the input.
func (s *Scanner) raw() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	for i := s.pos; i < len(s.buf); i++ {
		switch c := s.buf[i]; {
		case c == '"':
			b := s.buf[s.pos:i]
			s.pos = i + 1
			return b, true
		case c < ' ' || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// String scans a string value.
func (s *Scanner) String() (string, bool) {
	b, ok := s.raw()
	return string(b), ok
}

// Strings scans an array of strings.
func (s *Scanner) Strings() ([]string, bool) {
	out := []string{}
	ok := s.Array(func() bool {
		v, ok := s.String()
		out = append(out, v)
		return ok
	})
	return out, ok
}

// Array scans [value, ...], calling elem to scan each value.
func (s *Scanner) Array(elem func() bool) bool {
	if !s.eat('[') {
		return false
	}
	if s.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !s.eat(',') {
			return s.eat(']')
		}
	}
}

// Objects scans an array of objects into a new slice, calling field with
// the element and each of its keys, as Object does.
func Objects[T any](s *Scanner, field func(e *T, key []byte) bool) ([]T, bool) {
	out := []T{}
	ok := s.Array(func() bool {
		var zero T
		out = append(out, zero)
		e := &out[len(out)-1]
		return s.Object(func(key []byte) bool { return field(e, key) })
	})
	return out, ok
}

// maxRawDepth bounds how deeply Raw descends; encoding/json's own bound
// is far deeper, so a value Raw accepts is one encoding/json accepts.
const maxRawDepth = 64

// Raw scans any value of the subset — nested objects and arrays included,
// with any keys — and returns its bytes, which alias the input: what a
// json.RawMessage field would hold.
func (s *Scanner) Raw() ([]byte, bool) {
	s.space()
	from := s.pos
	if !s.skip(0) {
		return nil, false
	}
	return s.buf[from:s.pos], true
}

// skip scans one value at the given nesting depth.
func (s *Scanner) skip(depth int) bool {
	s.space()
	if s.pos == len(s.buf) || depth > maxRawDepth {
		return false
	}
	switch s.buf[s.pos] {
	case '{':
		return s.Object(func([]byte) bool { return s.skip(depth + 1) })
	case '[':
		return s.Array(func() bool { return s.skip(depth + 1) })
	case '"':
		_, ok := s.raw()
		return ok
	case 't', 'f':
		_, ok := s.Bool()
		return ok
	}
	_, _, ok := s.number()
	return ok
}

// Bool scans true or false.
func (s *Scanner) Bool() (v, ok bool) {
	s.space()
	for _, lit := range [...]string{"false", "true"} {
		if len(s.buf)-s.pos >= len(lit) && string(s.buf[s.pos:s.pos+len(lit)]) == lit {
			s.pos += len(lit)
			return lit == "true", true
		}
	}
	return false, false
}

// digits consumes a run of decimal digits and reports whether it was
// non-empty.
func (s *Scanner) digits() bool {
	from := s.pos
	for s.pos < len(s.buf) && '0' <= s.buf[s.pos] && s.buf[s.pos] <= '9' {
		s.pos++
	}
	return s.pos > from
}

// number scans the JSON literal -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
// and reports whether it is an integer: no fraction, no exponent. What
// follows the literal is the enclosing object's to judge.
func (s *Scanner) number() (lit []byte, integer, ok bool) {
	s.space()
	start, integer := s.pos, true
	s.one('-', '-')
	if !s.one('0', '0') && !s.digits() {
		return nil, false, false
	}
	if s.one('.', '.') {
		if integer = false; !s.digits() {
			return nil, false, false
		}
	}
	if s.one('e', 'E') {
		integer = false
		s.one('+', '-')
		if !s.digits() {
			return nil, false, false
		}
	}
	return s.buf[start:s.pos], integer, true
}

// Float scans a number into a float64 the way encoding/json does.
func (s *Scanner) Float() (float64, bool) {
	lit, _, ok := s.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	return f, err == nil
}

// integer scans an integer literal: a number with a fraction or an exponent
// is a type error in encoding/json and outside the subset here.
func (s *Scanner) integer() ([]byte, bool) {
	lit, integer, ok := s.number()
	return lit, ok && integer
}

// Int scans an integer literal into an int.
func (s *Scanner) Int() (int, bool) {
	lit, ok := s.integer()
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(string(lit))
	return n, err == nil
}

// Int64 scans an integer literal into an int64.
func (s *Scanner) Int64() (int64, bool) {
	lit, ok := s.integer()
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(string(lit), 10, 64)
	return n, err == nil
}

// Uint64 scans a non-negative integer literal into a uint64 ("-0" is a
// type error in encoding/json, so any sign is outside the subset).
func (s *Scanner) Uint64() (uint64, bool) {
	lit, ok := s.integer()
	if !ok || lit[0] == '-' {
		return 0, false
	}
	n, err := strconv.ParseUint(string(lit), 10, 64)
	return n, err == nil
}
