package persist

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"slotsel/internal/core"
	"slotsel/internal/nodes"
	"slotsel/internal/slots"
)

// ErrNonFinite reports a document holding a NaN or an infinity, which JSON
// cannot carry.
var ErrNonFinite = errors.New("unsupported value: NaN or infinite number")

// appender is the one JSON writer under every encoder in this package. It
// appends to buf byte for byte what encoding/json renders for the values
// persist writes — objects, arrays of objects, floats, ints and strings —
// either compact, as json.Marshal does, or indented by two spaces, as a
// json.Encoder after SetIndent("", "  ") does. Members and elements are
// separated by what the last byte says: nothing after an opening brace or
// bracket, a comma after anything else.
type appender struct {
	buf    []byte
	depth  int  // objects and arrays open, which an indented line is indented by
	pretty bool // indented by two spaces
	bad    bool // a non-finite float was met
}

const indentSpaces = "                "

// line starts a new line at the current depth.
func (e *appender) line() {
	e.buf = append(e.buf, '\n')
	for n := 2 * e.depth; n > 0; n -= len(indentSpaces) {
		e.buf = append(e.buf, indentSpaces[:min(n, len(indentSpaces))]...)
	}
}

// open starts an object ('{') or an array ('[').
func (e *appender) open(c byte) {
	e.buf = append(e.buf, c)
	e.depth++
}

// close ends an object or array, on a line of its own when indented and
// not empty.
func (e *appender) close(c byte) {
	e.depth--
	if last := e.buf[len(e.buf)-1]; e.pretty && last != '{' && last != '[' {
		e.line()
	}
	e.buf = append(e.buf, c)
}

// elem starts the next member of the open object or element of the open
// array.
func (e *appender) elem() {
	if last := e.buf[len(e.buf)-1]; last != '{' && last != '[' {
		e.buf = append(e.buf, ',')
	}
	if e.pretty {
		e.line()
	}
}

// key starts member k, which needs no escaping.
func (e *appender) key(k string) {
	e.elem()
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, k...)
	e.buf = append(e.buf, '"', ':')
	if e.pretty {
		e.buf = append(e.buf, ' ')
	}
}

// null appends member k with the value null.
func (e *appender) null(k string) {
	e.key(k)
	e.buf = append(e.buf, "null"...)
}

// int appends member k with an integer value.
func (e *appender) int(k string, i int) {
	e.key(k)
	e.buf = strconv.AppendInt(e.buf, int64(i), 10)
}

// str appends member k with a string value.
func (e *appender) str(k, s string) {
	e.key(k)
	e.buf = AppendString(e.buf, s)
}

// float appends member k with encoding/json's formatting of a float64:
// ES6-style, 'e' only below 1e-6 and from 1e21, a two-digit negative
// exponent trimmed to one. A NaN or an infinity marks the document bad.
func (e *appender) float(k string, f float64) {
	e.key(k)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		e.bad = true
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.buf = strconv.AppendFloat(e.buf, f, format, -1, 64)
	if n := len(e.buf); format == 'e' && e.buf[n-4] == 'e' && e.buf[n-3] == '-' && e.buf[n-2] == '0' {
		e.buf[n-2] = e.buf[n-1]
		e.buf = e.buf[:n-1]
	}
}

// node appends a node object as an array element.
func (e *appender) node(n *nodes.Node) {
	e.elem()
	e.open('{')
	e.int("id", n.ID)
	e.float("perf", n.Perf)
	e.float("price", n.Price)
	e.int("ram_mb", n.RAMMB)
	e.int("disk_gb", n.DiskGB)
	e.str("os", string(n.OS))
	e.str("arch", string(n.Arch))
	e.close('}')
}

// nodes appends member "nodes": the array of ns, or null when it is empty.
func (e *appender) nodes(ns []*nodes.Node) {
	if len(ns) == 0 {
		e.null("nodes")
		return
	}
	e.key("nodes")
	e.open('[')
	for _, n := range ns {
		e.node(n)
	}
	e.close(']')
}

const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string, byte for byte as encoding/json
// writes it: '"' and '\\' escaped, \b, \f, \n, \r and \t by their short
// escapes, every other control byte and '<', '>' and '&' as \u00XX, U+2028
// and U+2029 as \u2028 and \u2029, and each byte of invalid UTF-8 as
// \ufffd.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// An Encoder appends the self-contained documents the durable log writes:
// owned windows and slot lists. Each embeds the distinct nodes it
// references, sorted by ID; the Encoder keeps the scratch they are sorted
// in, so a reused Encoder allocates nothing but the growth of dst. The
// zero value is ready. An Encoder is not safe for concurrent use.
type Encoder struct {
	nodes []*nodes.Node
}

// addNode inserts n into the scratch, kept sorted by ID, unless a node with
// its ID is already there: the first one met stands for its ID. IDs met in
// order, as a base sorted by node is, cost one comparison each.
func (enc *Encoder) addNode(n *nodes.Node) {
	ns := enc.nodes
	lo, hi := 0, len(ns)
	if hi > 0 {
		switch last := ns[hi-1].ID; {
		case last == n.ID:
			return
		case last < n.ID:
			lo = hi
		}
	}
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ns[m].ID < n.ID {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(ns) && ns[lo].ID == n.ID {
		return
	}
	enc.nodes = slices.Insert(ns, lo, n)
}

// AppendOwnedWindow appends w as a self-contained compact document — its
// start, the nodes it uses and each placement with its hosting slot's
// interval — which ParseOwnedWindow reads back with no environment at
// hand, as a write-ahead log replayed on a cold boot needs. Aggregates
// (runtime, cost, proc time) are not stored: ParseOwnedWindow recomputes
// them with the exact NewWindow accumulation, so a round trip is
// value-identical. A placement without a slot or node, or a non-finite
// number, is an error, and dst comes back unchanged.
func (enc *Encoder) AppendOwnedWindow(dst []byte, w *core.Window) ([]byte, error) {
	enc.nodes = enc.nodes[:0]
	for _, p := range w.Placements {
		if p.Slot == nil || p.Slot.Node == nil {
			return dst, fmt.Errorf("persist: window placement has a nil slot or node")
		}
		enc.addNode(p.Slot.Node)
	}
	e := appender{buf: slices.Grow(dst, 64+128*len(enc.nodes)+112*len(w.Placements))}
	e.open('{')
	e.int("version", FormatVersion)
	e.float("start", w.Start)
	e.nodes(enc.nodes)
	if len(w.Placements) == 0 {
		e.null("placements")
	} else {
		e.key("placements")
		e.open('[')
		for _, p := range w.Placements {
			e.elem()
			e.open('{')
			e.int("node", p.Slot.Node.ID)
			e.float("start", p.Start)
			e.float("exec", p.Exec)
			e.float("cost", p.Cost)
			e.float("slot_start", p.Slot.Start)
			e.float("slot_end", p.Slot.End)
			e.close('}')
		}
		e.close(']')
	}
	e.close('}')
	clear(enc.nodes)
	if e.bad {
		return dst, fmt.Errorf("persist: encoding owned window: %w", ErrNonFinite)
	}
	return e.buf, nil
}

// AppendSlotList appends l as a self-contained slot-list document: the
// format version, the distinct nodes the slots reference (sorted by ID)
// and the slots in list order, referencing their nodes by ID. It is compact
// for the durable log, or indented by two spaces for the files and replies
// WriteSlotList writes. A nil slot or node, or a non-finite number, is an
// error, and dst comes back unchanged.
func (enc *Encoder) AppendSlotList(dst []byte, l slots.List, indent bool) ([]byte, error) {
	enc.nodes = enc.nodes[:0]
	for _, s := range l {
		if s == nil || s.Node == nil {
			return dst, fmt.Errorf("persist: slot list contains a nil slot or node")
		}
		enc.addNode(s.Node)
	}
	perSlot, perNode := 64, 128
	if indent {
		perSlot, perNode = 112, 192
	}
	e := appender{buf: slices.Grow(dst, 64+perNode*len(enc.nodes)+perSlot*len(l)), pretty: indent}
	e.open('{')
	e.int("version", FormatVersion)
	e.nodes(enc.nodes)
	if len(l) == 0 {
		e.null("slots")
	} else {
		e.key("slots")
		e.open('[')
		for _, s := range l {
			e.elem()
			e.open('{')
			e.int("node", s.Node.ID)
			e.float("start", s.Start)
			e.float("end", s.End)
			e.close('}')
		}
		e.close(']')
	}
	e.close('}')
	clear(enc.nodes)
	if e.bad {
		return dst, fmt.Errorf("persist: encoding slot list: %w", ErrNonFinite)
	}
	return e.buf, nil
}
