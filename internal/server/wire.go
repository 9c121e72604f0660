package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"slotsel/internal/core"
	"slotsel/internal/job"
	"slotsel/internal/persist"
)

// The request path reads and writes every byte once. In: the body is read
// into the scope's pooled buffer and parsed — envelope and request — in
// one persist.Scanner pass; a body outside the Scanner's subset is decided
// by encoding/json over the same bytes. Out: a reply is assembled by
// appends into the scope's second buffer (windows by persist.AppendWindow,
// a cache hit from the entry's stored bytes) and sent with one Write.

// reqScope is the state of one admitted request: the writer and the status
// it sent, what the log line wants to know about the request, its
// deadline, and the two wire buffers. It is the http.ResponseWriter the
// routes see, and it is pooled — nothing may keep it, or a slice of its
// buffers, past the handler's return.
type reqScope struct {
	http.ResponseWriter

	// code is the status sent; 200 until a reply says otherwise.
	code int

	// alg is the selection algorithm or CSA criterion the request named
	// ("amp", "csa:cost"); empty for non-search endpoints.
	alg string

	// deadline is arrival plus Options.RequestTimeout on the obs.Now
	// clock. Only /v1/watch waits on it; every other handler runs to
	// completion without blocking on anything a deadline could interrupt.
	deadline time.Duration

	search searchInputs
	in     bytes.Buffer // the request body
	out    []byte       // the reply
}

// maxPooledBuffer is the largest wire buffer a scope takes back to the
// pool; one grown by an unusual request is dropped instead.
const maxPooledBuffer = 8 << 10

var scopePool = sync.Pool{New: func() any { return new(reqScope) }}

func acquireScope(w http.ResponseWriter, deadline time.Duration) *reqScope {
	sc := scopePool.Get().(*reqScope)
	sc.ResponseWriter, sc.code, sc.deadline = w, http.StatusOK, deadline
	return sc
}

func releaseScope(sc *reqScope) {
	in, out := sc.in, sc.out[:0]
	in.Reset()
	if in.Cap() > maxPooledBuffer {
		in = bytes.Buffer{}
	}
	if cap(out) > maxPooledBuffer {
		out = nil
	}
	*sc = reqScope{in: in, out: out}
	scopePool.Put(sc)
}

func (sc *reqScope) WriteHeader(code int) {
	sc.code = code
	sc.ResponseWriter.WriteHeader(code)
}

// contentTypeJSON is shared by every reply: net/http only reads a header's
// value slice, and installing this one saves allocating it per request.
var contentTypeJSON = []string{"application/json"}

// writeBody sends one complete JSON reply.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header()["Content-Type"] = contentTypeJSON
	w.WriteHeader(code)
	_, _ = w.Write(body) // a client that went away is not the handler's to report
}

// The replies are the documents an indenting encoding/json Encoder renders
// for a map: keys in sorted order, two-space indent, a final newline.

// field starts the reply object's next member: `"key": ` on a line of its
// own. Callers add members in sorted key order.
func (sc *reqScope) field(key string) {
	if len(sc.out) == 0 {
		sc.out = append(sc.out, "{\n  \""...)
	} else {
		sc.out = append(sc.out, ",\n  \""...)
	}
	sc.out = append(sc.out, key...)
	sc.out = append(sc.out, "\": "...)
}

func (sc *reqScope) str(key, v string) {
	sc.field(key)
	sc.out = appendString(sc.out, v)
}

func (sc *reqScope) uint(key string, v uint64) {
	sc.field(key)
	sc.out = strconv.AppendUint(sc.out, v, 10)
}

// window adds the "window" member. When the window cannot be encoded the
// request is answered 500 instead, and false is returned.
func (sc *reqScope) window(w *core.Window) bool {
	sc.field("window")
	var err error
	if sc.out, err = persist.AppendWindow(sc.out, w, 1); err != nil {
		sc.error(http.StatusInternalServerError, err.Error())
		return false
	}
	return true
}

// send closes the reply object and writes it.
func (sc *reqScope) send(code int) {
	sc.out = append(sc.out, "\n}\n"...)
	writeBody(sc, code, sc.out)
}

// error answers with an error body, dropping whatever reply was begun.
func (sc *reqScope) error(code int, msg string) {
	sc.out = sc.out[:0]
	sc.str("error", msg)
	sc.send(code)
}

// errorBody pre-renders the reply of a constant error, for the paths that
// answer before a scope exists: shedding and deadline expiry, where the
// server is overloaded and should allocate least.
func errorBody(msg string) []byte {
	var sc reqScope
	sc.str("error", msg)
	return append(sc.out, "\n}\n"...)
}

var (
	bodyOverloaded    = errorBody("server overloaded, retry later")
	bodyExpiredQueued = errorBody("request deadline expired while queued")
	bodyExpiredAdmit  = errorBody("request deadline exceeded in queue")
)

// appendString appends s as encoding/json quotes it. The strings replies
// carry — reservation IDs, timestamps, most messages — need no escaping;
// one that does (a quote, a control or non-ASCII byte, the HTML characters
// the Encoder escapes) is left to json.Marshal.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// maxBodyBytes caps a request body; a larger one is answered 413.
const maxBodyBytes = 1 << 20

// readBody reads the request body into sc.in. A body over the cap is
// answered 413 (not a generic 400: the client must shrink the payload, not
// fix its syntax).
func (sc *reqScope) readBody(r *http.Request) bool {
	_, err := sc.in.ReadFrom(http.MaxBytesReader(sc, r.Body, maxBodyBytes))
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		sc.error(http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds the %d-byte limit", tooLarge.Limit))
	} else {
		sc.error(http.StatusBadRequest, "bad request body: "+err.Error())
	}
	return false
}

// decodeJSON is the encoding/json half of a body decode, for bodies the
// Scanner left alone: exactly one JSON value. Trailing tokens after the
// value are rejected — silently accepted garbage usually means a
// concatenated or truncated payload the client should know about. It is
// also where every decode error text comes from. The target is its own, so
// that its place on the heap costs the Scanner's half nothing.
func decodeJSON[T any](sc *reqScope) (v T, ok bool) {
	dec := json.NewDecoder(bytes.NewReader(sc.in.Bytes()))
	if err := dec.Decode(&v); err != nil {
		sc.error(http.StatusBadRequest, "bad request body: "+err.Error())
		return v, false
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		sc.error(http.StatusBadRequest, "trailing data after JSON body")
		return v, false
	}
	return v, true
}

// searchBody is the shared request payload of /v1/find and /v1/reserve.
type searchBody struct {
	// Request is the resource request in the persist wire encoding.
	Request requestField `json:"request"`

	// Alg names the selection algorithm (baseline.AlgorithmByName);
	// default "amp". Ignored when CSA is set.
	Alg string `json:"alg,omitempty"`

	// CSA, when non-empty, switches reserve to a CSA alternative search
	// selecting by this criterion: start|finish|cost|runtime|proctime.
	CSA string `json:"csa,omitempty"`

	// TTLSeconds is the hold lifetime for /v1/reserve; 0 = server default.
	TTLSeconds float64 `json:"ttl_seconds,omitempty"`
}

// requestField is the "request" member, parsed where it stands in the
// body. Its error is kept rather than returned so that it is reported
// after the envelope's own, whichever half decoded the body.
type requestField struct {
	req *job.Request
	err error
	set bool
}

func (f *requestField) UnmarshalJSON(b []byte) error {
	f.req, f.err = persist.ParseRequest(b)
	f.set = true
	return nil
}

// scan is the Scanner half of the search body decode.
func (b *searchBody) scan(buf []byte) bool {
	s := persist.NewScanner(buf)
	return s.Object(func(key []byte) (ok bool) {
		switch string(key) {
		case "request":
			b.Request.req, ok, b.Request.err = persist.ScanRequest(s)
			b.Request.set = true
		case "alg":
			b.Alg, ok = s.String()
		case "csa":
			b.CSA, ok = s.String()
		case "ttl_seconds":
			b.TTLSeconds, ok = s.Float()
		}
		return ok
	}) && s.End()
}

// decodeSearchBody decodes sc.in as a search body.
func (sc *reqScope) decodeSearchBody() (body searchBody, ok bool) {
	if body.scan(sc.in.Bytes()) {
		return body, true
	}
	return decodeJSON[searchBody](sc)
}

// idBody is the payload of /v1/commit and /v1/release.
type idBody struct {
	ID string `json:"id"`
}

// decodeID reads and decodes an idBody, answering 400 for a bad one.
func (sc *reqScope) decodeID(r *http.Request) (id string, ok bool) {
	if !sc.readBody(r) {
		return "", false
	}
	s := persist.NewScanner(sc.in.Bytes())
	if !s.Object(func(key []byte) bool {
		if string(key) != "id" {
			return false
		}
		id, ok = s.String()
		return ok
	}) || !s.End() {
		body, ok := decodeJSON[idBody](sc)
		if !ok {
			return "", false
		}
		id = body.ID
	}
	if id == "" {
		sc.error(http.StatusBadRequest, `missing "id" field`)
		return "", false
	}
	return id, true
}

// maxSeconds is the longest span a time.Duration holds, in whole seconds;
// converting a larger float is out of range.
const maxSeconds = int64(1<<63-1) / int64(time.Second)

// seconds converts a request's seconds value to a Duration; ok is false
// when it is out of a Duration's range.
func seconds(v float64) (d time.Duration, ok bool) {
	if v > float64(maxSeconds) {
		return 0, false
	}
	return time.Duration(v * float64(time.Second)), true
}
