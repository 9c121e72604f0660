package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// DefaultTraceCapacity is the span capacity of traces created by the CLI
// flags: large enough for tens of thousands of scan/select/csa spans,
// bounded so a long experiment cannot grow memory without limit.
const DefaultTraceCapacity = 1 << 16

// Trace is a Collector recording spans into a bounded ring buffer: when
// the buffer is full the oldest span is overwritten and counted as
// dropped. The zero value is NOT usable — construct with NewTrace, which
// fixes the capacity. Safe for concurrent use.
//
// Trace ignores counter events (ScanDone/SelectDone/BatchDone); combine
// with a Stats collector for those.
type Trace struct {
	mu      sync.Mutex
	buf     []Span
	next    int // ring write position once full
	full    bool
	dropped int
}

// NewTrace returns a trace sink holding at most capacity spans; capacity
// must be positive.
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		panic("obs: NewTrace capacity must be positive")
	}
	return &Trace{buf: make([]Span, 0, capacity)}
}

// ScanDone implements Collector (ignored).
func (*Trace) ScanDone(ScanStats) {}

// SelectDone implements Collector (ignored).
func (*Trace) SelectDone(SelectStats) {}

// BatchDone implements Collector (ignored).
func (*Trace) BatchDone(BatchStats) {}

// Span implements Collector: record the span, evicting the oldest when the
// ring is full.
func (t *Trace) Span(sp Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.full && len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, sp)
		return
	}
	t.full = true
	t.buf[t.next] = sp
	t.next = (t.next + 1) % cap(t.buf)
	t.dropped++
}

// Dropped returns the number of spans evicted by the ring.
func (t *Trace) Dropped() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Spans returns a copy of the retained spans ordered by start time (spans
// arrive out of order when emitted from concurrent goroutines).
func (t *Trace) Spans() []Span {
	t.mu.Lock()
	out := make([]Span, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// chromeEvent is one Chrome trace_event object ("X" complete events; see
// the Trace Event Format documentation — the JSON-array form loads
// directly in chrome://tracing and Perfetto).
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`  // microseconds
	Dur  float64           `json:"dur"` // microseconds
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"` // always 0: viewers want the key, spans carry no lane
	Args map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace exports the retained spans as a Chrome trace_event JSON
// array. Timestamps are microseconds on the process-monotonic clock.
func (t *Trace) WriteChromeTrace(w io.Writer) error {
	spans := t.Spans()
	events := make([]chromeEvent, 0, len(spans))
	for _, sp := range spans {
		ev := chromeEvent{
			Name: sp.Name,
			Cat:  sp.Cat,
			Ph:   "X",
			Ts:   float64(sp.Start) / float64(time.Microsecond),
			Dur:  float64(sp.Dur) / float64(time.Microsecond),
			Pid:  1,
		}
		if sp.Arg != "" || sp.Trace != "" {
			ev.Args = make(map[string]string, 2)
			if sp.Arg != "" {
				ev.Args["detail"] = sp.Arg
			}
			if sp.Trace != "" {
				ev.Args["trace_id"] = sp.Trace
			}
		}
		events = append(events, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}
