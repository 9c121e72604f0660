package main

import (
	"encoding/json"
	"net/http"
	"os"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"slotsel/internal/core"
	"slotsel/internal/csa"
	"slotsel/internal/inventory"
	"slotsel/internal/job"
	"slotsel/internal/obs"
	"slotsel/internal/slots"
)

// layer names the module a span's self time is charged to.
type layer uint8

const (
	layerNet       layer = iota // client span minus handler span: sockets, net/http
	layerServer                 // internal/server (with the find cache's own bookkeeping)
	layerCore                   // internal/core scan + select
	layerInventory              // internal/inventory behind the Pool interface
	layerWAL                    // internal/wal behind the JournalSink interface
	numLayers
)

var layerNames = [numLayers]string{"net", "server", "core", "inventory", "wal"}

// span is one interval at a layer boundary, on the obs.Now clock.
type span struct {
	name       string
	layer      layer
	start, end time.Duration
	children   time.Duration // time covered by child spans
	id, cause  int32         // this span and the span that caused it (-1: a root)
	parent     int32         // cause's index in tracer.spans while it is open
	req        int32         // operation index shared by a request's spans
}

func (s *span) self() time.Duration { return s.end - s.start - s.children }

// spanTotals aggregates every span of one name.
type spanTotals struct {
	layer layer
	count int
	total time.Duration
	self  time.Duration
	alloc uint64 // bytes allocated inside the span (mutations only)
}

// maxKeptSpans bounds the spans kept for the trace file; later spans are
// still aggregated. 200k spans are about 40k find requests.
const maxKeptSpans = 200_000

// tracer records spans at the seams the stack already has: an
// http.Handler around the server, an inventory.Pool around the pool, an
// inventory.JournalSink around each wal.Store, and an obs.Collector.
//
// While recording, the run drives a single client, so at most one request
// is in flight and the open spans form one stack: the Pool interface
// carries no context, and with two requests in flight a pool call could
// not be attributed to its request. With the recorder off every seam
// forwards with one atomic load.
type tracer struct {
	on atomic.Bool

	mu        sync.Mutex
	open      []int32 // stack of open spans (indices into spans)
	spans     []span  // the spans of the request in flight
	kept      []span  // closed spans for the trace file, in closing order
	nextID    int32
	req       int32
	totals    map[string]*spanTotals
	misnested int // spans closed out of stack order: a tracer fault

	scans, scanSlots, scanVisits int // from obs.ScanStats

	fsyncs []time.Duration // every fsync of every store, recorder on or off
}

func newTracer() *tracer {
	return &tracer{totals: make(map[string]*spanTotals)}
}

// reset drops everything recorded so far.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.open, t.spans, t.kept = t.open[:0], t.spans[:0], t.kept[:0]
	t.totals = make(map[string]*spanTotals)
	t.scans, t.scanSlots, t.scanVisits = 0, 0, 0
	t.fsyncs = t.fsyncs[:0]
}

// setRequest names the operation the following spans belong to.
func (t *tracer) setRequest(i int) {
	t.mu.Lock()
	t.req = int32(i)
	t.mu.Unlock()
}

// begin opens a span under the innermost open span.
func (t *tracer) begin(name string, l layer) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.newSpanLocked(name, l)
	s.start = obs.Now()
	idx := int32(len(t.spans))
	t.spans = append(t.spans, s)
	t.open = append(t.open, idx)
	return idx
}

// newSpanLocked numbers a span and links it to the innermost open span.
func (t *tracer) newSpanLocked(name string, l layer) span {
	s := span{name: name, layer: l, id: t.nextID, cause: -1, parent: -1, req: t.req}
	t.nextID++
	if n := len(t.open); n > 0 {
		s.parent = t.open[n-1]
		s.cause = t.spans[s.parent].id
	}
	return s
}

// end closes the span begin returned, which must be the innermost open one.
func (t *tracer) end(id int32, alloc uint64) {
	now := obs.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.open)
	if n == 0 || t.open[n-1] != id {
		t.misnested++
		return
	}
	t.open = t.open[:n-1]
	s := &t.spans[id]
	s.end = now
	t.closeLocked(s, alloc)
	if n == 1 {
		// The request's tree is complete: free the working set so memory
		// stays bounded by maxKeptSpans however long the round is.
		t.spans = t.spans[:0]
	}
}

// leaf records an already-finished span (reported by the obs.Collector
// after the fact) under the innermost open span.
func (t *tracer) leaf(name string, l layer, start, dur time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.newSpanLocked(name, l)
	s.start, s.end = start, start+dur
	t.closeLocked(&s, 0)
}

func (t *tracer) closeLocked(s *span, alloc uint64) {
	if s.parent >= 0 {
		t.spans[s.parent].children += s.end - s.start
	}
	tot := t.totals[s.name]
	if tot == nil {
		tot = &spanTotals{layer: s.layer}
		t.totals[s.name] = tot
	}
	tot.count++
	tot.total += s.end - s.start
	tot.self += s.self()
	tot.alloc += alloc
	if len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, *s)
	}
}

// layerSelf sums self time per layer over everything recorded.
func (t *tracer) layerSelf() [numLayers]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out [numLayers]time.Duration
	for _, tot := range t.totals {
		out[tot.layer] += tot.self
	}
	return out
}

func (t *tracer) total(name string) spanTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	if tot := t.totals[name]; tot != nil {
		return *tot
	}
	return spanTotals{}
}

func (t *tracer) misnestedSpans() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.misnested
}

// fsyncMedian is the median fsync duration seen so far.
func (t *tracer) fsyncMedian() time.Duration {
	t.mu.Lock()
	d := append([]time.Duration(nil), t.fsyncs...)
	t.mu.Unlock()
	if len(d) == 0 {
		return 0
	}
	slices.Sort(d)
	return d[len(d)/2]
}

func (t *tracer) onFsync(d time.Duration) {
	t.mu.Lock()
	t.fsyncs = append(t.fsyncs, d)
	t.mu.Unlock()
}

// writeChrome writes the kept spans as Chrome trace_event JSON (load it in
// chrome://tracing or ui.perfetto.dev). All spans share one lane, where
// the viewer nests them by time; cat is the layer, and args carry the
// request id, the span's id, the id of the span that caused it and its
// self time.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.kept))
	for i := range t.kept {
		s := &t.kept[i]
		events = append(events, event{
			Name: s.name, Cat: layerNames[s.layer], Ph: "X",
			Ts: us(s.start), Dur: us(s.end - s.start), Pid: 1, Tid: 1,
			Args: map[string]any{"req": s.req, "id": s.id, "parent": s.cause, "self_us": us(s.self())},
		})
	}
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ---- seam: http.Handler around the server ----

func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		id := t.begin("server.handler", layerServer)
		next.ServeHTTP(w, r)
		t.end(id, 0)
	})
}

// ---- seam: obs.Collector handed to the server and the inventory ----

type traceCollector struct {
	obs.Nop
	t *tracer
}

func (c traceCollector) ScanDone(s obs.ScanStats) {
	if !c.t.on.Load() {
		return
	}
	c.t.mu.Lock()
	c.t.scans++
	c.t.scanSlots += s.Slots
	c.t.scanVisits += s.Visits
	c.t.mu.Unlock()
}

func (c traceCollector) Span(s obs.Span) {
	// Only the kernel's spans: the server's "http" and the inventory's own
	// spans are covered by the handler and pool seams.
	if s.Cat == "select" && c.t.on.Load() {
		c.t.leaf("core."+s.Name, layerCore, s.Start, s.Dur)
	}
}

// ---- seam: inventory.JournalSink around a wal.Store ----

type tracedSink struct {
	t    *tracer
	next inventory.JournalSink
}

func (s tracedSink) Append(ev inventory.Event) func() error {
	if !s.t.on.Load() {
		return s.next.Append(ev)
	}
	id := s.t.begin("wal.append", layerWAL)
	wait := s.next.Append(ev)
	s.t.end(id, 0)
	if wait == nil {
		return nil
	}
	return func() error {
		id := s.t.begin("wal.wait", layerWAL)
		err := wait()
		s.t.end(id, 0)
		return err
	}
}

// ---- seam: inventory.Pool around the pool ----

// tracedPool forwards every Pool method, timing it while the recorder is
// on. It also counts reservations and how many of them span shards, which
// the pool itself does not report.
type tracedPool struct {
	t    *tracer
	next inventory.Pool

	reserved, twoPhase atomic.Uint64
}

var _ inventory.Pool = (*tracedPool)(nil)

// heapAllocated is the cumulative bytes allocated by the process; with a
// single client in flight, the delta across a pool call is that call's.
func heapAllocated() uint64 {
	var s [1]metrics.Sample
	s[0].Name = "/gc/heap/allocs:bytes"
	metrics.Read(s[:])
	return s[0].Value.Uint64()
}

// poolSpan is an open span of a pool call; the zero value (recorder off)
// makes end a no-op.
type poolSpan struct {
	on       bool
	id       int32
	mutation bool
	before   uint64 // heapAllocated at begin, mutations only
}

// begin opens a span around one pool call. A mutation also records the
// bytes allocated while it runs.
func (p *tracedPool) begin(name string, mutation bool) poolSpan {
	if !p.t.on.Load() {
		return poolSpan{}
	}
	s := poolSpan{on: true, mutation: mutation}
	if mutation {
		s.before = heapAllocated()
	}
	s.id = p.t.begin(name, layerInventory)
	return s
}

func (p *tracedPool) end(s poolSpan) {
	if !s.on {
		return
	}
	var alloc uint64
	if s.mutation {
		alloc = heapAllocated() - s.before
	}
	p.t.end(s.id, alloc)
}

func (p *tracedPool) countReservation(res *inventory.Reservation, err error) {
	if err != nil || res == nil {
		return
	}
	p.reserved.Add(1)
	if n := p.next.Shards(); n > 1 {
		first := inventory.ShardOf(res.Window.Placements[0].Node().ID, n)
		for _, pl := range res.Window.Placements[1:] {
			if inventory.ShardOf(pl.Node().ID, n) != first {
				p.twoPhase.Add(1)
				break
			}
		}
	}
}

func (p *tracedPool) Snapshot() *inventory.Snapshot {
	sp := p.begin("pool.Snapshot", false)
	defer p.end(sp)
	return p.next.Snapshot()
}

func (p *tracedPool) Reserve(req *job.Request, alg core.Algorithm, ttl time.Duration) (*inventory.Reservation, error) {
	sp := p.begin("pool.Reserve", true)
	res, err := p.next.Reserve(req, alg, ttl)
	p.end(sp)
	p.countReservation(res, err)
	return res, err
}

func (p *tracedPool) ReserveBest(req *job.Request, crit csa.Criterion, maxAlts int, ttl time.Duration) (*inventory.Reservation, error) {
	sp := p.begin("pool.ReserveBest", true)
	res, err := p.next.ReserveBest(req, crit, maxAlts, ttl)
	p.end(sp)
	p.countReservation(res, err)
	return res, err
}

func (p *tracedPool) ReserveWindow(w *core.Window, ttl time.Duration) (*inventory.Reservation, error) {
	sp := p.begin("pool.ReserveWindow", true)
	res, err := p.next.ReserveWindow(w, ttl)
	p.end(sp)
	p.countReservation(res, err)
	return res, err
}

func (p *tracedPool) Commit(id string) (*core.Window, error) {
	sp := p.begin("pool.Commit", true)
	defer p.end(sp)
	return p.next.Commit(id)
}

func (p *tracedPool) Release(id string) error {
	sp := p.begin("pool.Release", true)
	defer p.end(sp)
	return p.next.Release(id)
}

func (p *tracedPool) Add(list slots.List) error {
	sp := p.begin("pool.Add", true)
	defer p.end(sp)
	return p.next.Add(list)
}

func (p *tracedPool) Withdraw(nodeID int) ([]string, error) {
	sp := p.begin("pool.Withdraw", true)
	defer p.end(sp)
	return p.next.Withdraw(nodeID)
}

func (p *tracedPool) Sweep() int {
	sp := p.begin("pool.Sweep", false)
	defer p.end(sp)
	return p.next.Sweep()
}

func (p *tracedPool) Status() inventory.Status {
	sp := p.begin("pool.Status", false)
	defer p.end(sp)
	return p.next.Status()
}

func (p *tracedPool) Holds() []string {
	sp := p.begin("pool.Holds", false)
	defer p.end(sp)
	return p.next.Holds()
}

func (p *tracedPool) Committed() map[string]*core.Window {
	sp := p.begin("pool.Committed", false)
	defer p.end(sp)
	return p.next.Committed()
}

func (p *tracedPool) AddChangeListener(fn func(inventory.Change)) { p.next.AddChangeListener(fn) }

func (p *tracedPool) InvalidatedSince(since, now uint64, lo, hi float64) bool {
	sp := p.begin("pool.InvalidatedSince", false)
	defer p.end(sp)
	return p.next.InvalidatedSince(since, now, lo, hi)
}

func (p *tracedPool) Shards() int { return p.next.Shards() }
