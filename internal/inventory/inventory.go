// Package inventory is the stateful slot pool behind the scheduling
// service: where the library algorithms (core, csa) are one-shot functions
// over a caller-supplied slot list, the inventory owns a long-lived pool of
// published slots and an allocation lifecycle on top of it.
//
// # Lifecycle
//
// A reservation moves through a small state machine:
//
//	Reserve ──> held ──Commit──> committed            (allocation permanent)
//	              │──Release──> freed                 (spans return to pool)
//	              │──TTL expiry──> freed              (swept automatically)
//	              └──node Withdraw──> cancelled       (capacity disappeared)
//
// Reserve runs a window search (an AEP algorithm via core.Find, or a CSA
// alternative search via ReserveBest) against the current free snapshot and
// places a TTL'd hold on the winning window's slots. Commit makes the hold
// permanent; Release and expiry return the spans to the pool.
//
// # Concurrency model
//
// Reads are lock-free: the current free pool is published as an immutable
// persistent sequence (slots.Seq) behind an atomic pointer, so any number
// of searches can run concurrently against it (the slots.List immutability
// contract, extended to the sequence's leaves, makes old versions free).
// All mutations serialize on one mutex and publish the next version as an
// edit of the previous one. Reservation is optimistic: the search runs
// against a possibly stale snapshot, and the hold placement re-validates
// the window against the *current* state under the lock — a window that
// still fits (every placement span inside the node's base capacity and
// overlapping no live allocation) is held even if the version moved; a
// window that no longer fits fails with ErrConflict and the caller retries
// against the fresh snapshot.
//
// # Conflict-detection invariant
//
// All spans are half-open intervals [Start, End): two allocations on one
// node conflict iff their intervals overlap with positive length, so
// touching windows (one ending exactly where the next starts) are NOT a
// conflict — the same convention slots.Interval.Overlaps and the timetable
// use. Free capacity is always derivable as base minus allocations; holds
// and commits never mutate the base, which is what makes Release and expiry
// exact inverses of Reserve.
package inventory

import (
	"errors"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"slotsel/internal/core"
	"slotsel/internal/csa"
	"slotsel/internal/job"
	"slotsel/internal/nodes"
	"slotsel/internal/obs"
	"slotsel/internal/slots"
)

// Errors returned by the allocation lifecycle.
var (
	// ErrConflict reports that a window (typically found on a stale
	// snapshot) no longer fits the current state: a span left the base
	// capacity or overlaps a live allocation. The caller should retry
	// against a fresh snapshot.
	ErrConflict = errors.New("inventory: reservation conflicts with current state")

	// ErrUnknownReservation reports a Commit/Release for an ID that is not
	// a live hold: never issued, already settled, or expired and swept.
	ErrUnknownReservation = errors.New("inventory: unknown, expired or already settled reservation")

	// ErrUnknownNode reports a Withdraw of a node with no base capacity.
	ErrUnknownNode = errors.New("inventory: unknown node")

	// ErrNotDurable reports that a mutation's journal write did not reach
	// stable storage. The sink has latched the failure, so every later
	// mutation fails the same way until the process restarts; the
	// in-memory state has already changed.
	ErrNotDurable = errors.New("inventory: journal not durable")
)

// DefaultTTL is the hold lifetime used when Options.DefaultTTL is zero and
// a Reserve call does not specify one.
const DefaultTTL = 30 * time.Second

// Options configures an Inventory. The zero value is usable.
type Options struct {
	// MinSlotLength suppresses free-list fragments shorter than this when
	// allocations are cut out of the base capacity; it should match the
	// environment's published minimum slot length.
	MinSlotLength float64

	// DefaultTTL is the hold lifetime applied when a reserve passes ttl<=0.
	// Zero means DefaultTTL (30s).
	DefaultTTL time.Duration

	// Record enables the operation journal (Journal/Replay) — every
	// serialized mutation is appended with its outcome, so a concurrent run
	// can be replayed sequentially. Off by default: the journal grows
	// without bound.
	Record bool

	// Sink, when non-nil, receives every journaled event for durable
	// storage (the internal/wal write-ahead log) instead of unbounded
	// in-memory accumulation: events are enqueued under the mutex (order =
	// serialization order) and each mutating method blocks after releasing
	// the mutex until its events are fsync'd, so an acknowledged mutation
	// is always recoverable. A durability failure is returned as an error;
	// by then the mutation is applied in memory, so callers should treat
	// sink errors as fatal for the process (the wal.Store latches them).
	// Sink and Record compose: both receive every event.
	Sink JournalSink

	// Collector receives instrumentation (search events from the embedded
	// core/csa searches plus "inventory" spans). nil = off.
	Collector obs.Collector

	// Clock overrides the time source for hold expiry (test seam).
	// nil = time.Now.
	Clock func() time.Time

	// Shards partitions the pool (NewSharded, wal.Boot): slots are routed
	// to shards by a stable hash of their node ID, each shard an
	// independent Inventory with its own mutex, snapshot, journal and
	// sweeper. There is no 1-shard router: below 2 shards wal.Boot builds
	// a plain Inventory and NewSharded refuses. Ignored by New.
	Shards int
}

// Snapshot is one immutable version of the free pool, safe to search from
// any number of goroutines. Find and BestAlternative walk the version as it
// was published, a verified slots.Seq, so a search neither copies the pool
// nor checks its order again; a snapshot built by hand from Slots alone
// searches Slots, order-checked on every search. Slots is set only on what
// Pool.Snapshot() returns, built at most once per version.
type Snapshot struct {
	// Version increases with every republication of the free list.
	Version uint64

	// Slots is the free list, sorted by start time (AEP scan ready). Set
	// only on what Pool.Snapshot() returns; nil on a search view (Latest).
	// It stays while the benchmark module reads it (ROADMAP item 10).
	Slots slots.List

	// MinSlotLength is the publishing pool's Options.MinSlotLength: the
	// shortest remainder the pool would publish after an allocation.
	MinSlotLength float64

	// seq is the version as published; nil on a snapshot built by hand.
	seq *slots.Seq
}

// Len returns the number of free slots.
func (s *Snapshot) Len() int {
	if s.seq != nil {
		return s.seq.Len()
	}
	return len(s.Slots)
}

// cursor walks the version: the published sequence, or Slots when the
// snapshot was built by hand.
func (s *Snapshot) cursor() slots.Cursor {
	if s.seq != nil {
		return s.seq.Cursor()
	}
	return s.Slots.Cursor()
}

// Find runs one AEP search over the snapshot and returns a caller-owned
// window: core.FindObserved, over the version as it was published. The
// window's placements reference the published slots.
func (s *Snapshot) Find(alg core.Algorithm, req *job.Request, col obs.Collector) (*core.Window, error) {
	return core.FindObserved(alg, s.cursor(), req, col)
}

// BestAlternative is the CSA search every caller runs over a snapshot —
// /v1/find, /v1/watch and ReserveBest alike, so what a find shows is what a
// reserve holds: alternatives are cut with the pool's own MinSlotLength (a
// remainder the pool would never publish is never offered) and the extreme
// one by crit is returned, caller-owned. maxAlts <= 0 means unbounded. A
// pooled scanner's working copy is loaded from the snapshot leaf by leaf.
func (s *Snapshot) BestAlternative(req *job.Request, crit csa.Criterion, maxAlts int, col obs.Collector) (*core.Window, error) {
	sc := core.AcquireScanner()
	defer core.ReleaseScanner(sc)
	alts, err := sc.Alternatives(s.cursor(), req, maxAlts, s.MinSlotLength, col)
	if err != nil {
		return nil, err
	}
	return csa.Best(alts, crit), nil
}

// Latest returns the pool's current version as a search reads it. The pools
// of this package hand out the view the version was published as, with no
// flat list and no allocation; any other Pool is read through its
// Snapshot().
func Latest(p Pool) *Snapshot {
	switch p := p.(type) {
	case *Inventory:
		return &p.pub.Load().view
	case *Sharded:
		return &p.current().view
	}
	return p.Snapshot()
}

// Reservation is a live hold on a window's slots.
type Reservation struct {
	// ID names the hold for Commit/Release.
	ID string

	// Window is the held co-allocation.
	Window *core.Window

	// Version is the inventory version right after the hold was placed.
	Version uint64

	// Expires is when the hold lapses unless committed.
	Expires time.Time
}

// Counters are the lifecycle totals since construction.
type Counters struct {
	// Reserves counts accepted holds.
	Reserves uint64 `json:"reserves"`
	// Conflicts counts reserves rejected by re-validation.
	Conflicts uint64 `json:"conflicts"`
	// NoWindow counts reserve searches that found no feasible window.
	NoWindow uint64 `json:"no_window"`
	// Commits counts holds made permanent.
	Commits uint64 `json:"commits"`
	// Releases counts holds released by the caller.
	Releases uint64 `json:"releases"`
	// Expiries counts holds swept after their TTL lapsed.
	Expiries uint64 `json:"expiries"`
	// Adds counts slot-list additions (including construction).
	Adds uint64 `json:"adds"`
	// Withdrawals counts nodes withdrawn from the pool.
	Withdrawals uint64 `json:"withdrawals"`
	// Cancelled counts holds dropped because a node they use withdrew.
	Cancelled uint64 `json:"cancelled_holds"`
}

// Status is a point-in-time summary for monitoring (the /v1/statusz view).
type Status struct {
	Version    uint64   `json:"version"`
	Nodes      int      `json:"nodes"`
	FreeSlots  int      `json:"free_slots"`
	FreeSpan   float64  `json:"free_span"`
	Holds      int      `json:"holds"`
	Committed  int      `json:"committed"`
	JournalLen int      `json:"journal_len"`
	Counters   Counters `json:"counters"`
}

type hold struct {
	window  *core.Window
	expires time.Time
	parts   int // Event.Parts of the reserve that placed it
}

// Inventory is a concurrency-safe, versioned slot pool with an allocation
// lifecycle. All methods are safe for concurrent use.
type Inventory struct {
	opts Options
	pub  atomic.Pointer[published] // current version of the free pool (index.go)

	mu        sync.Mutex
	nodes     map[int]*nodes.Node      // node registry (survives Withdraw)
	base      map[int][]slots.Interval // capacity spans per node, merged+sorted
	alloc     map[int][]slots.Interval // live allocation spans per node, sorted
	holds     map[string]*hold         // TTL'd reservations
	committed map[string]*core.Window  // permanent allocations
	epoch     uint64                   // the last OpBoot's; 0 before any
	nextID    uint64                   // IDs minted in this epoch
	seq       uint64
	journal   []Event
	counters  Counters

	// free is the persistent per-node free-slot index: the incremental
	// counterpart of the tests' freeLocked oracle. Mutations re-cut only the
	// base spans they touch and publish the difference as an edit of the
	// previous version's sequence (see index.go).
	free map[int]slots.List

	// pending are Change notifications accumulated by publications in the
	// current (or a recent) critical section, drained by flushChanges
	// after the mutex is released; listeners receive every Change in
	// publication order.
	pending   []Change
	listeners []func(Change)

	// inval is the version-indexed invalidation history (own lock; read
	// lock-free of inv.mu by cache revalidation).
	inval invalRing

	// wait is the pending durability wait of the current critical section
	// (set by recordLocked when a Sink is configured, cleared by
	// takeWaitLocked before the mutex is released).
	wait func() error
}

// withDefaults fills the zero-value defaults every pool constructor
// shares: the hold TTL and the time source.
func (o Options) withDefaults() Options {
	if o.DefaultTTL <= 0 {
		o.DefaultTTL = DefaultTTL
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	return o
}

// newEmpty builds the bare pre-construction inventory: empty maps and a
// version-0 snapshot. Version 0 is the state before any journaled event —
// the base replay and recovery build on, so that "version after event N"
// is identical between a live run and any replayed reconstruction of it.
func newEmpty(opts Options) *Inventory {
	inv := &Inventory{
		opts:      opts.withDefaults(),
		nodes:     make(map[int]*nodes.Node),
		base:      make(map[int][]slots.Interval),
		alloc:     make(map[int][]slots.Interval),
		holds:     make(map[string]*hold),
		committed: make(map[string]*core.Window),
		free:      make(map[int]slots.List),
	}
	empty, _ := slots.SeqOf(nil) // no slots, nothing to be out of order
	inv.pub.Store(inv.newPublished(0, empty))
	return inv
}

// New builds an inventory over the given initial slot list (which may be
// nil: capacity can arrive later via Add). The list is validated; the
// inventory keeps its own interval bookkeeping, so the caller's list is not
// retained or mutated. Construction is journaled as event 1 (an OpAdd,
// possibly with an empty list) and publishes snapshot version 1. With a
// Sink, New journals a boot record as event 2 and returns once it is
// durable (AttachSink).
func New(list slots.List, opts Options) (*Inventory, error) {
	inv := newEmpty(opts)
	if err := inv.add(list); err != nil {
		return nil, err
	}
	if opts.Sink != nil {
		if err := inv.boot(); err != nil {
			return nil, err
		}
	}
	return inv, nil
}

// AttachSink installs the durable journal sink after construction — the
// recovery boot sequence: rebuild state from snapshot + WAL tail first
// (with no sink, so replayed events are not re-journaled), then attach the
// sink so every subsequent mutation streams to the log. On a pool that had
// no sink it journals a boot record and returns once that is durable, or
// the sink's error: the pool may serve only after it returns nil. On a
// pool that already had one it only swaps the sink (a wrapper over the
// same log), and the epoch stays.
func (inv *Inventory) AttachSink(s JournalSink) error {
	inv.mu.Lock()
	booted := inv.opts.Sink != nil
	inv.opts.Sink = s
	inv.mu.Unlock()
	if booted {
		return nil
	}
	return inv.boot()
}

// boot journals the record that starts the next epoch and waits until it
// is durable. Every ID this pool mints afterwards names the new epoch, so
// it differs from every ID minted under an earlier boot of the same log,
// including acknowledged holds a crash forgot. It does not sweep: a boot
// changes no hold.
func (inv *Inventory) boot() error {
	inv.mu.Lock()
	epoch := inv.epoch + 1
	inv.startEpochLocked(epoch)
	inv.recordLocked(Event{Op: OpBoot, Epoch: epoch, OK: true})
	return inv.leave()
}

// SetClock replaces the time source — the recovery seam: a WAL tail
// replays under a frozen clock (a recovered hold must not lapse
// mid-replay and diverge from the recorded outcomes), then the real
// clock takes over and expires recovered holds at their original
// deadlines. nil restores time.Now.
func (inv *Inventory) SetClock(clock func() time.Time) {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	if clock == nil {
		clock = time.Now
	}
	inv.opts.Clock = clock
}

// Shards reports the partition count: always 1 for a standalone Inventory.
// (Part of the Pool interface shared with the sharded router.)
func (inv *Inventory) Shards() int { return 1 }

// Snapshot returns the current free pool with its flat list, lock-free and
// valid forever. The first call that observes a version flattens it into
// Slots; later calls share that list. A search wants Latest instead.
func (inv *Inventory) Snapshot() *Snapshot { return inv.pub.Load().snapshot() }

// reserveRetries bounds the optimistic re-validation loop of one Reserve:
// a search that loses the race to concurrent allocations is retried
// against a fresh snapshot this many times before ErrConflict is surfaced
// to the caller.
const reserveRetries = 3

// query is one reservation search: an AEP algorithm, or (alg == nil) a CSA
// alternative search reduced to its extreme by crit.
type query struct {
	req     *job.Request
	alg     core.Algorithm
	crit    csa.Criterion
	maxAlts int
}

// find runs the query over the pool's latest version, as it was published,
// and returns a caller-owned window.
func (q query) find(p Pool, opts *Options) (*core.Window, error) {
	if q.alg == nil {
		return Latest(p).BestAlternative(q.req, q.crit, q.maxAlts, opts.Collector)
	}
	return Latest(p).Find(q.alg, q.req, opts.Collector)
}

// searchPool is what the reservation loop needs of either pool type.
type searchPool interface {
	Pool
	countNoWindow()
}

// reserveFound is the optimistic reservation loop, written once for both
// kernels and both pool types: search the pool's current version, place a
// hold on the winner, and search again when that version was stale
// (ErrConflict). Each search runs on a pooled scanner, so the retries
// allocate only the detached result windows.
func reserveFound(p searchPool, opts *Options, q query, ttl time.Duration) (*Reservation, error) {
	for attempt := 1; ; attempt++ {
		w, err := q.find(p, opts)
		if err != nil {
			if errors.Is(err, core.ErrNoWindow) {
				p.countNoWindow()
			}
			return nil, err
		}
		res, err := p.ReserveWindow(w, ttl)
		if errors.Is(err, ErrConflict) && attempt < reserveRetries {
			continue // stale snapshot lost the race; search the fresh one
		}
		return res, err
	}
}

// Reserve searches the current snapshot with the given algorithm and places
// a hold on the winning window. ttl<=0 means Options.DefaultTTL. Returns
// core.ErrNoWindow when no feasible window exists on the snapshot and
// ErrConflict when the found window lost a race to concurrent allocations
// on every retry.
func (inv *Inventory) Reserve(req *job.Request, alg core.Algorithm, ttl time.Duration) (*Reservation, error) {
	return reserveFound(inv, &inv.opts, query{req: req, alg: alg}, ttl)
}

// ReserveBest runs a CSA alternative search against the current snapshot,
// picks the alternative extreme by crit and places a hold on it. maxAlts
// bounds the search (0 = until exhaustion). Conflicts retry like Reserve.
func (inv *Inventory) ReserveBest(req *job.Request, crit csa.Criterion, maxAlts int, ttl time.Duration) (*Reservation, error) {
	return reserveFound(inv, &inv.opts, query{req: req, crit: crit, maxAlts: maxAlts}, ttl)
}

var errEmptyWindow = errors.New("inventory: cannot reserve an empty window")

// ReserveWindow places a hold on an externally found window after
// validating it against the current state (the optimistic re-validation
// step: stale-snapshot windows pass iff they still fit).
func (inv *Inventory) ReserveWindow(w *core.Window, ttl time.Duration) (*Reservation, error) {
	if w == nil || len(w.Placements) == 0 {
		return nil, errEmptyWindow
	}
	begin := inv.enter()
	res := inv.reserveLocked("", w, ttl, time.Time{}, 0, begin)
	if err := inv.leave(); err != nil {
		return nil, err
	}
	if res == nil {
		return nil, ErrConflict
	}
	return res, nil
}

// Commit makes the hold permanent: the window's spans stay allocated and
// the reservation can no longer expire or be released.
func (inv *Inventory) Commit(id string) (*core.Window, error) {
	return inv.settle(OpCommit, id)
}

// Release cancels a live hold and returns its spans to the free pool.
func (inv *Inventory) Release(id string) error {
	_, err := inv.settle(OpRelease, id)
	return err
}

func (inv *Inventory) settle(op Op, id string) (*core.Window, error) {
	begin := inv.enter()
	w := inv.settleLocked(op, id, begin)
	if err := inv.leave(); err != nil {
		return nil, err
	}
	if w == nil {
		return nil, ErrUnknownReservation
	}
	return w, nil
}

// Add publishes additional capacity: new nodes, or further spans on known
// nodes (a non-dedicated resource coming back). Spans merge into the base
// capacity; overlapping or touching spans coalesce.
func (inv *Inventory) Add(list slots.List) error {
	if len(list) == 0 {
		return nil
	}
	return inv.add(list)
}

// add also journals an empty list: the construction event of an inventory
// that starts without capacity (Add filters empties, so only New does).
func (inv *Inventory) add(list slots.List) error {
	inv.enter()
	err := inv.addLocked(list)
	if err == nil {
		inv.recordLocked(Event{Op: OpAdd, Slots: list.Clone(), OK: true})
	}
	if derr := inv.leave(); derr != nil { // the entry sweep may have journaled
		return derr
	}
	return err
}

// Withdraw removes a node's base capacity mid-flight (a non-dedicated
// resource disappearing). Live holds using the node are cancelled — all
// their spans, on every node, return to the pool — and their IDs returned.
// Committed allocations stay recorded: their spans remain blocked should
// the node's capacity ever return.
func (inv *Inventory) Withdraw(nodeID int) ([]string, error) {
	inv.enter()
	cancelled, known := inv.withdrawLocked(nodeID)
	inv.recordLocked(Event{Op: OpWithdraw, Node: nodeID, OK: known})
	if err := inv.leave(); err != nil {
		return nil, err
	}
	if !known {
		return nil, ErrUnknownNode
	}
	return cancelled, nil
}

// Sweep drops expired holds immediately and reports how many were swept.
// Sweeping also happens automatically at every mutation, so calling Sweep
// is only needed to bound the staleness of a read-mostly inventory.
// Expiries do not wait for durability (Event.AckWaits): the next awaited
// event makes them durable, and a crash before it brings the holds back
// until the next sweep after the restart. A failed sink cannot be
// surfaced here either; the next mutation reports it.
func (inv *Inventory) Sweep() int {
	inv.mu.Lock()
	n := inv.sweepLocked()
	_ = inv.leave()
	return n
}

// Status returns a consistent point-in-time summary. Only the counts are
// read under the mutex; the free figures are then taken from the version
// those counts belong to — an immutable sequence — so a scrape never holds
// up a booking for a pass over the pool.
func (inv *Inventory) Status() Status {
	inv.mu.Lock()
	p := inv.pub.Load()
	st := Status{
		Version:    p.view.Version,
		Nodes:      len(inv.base),
		Holds:      len(inv.holds),
		Committed:  len(inv.committed),
		JournalLen: len(inv.journal),
		Counters:   inv.counters,
	}
	inv.mu.Unlock()
	st.FreeSlots = p.view.seq.Len()
	st.FreeSpan = p.view.seq.TotalSpan()
	return st
}

// Committed returns a copy of the committed allocations keyed by
// reservation ID. The windows are shared (immutable).
func (inv *Inventory) Committed() map[string]*core.Window {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	out := make(map[string]*core.Window, len(inv.committed))
	for id, w := range inv.committed {
		out[id] = w
	}
	return out
}

// Holds returns the live hold IDs, sorted.
func (inv *Inventory) Holds() []string {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	ids := make([]string, 0, len(inv.holds))
	for id := range inv.holds {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func (inv *Inventory) countNoWindow() {
	inv.mu.Lock()
	inv.counters.NoWindow++
	inv.mu.Unlock()
}

// ---- the mutation envelope ----
//
// Every mutation runs between enter and leave. The sharded router opens
// the same envelope on several shards at once (ascending shard order) and
// runs the journaled transitions below under all their mutexes.

// enter opens a mutation's critical section: stamp the span clock, take
// the mutex and expire the holds that lapsed since the last mutation.
func (inv *Inventory) enter() (begin time.Duration) {
	if inv.opts.Collector != nil {
		begin = obs.Now()
	}
	inv.mu.Lock()
	inv.sweepLocked()
	return begin
}

// unlock ends the critical section and hands back its durability wait.
func (inv *Inventory) unlock() (wait func() error) {
	wait = inv.takeWaitLocked()
	inv.mu.Unlock()
	return wait
}

// leave closes the envelope: unlock, deliver the change notifications of
// the section's publications, then block until its journal writes are
// durable.
func (inv *Inventory) leave() error {
	wait := inv.unlock()
	inv.flushChanges()
	return awaitDurable(wait)
}

func (inv *Inventory) spanLocked(name string, begin time.Duration, arg string) {
	if col := inv.opts.Collector; col != nil {
		col.Span(obs.Span{Name: name, Cat: "inventory", Start: begin, Dur: obs.Now() - begin, Arg: arg})
	}
}

// ---- journaled transitions (inv.mu held, between enter and leave) ----

// reserveLocked runs the hold transition and journals its outcome; nil
// means the window was refused. The arguments are holdLocked's.
func (inv *Inventory) reserveLocked(id string, w *core.Window, ttl time.Duration, expires time.Time, parts int, begin time.Duration) *Reservation {
	id, expires, ok := inv.holdLocked(id, w, ttl, expires, parts)
	inv.recordLocked(Event{Op: OpReserve, ID: id, Window: w, OK: ok, Expires: expires, Parts: parts})
	if !ok {
		inv.spanLocked("inventory.Reserve", begin, "conflict")
		return nil
	}
	inv.spanLocked("inventory.Reserve", begin, id)
	return &Reservation{ID: id, Window: w, Version: inv.pub.Load().view.Version, Expires: expires}
}

// settleLocked runs the commit or release transition on a hold and
// journals its outcome; it returns the hold's window, nil when id is not a
// live hold.
func (inv *Inventory) settleLocked(op Op, id string, begin time.Duration) *core.Window {
	var w *core.Window
	name := "inventory.Commit"
	if op == OpCommit {
		w = inv.commitLocked(id)
	} else {
		name = "inventory.Release"
		w = inv.releaseLocked(id, &inv.counters.Releases)
	}
	inv.recordLocked(Event{Op: op, ID: id, OK: w != nil})
	if w != nil {
		inv.spanLocked(name, begin, id)
	}
	return w
}

// sweepLocked expires lapsed holds in deterministic (sorted-ID) order,
// journaling and republishing each expiry individually. One publication
// per OpExpire event keeps the snapshot version an exact function of the
// journal — replaying N events always lands on the same version the live
// run had after its Nth event, so a recovered pool answers with the
// snapshot_version clients saw before the restart.
func (inv *Inventory) sweepLocked() int {
	now := inv.opts.Clock()
	var expired []string
	for id, h := range inv.holds {
		if !h.expires.After(now) {
			expired = append(expired, id)
		}
	}
	sort.Strings(expired)
	for _, id := range expired {
		inv.releaseLocked(id, &inv.counters.Expiries)
		inv.recordLocked(Event{Op: OpExpire, ID: id, OK: true})
	}
	return len(expired)
}

// ---- transitions (inv.mu held) ----
//
// The functions below are the lifecycle's state machine and the only
// writers of holds, committed, alloc, base and counters (resetLocked loads
// a whole State instead of moving through it). Live mutations, the
// router's multi-shard operations and journal replay (apply) all run these
// same functions, so the three cannot drift apart. Each publishes the
// snapshot it changed; none journals.

// admitsLocked is the reserve transition's guard: the ID is unused ("" =
// to be minted) and the window's used intervals (usedOf) fit the current
// state.
func (inv *Inventory) admitsLocked(id string, used map[int][]slots.Interval) bool {
	return inv.holds[id] == nil && inv.committed[id] == nil && inv.fitsLocked(used)
}

// holdLocked is the reserve transition: place a hold on w if admitsLocked.
// An empty id mints the next local one (mintLocked); a given ID (the
// router's, a replayed event's) of the current epoch advances the mint past
// it, so later local IDs cannot collide. A zero expires means ttl from now
// (ttl<=0: Options.DefaultTTL). parts is Event.Parts.
func (inv *Inventory) holdLocked(id string, w *core.Window, ttl time.Duration, expires time.Time, parts int) (string, time.Time, bool) {
	used := usedOf(w) // built once: the guard, the allocation and the publication all read it
	if !inv.admitsLocked(id, used) {
		inv.counters.Conflicts++
		return "", time.Time{}, false
	}
	if id == "" {
		id = inv.mintLocked()
	} else if n, epoch, ok := parseID(id); ok && epoch == inv.epoch && n > inv.nextID {
		inv.nextID = n
	}
	if expires.IsZero() {
		if ttl <= 0 {
			ttl = inv.opts.DefaultTTL
		}
		expires = inv.opts.Clock().Add(ttl)
	}
	inv.holds[id] = &hold{window: w, expires: expires, parts: parts}
	inv.allocateLocked(used)
	inv.counters.Reserves++
	inv.publishLocked(used)
	return id, expires, true
}

// mintLocked returns the next ID of the current epoch, passing over any
// that a hold or a commit already carries: an ID names one reservation,
// whatever a mint advance missed.
func (inv *Inventory) mintLocked() string {
	for {
		inv.nextID++
		if id := reservationID(inv.nextID, inv.epoch); inv.holds[id] == nil && inv.committed[id] == nil {
			return id
		}
	}
}

// startEpochLocked is the boot transition: the epoch starts and its ID
// counter with it.
func (inv *Inventory) startEpochLocked(epoch uint64) {
	inv.epoch, inv.nextID = epoch, 0
}

// reservationID spells the n'th ID minted in an epoch: r%08d in epoch 0 (a
// pool with no durable sink, or a log written before epochs existed), and
// r%08d.<epoch> after, which stays within 16 bytes up to epoch 999 999.
func reservationID(n, epoch uint64) string {
	var buf [32]byte
	b := append(buf[:0], 'r')
	for d := uint64(10_000_000); d > 1 && n < d; d /= 10 {
		b = append(b, '0')
	}
	b = strconv.AppendUint(b, n, 10)
	if epoch > 0 {
		b = strconv.AppendUint(append(b, '.'), epoch, 10)
	}
	return string(b)
}

// parseID reads an ID in reservationID's spelling back into its counter
// and epoch; ok is false for any other spelling, which no mint produces.
func parseID(id string) (n, epoch uint64, ok bool) {
	rest, isID := strings.CutPrefix(id, "r")
	digits, suffix, dotted := strings.Cut(rest, ".")
	if !isID || len(digits) < 8 {
		return 0, 0, false
	}
	n, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, 0, false
	}
	if dotted {
		if epoch, err = strconv.ParseUint(suffix, 10, 64); err != nil || epoch == 0 {
			return 0, 0, false
		}
	}
	return n, epoch, true
}

// commitLocked is the commit transition: the hold becomes a permanent
// allocation (nothing is republished — the spans were already taken).
func (inv *Inventory) commitLocked(id string) *core.Window {
	h := inv.holds[id]
	if h == nil {
		return nil
	}
	delete(inv.holds, id)
	inv.committed[id] = h.window
	inv.counters.Commits++
	return h.window
}

// dropLocked is the drop-hold transition behind release, expiry and
// cancel-on-withdraw: the hold and its allocation spans go, *count (the
// lifecycle counter of the reason) advances, and the intervals it used are
// returned by node for the caller's publication. nil when id is not a live
// hold.
func (inv *Inventory) dropLocked(id string, count *uint64) (*core.Window, map[int][]slots.Interval) {
	h := inv.holds[id]
	if h == nil {
		return nil, nil
	}
	used := h.window.UsedIntervals()
	for nid, ivs := range used {
		inv.alloc[nid] = removeIntervals(inv.alloc[nid], ivs)
		if len(inv.alloc[nid]) == 0 {
			delete(inv.alloc, nid)
		}
	}
	delete(inv.holds, id)
	*count++
	return h.window, used
}

// releaseLocked drops one hold and publishes its spans back to the pool.
func (inv *Inventory) releaseLocked(id string, count *uint64) *core.Window {
	w, used := inv.dropLocked(id, count)
	if w != nil {
		inv.publishLocked(used)
	}
	return w
}

// addLocked is the add-capacity transition: validate and merge a slot
// list into the base capacity.
func (inv *Inventory) addLocked(list slots.List) error {
	if err := list.Validate(); err != nil {
		return err
	}
	byNode := make(map[int][]slots.Interval)
	for _, s := range list {
		if inv.nodes[s.Node.ID] == nil {
			inv.nodes[s.Node.ID] = s.Node
		}
		byNode[s.Node.ID] = append(byNode[s.Node.ID], s.Interval)
	}
	for nid, ivs := range byNode {
		inv.base[nid] = slots.MergeIntervals(append(append([]slots.Interval(nil), inv.base[nid]...), ivs...))
	}
	inv.counters.Adds++
	inv.publishLocked(byNode)
	return nil
}

// withdrawLocked is the withdraw transition: remove the node and cancel
// every hold that uses it, in one publication (the withdrawn node plus
// every node a cancelled hold spanned — their allocation spans return to
// the pool too). It reports the cancelled IDs and whether the node was
// known.
func (inv *Inventory) withdrawLocked(nodeID int) (cancelled []string, known bool) {
	if _, known = inv.base[nodeID]; !known {
		return nil, false
	}
	delete(inv.base, nodeID)
	for id, h := range inv.holds {
		for _, p := range h.window.Placements {
			if p.Node().ID == nodeID {
				cancelled = append(cancelled, id)
				break
			}
		}
	}
	sort.Strings(cancelled)
	dirty := map[int][]slots.Interval{nodeID: nil} // no base left: the whole node goes
	for _, id := range cancelled {
		_, used := inv.dropLocked(id, &inv.counters.Cancelled)
		for nid, ivs := range used {
			dirty[nid] = append(dirty[nid], ivs...)
		}
	}
	inv.counters.Withdrawals++
	inv.publishLocked(dirty)
	return cancelled, true
}

// fitsLocked is the conflict check: every placement span must lie inside
// the node's base capacity and overlap no live allocation — and the
// window's own spans must not overlap each other. Intervals are half-open,
// so a span ending exactly where another starts does not conflict. A nil
// or empty window uses nothing and fits nothing.
func (inv *Inventory) fitsLocked(used map[int][]slots.Interval) bool {
	if len(used) == 0 {
		return false
	}
	for nid, ivs := range used {
		for i, iv := range ivs {
			if iv.Length() <= 0 {
				return false
			}
			if !containedInAny(inv.base[nid], iv) {
				return false
			}
			if overlapsAny(inv.alloc[nid], iv) {
				return false
			}
			for _, other := range ivs[:i] {
				if iv.Overlaps(other) {
					return false
				}
			}
		}
	}
	return true
}

// allocateLocked adds a window's used intervals to the live allocations
// (holdLocked and the State load in resetLocked).
func (inv *Inventory) allocateLocked(used map[int][]slots.Interval) {
	for nid, ivs := range used {
		inv.alloc[nid] = insertIntervals(inv.alloc[nid], ivs)
	}
}

// ---- interval helpers ----

func containedInAny(spans []slots.Interval, iv slots.Interval) bool {
	for _, s := range spans {
		if s.Contains(iv) {
			return true
		}
	}
	return false
}

func overlapsAny(spans []slots.Interval, iv slots.Interval) bool {
	for _, s := range spans {
		if s.Overlaps(iv) {
			return true
		}
	}
	return false
}

// insertIntervals adds spans to the sorted allocation list, coalescing
// touching and overlapping neighbours — a window placed flush against an
// existing allocation becomes one span, never an adjacent pair whose
// seam a later exact-value delete could miss. Allocation spans are
// pairwise disjoint by the fitsLocked invariant (so overlap only arises
// at touching boundaries), and the result stays sorted, disjoint,
// non-touching and positive-length — the canonical form removeIntervals
// relies on.
func insertIntervals(spans []slots.Interval, add []slots.Interval) []slots.Interval {
	spans = append(spans, add...)
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	out := spans[:0]
	for _, s := range spans {
		if s.Length() <= 0 {
			continue
		}
		if n := len(out); n > 0 && s.Start <= out[n-1].End {
			if s.End > out[n-1].End {
				out[n-1].End = s.End
			}
			continue
		}
		out = append(out, s)
	}
	return out
}

// removeIntervals subtracts spans from the sorted allocation list by
// geometric subtraction, not exact-value match: with coalescing inserts
// a hold's spans may live inside a larger merged span, and subtraction
// returns exactly the uncovered remainder. No arithmetic is performed on
// the endpoints (pieces reuse the original float64 values), so release
// and expiry remain exact inverses of reserve.
func removeIntervals(spans []slots.Interval, del []slots.Interval) []slots.Interval {
	for _, d := range del {
		if d.Length() <= 0 {
			continue
		}
		// The overlapped spans form one contiguous run [a, b) (sorted +
		// disjoint), with at most a left remainder off its first span and a
		// right remainder off its last. Splice the run in place.
		a := firstEndingAfter(spans, d.Start)
		b := a
		for b < len(spans) && spans[b].Start < d.End {
			b++
		}
		if a == b {
			continue // nothing overlaps (touching is not overlap)
		}
		var pieces [2]slots.Interval
		p := 0
		if spans[a].Start < d.Start {
			pieces[p] = slots.Interval{Start: spans[a].Start, End: d.Start}
			p++
		}
		if d.End < spans[b-1].End {
			pieces[p] = slots.Interval{Start: d.End, End: spans[b-1].End}
			p++
		}
		if grow := p - (b - a); grow > 0 { // a hole cut strictly inside one span
			spans = append(spans, slots.Interval{})
			copy(spans[b+grow:], spans[b:]) // overlapping copy is memmove-safe
		} else if grow < 0 {
			copy(spans[a+p:], spans[b:])
			spans = spans[:len(spans)+grow]
		}
		copy(spans[a:a+p], pieces[:p])
	}
	return spans
}
