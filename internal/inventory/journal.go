package inventory

import (
	"fmt"
	"time"

	"slotsel/internal/core"
	"slotsel/internal/slots"
)

// Op identifies a journaled inventory mutation.
type Op int

// The journaled operations.
const (
	// OpAdd publishes capacity (including the initial list at New).
	OpAdd Op = iota + 1
	// OpReserve attempts a hold; OK records accept vs conflict.
	OpReserve
	// OpCommit settles a hold permanently; OK false = unknown/expired ID.
	OpCommit
	// OpRelease cancels a hold; OK false = unknown/expired ID.
	OpRelease
	// OpExpire sweeps one lapsed hold (recorded per hold, in sorted order).
	OpExpire
	// OpWithdraw removes a node's capacity; OK false = unknown node.
	OpWithdraw
	// OpBoot starts the epoch Epoch: a durable boot journals one before the
	// pool serves, and the reservation IDs minted after it name the epoch.
	OpBoot
)

// String implements fmt.Stringer.
func (op Op) String() string {
	switch op {
	case OpAdd:
		return "add"
	case OpReserve:
		return "reserve"
	case OpCommit:
		return "commit"
	case OpRelease:
		return "release"
	case OpExpire:
		return "expire"
	case OpWithdraw:
		return "withdraw"
	case OpBoot:
		return "boot"
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// Event is one serialized mutation with its outcome. The journal order is
// exactly the mutex-serialization order of the live run, which is what
// makes sequential replay reproduce the concurrent run's final state.
type Event struct {
	// Seq is the 1-based serialization index.
	Seq uint64

	// Op is the mutation kind.
	Op Op

	// ID is the reservation ID (reserve/commit/release/expire). Empty for
	// a rejected reserve: conflicts consume no ID.
	ID string

	// Node is the withdrawn node (OpWithdraw only).
	Node int

	// OK is the outcome: reserve accepted, commit/release found its hold,
	// withdraw found its node.
	OK bool

	// Window is the attempted window (OpReserve only). Immutable.
	Window *core.Window

	// Slots is the added capacity (OpAdd only; a private clone).
	Slots slots.List

	// Expires is the hold deadline of an accepted reserve (OpReserve with
	// OK=true only). Replay ignores it — replayed expiry is driven by
	// OpExpire events — but crash recovery restores holds with their
	// original wall-clock deadline from it, so a hold that was due to
	// lapse still lapses after a restart.
	Expires time.Time

	// Parts is the number of shards a cross-shard hold was placed on
	// (OpReserve of a router part only; 0 for a hold on one shard). A
	// recovery that finds fewer parts than this knows a crash lost one.
	Parts int

	// Epoch is the epoch an OpBoot starts.
	Epoch uint64
}

// AckWaits reports whether the acknowledgement of ev waits until ev is
// durable — the durability contract, stated once. A commit, an add, a
// withdraw and a boot record wait: a crash that forgot one would lose what
// the caller was told is permanent, or (a boot record) let the next boot
// mint the IDs this one hands out. Everything else acks before its fsync:
// a reserve, a release, an expiry and every refused operation (OK false).
//
// A crash keeps a prefix of each log: the writer fsyncs a store's queue in
// order, so the recovered state is the serialization order cut at some
// event no earlier than the last awaited one. A hold that is cut off is
// forgotten: its spans are free again, and its ID is never minted again,
// because the boot record the reboot journals starts a new epoch before
// anything is minted. A commit of it answers ErrUnknownReservation, as
// after an expiry. An undone release or expiry brings its hold back with
// its original Expires, to lapse at that deadline, and an undone refusal
// changed nothing but a counter. None of it can double-book: the recovered
// state is one the live pool passed through, and a commit sits after the
// hold it settles, so a recovered commit always has its hold.
func (ev Event) AckWaits() bool {
	switch ev.Op {
	case OpAdd, OpCommit, OpWithdraw, OpBoot:
		return ev.OK
	}
	return false
}

// JournalSink receives every journaled event, in serialization order — the
// seam a durable write-ahead log (internal/wal) plugs into so the journal
// streams to disk instead of accumulating in memory without bound.
//
// Append is called with the inventory mutex held, so calls arrive strictly
// ordered by Event.Seq; it must only enqueue (never block on I/O). The
// returned wait func is called by the inventory AFTER the mutex is
// released and must block until the event — and with it every earlier
// one — is durable, returning the I/O error if durability failed. A nil
// wait means "this ack need not wait": a sink may return one only for an
// event whose AckWaits is false, and a sink that can no longer make events
// durable returns a failing wait for every event instead.
type JournalSink interface {
	Append(ev Event) (wait func() error)
}

// recordLocked hands the event to the configured destinations: the
// in-memory journal (Options.Record) and/or the durable sink
// (Options.Sink). Either enables sequence numbering. A nil wait leaves the
// section's pending wait as it is, so an unawaited event recorded after an
// awaited one never hides it.
func (inv *Inventory) recordLocked(ev Event) {
	if !inv.opts.Record && inv.opts.Sink == nil {
		return
	}
	inv.seq++
	ev.Seq = inv.seq
	if inv.opts.Record {
		inv.journal = append(inv.journal, ev)
	}
	if inv.opts.Sink != nil {
		if wait := inv.opts.Sink.Append(ev); wait != nil {
			inv.wait = wait
		}
	}
}

// takeWaitLocked returns and clears the pending durability wait of the
// current critical section. Sink appends are written and fsynced in order,
// so the wait of the last awaited event recorded under one lock
// acquisition covers every earlier event of the same section.
func (inv *Inventory) takeWaitLocked() func() error {
	w := inv.wait
	inv.wait = nil
	return w
}

// awaitDurable blocks until the critical section's journal writes are
// durable. Must be called after the inventory mutex is released: group
// commit batches concurrent appends into one fsync, and a waiter holding
// the mutex would serialize that batch away.
func awaitDurable(wait func() error) error {
	if wait == nil {
		return nil
	}
	if err := wait(); err != nil {
		return fmt.Errorf("%w: %w", ErrNotDurable, err)
	}
	return nil
}

// Journal returns a copy of the recorded events (empty unless
// Options.Record is set).
func (inv *Inventory) Journal() []Event {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	return append([]Event(nil), inv.journal...)
}

// Replay applies a recorded journal sequentially to a fresh inventory and
// verifies that every operation reproduces its recorded outcome. It returns
// the rebuilt inventory, whose final state must equal the live run's — the
// determinism property of the conflict-resolution logic: outcomes depend
// only on the serialized operation sequence, never on timing, map order or
// goroutine interleaving.
//
// Expiry is replayed from the journal (OpExpire events), not from the
// clock: replayed holds never lapse on their own.
func Replay(events []Event, opts Options) (*Inventory, error) {
	opts.Record = false
	opts.Sink = nil
	opts.Collector = nil
	frozen := time.Unix(0, 0)
	opts.Clock = func() time.Time { return frozen }
	opts.DefaultTTL = time.Hour
	inv := newEmpty(opts)
	for _, ev := range events {
		if err := inv.ApplyEvent(ev); err != nil {
			return nil, err
		}
	}
	return inv, nil
}

// ApplyEvent re-executes one journaled operation against the inventory and
// verifies that it reproduces the recorded outcome — the replay primitive
// shared by the in-memory determinism proof (Replay) and WAL crash
// recovery. Events must be applied in journal order; the inventory's
// sequence counter follows the applied events, so journaling resumes
// seamlessly after recovery.
//
// An accepted reserve restores its hold with the recorded Expires deadline
// (so recovered holds still lapse on schedule under a real clock); events
// without one — journals recorded before the field existed — fall back to
// the default TTL from the applying inventory's clock.
func (inv *Inventory) ApplyEvent(ev Event) error {
	err := inv.apply(ev)
	inv.flushChanges() // applied events notify watchers like live mutations
	if err != nil {
		return fmt.Errorf("inventory: replay diverged at seq %d (%s): %w", ev.Seq, ev.Op, err)
	}
	return nil
}

// apply re-executes one journaled operation: predict the outcome its
// transition will have on the current state, refuse the event if that is
// not the recorded one (before anything changed), then run the very
// transition the live path ran.
func (inv *Inventory) apply(ev Event) error {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	var ok bool
	switch ev.Op {
	case OpAdd:
		ok = true
	case OpReserve:
		ok = inv.admitsLocked(ev.ID, usedOf(ev.Window))
	case OpCommit, OpRelease, OpExpire:
		ok = inv.holds[ev.ID] != nil
	case OpWithdraw:
		_, ok = inv.base[ev.Node]
	case OpBoot:
		ok = ev.Epoch > inv.epoch // an epoch is never started twice
	default:
		return fmt.Errorf("unknown op %v", ev.Op)
	}
	if ok != ev.OK {
		return fmt.Errorf("outcome ok=%v, recorded %v", ok, ev.OK)
	}
	if ev.Op == OpReserve && ok && ev.ID == "" {
		return fmt.Errorf("accepted reserve without an ID")
	}
	switch ev.Op {
	case OpAdd:
		if err := inv.addLocked(ev.Slots); err != nil {
			return err
		}
	case OpReserve:
		inv.holdLocked(ev.ID, ev.Window, 0, ev.Expires, ev.Parts)
	case OpCommit:
		inv.commitLocked(ev.ID)
	case OpRelease:
		inv.releaseLocked(ev.ID, &inv.counters.Releases)
	case OpExpire:
		inv.releaseLocked(ev.ID, &inv.counters.Expiries)
	case OpWithdraw:
		inv.withdrawLocked(ev.Node)
	case OpBoot:
		inv.startEpochLocked(ev.Epoch)
	}
	if ev.Seq > inv.seq {
		inv.seq = ev.Seq
	}
	return nil
}
