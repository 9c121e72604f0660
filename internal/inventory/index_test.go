package inventory

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"slotsel/internal/core"
	"slotsel/internal/job"
	"slotsel/internal/randx"
	"slotsel/internal/slots"
	"slotsel/internal/testkit"
)

// oracleSignature renders the stateless full rebuild of the free list —
// the differential oracle the incremental index is checked against.
func (inv *Inventory) oracleSignature() string {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	return freeSignature(inv.freeLocked())
}

// churnStep applies one random mutation to the inventory, mirroring the
// operation mix of the replay differential suite (plus an occasional
// explicit Sweep). held carries live hold IDs across steps.
func churnStep(t *testing.T, inv *Inventory, rng *randx.Rand, held []string) []string {
	t.Helper()
	switch k := rng.Intn(14); {
	case k < 6: // reserve (sometimes with an instantly lapsing TTL)
		req := &job.Request{
			TaskCount: rng.IntRange(1, 3),
			Volume:    float64(rng.IntRange(20, 80)),
			MaxCost:   5000,
		}
		ttl := time.Minute
		if rng.Intn(4) == 0 {
			ttl = time.Nanosecond
		}
		if res, err := inv.Reserve(req, core.AMP{}, ttl); err == nil && ttl == time.Minute {
			held = append(held, res.ID)
		}
	case k < 8: // commit
		if len(held) > 0 {
			i := rng.Intn(len(held))
			inv.Commit(held[i])
			held = append(held[:i], held[i+1:]...)
		}
	case k < 10: // release
		if len(held) > 0 {
			i := rng.Intn(len(held))
			inv.Release(held[i])
			held = append(held[:i], held[i+1:]...)
		}
	case k == 10: // add fresh capacity (new node or more spans on node 0)
		id := 1000 + rng.Intn(50)
		if rng.Intn(2) == 0 {
			id = 0
		}
		n := testkit.Node(id, float64(rng.IntRange(2, 10)), 1)
		start := rng.FloatRange(0, 200)
		inv.Add(testkit.SlotList(testkit.Slot(n, start, start+rng.FloatRange(20, 100))))
	case k == 11: // withdraw
		if _, err := inv.Withdraw(rng.Intn(12)); err != nil && !errors.Is(err, ErrUnknownNode) {
			t.Fatalf("withdraw: %v", err)
		}
	default:
		inv.Sweep()
	}
	return held
}

// TestIncrementalFreeMatchesOracle is the acceptance suite for the
// persistent free index: across 64 seeds of interleaved churn, the
// incrementally spliced snapshot published after EVERY mutation must be
// value- and order-identical to the stateless full rebuild (freeLocked),
// including the per-node index it was assembled from.
func TestIncrementalFreeMatchesOracle(t *testing.T) {
	const seeds = 64
	for seed := uint64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := randx.New(seed)
			list := testkit.RandomList(rng, 12, 3, 300)
			if len(list) == 0 {
				t.Skip("empty instance")
			}
			inv, err := New(list, Options{MinSlotLength: 1})
			if err != nil {
				t.Fatal(err)
			}
			var held []string
			for op := 0; op < 120; op++ {
				held = churnStep(t, inv, rng, held)
				got := freeSignature(inv.Snapshot().Slots)
				want := inv.oracleSignature()
				if got != want {
					t.Fatalf("op %d: incremental snapshot diverged from oracle\nincremental: %s\noracle:      %s", op, got, want)
				}
				inv.mu.Lock()
				for nid, free := range inv.free {
					if len(free) == 0 {
						t.Errorf("op %d: node %d holds an empty index entry", op, nid)
					}
				}
				inv.mu.Unlock()
			}
		})
	}
}

// TestIncrementalFreeMatchesOracleShortSpans is the same differential with
// MinSlotLength above the length of some base spans. slots.Cut suppresses
// only the remainders of a cut, so a short base span no allocation overlaps
// is published whole — by New, by Add (onto a fresh node, or merging into
// an existing span) and by Restore alike.
func TestIncrementalFreeMatchesOracleShortSpans(t *testing.T) {
	check := func(t *testing.T, what string, inv *Inventory) {
		t.Helper()
		if got, want := freeSignature(inv.Snapshot().Slots), inv.oracleSignature(); got != want {
			t.Fatalf("%s: published snapshot diverged from oracle\npublished: %s\noracle:    %s", what, got, want)
		}
	}
	for seed := uint64(1); seed <= 48; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := randx.New(seed)
			minLen := []float64{3, 7, 30}[seed%3]
			short := func(id int, from float64) *slots.Slot {
				start := from + rng.FloatRange(0, 200)
				return testkit.Slot(testkit.Node(id, float64(rng.IntRange(2, 10)), 1), start, start+rng.FloatRange(0.2, minLen))
			}
			list := testkit.RandomList(rng, 12, 3, 300)
			for i := 0; i < 4; i++ {
				list = append(list, short(100+i, 0))
			}
			list.SortByStart()
			inv, err := New(list, Options{MinSlotLength: minLen})
			if err != nil {
				t.Fatal(err)
			}
			check(t, "New", inv)
			var held []string
			for op := 0; op < 120; op++ {
				if rng.Intn(4) == 0 {
					id := rng.Intn(12) // lands in, next to or between the node's spans
					if rng.Intn(2) == 0 {
						id = 1000 + rng.Intn(50)
					}
					inv.Add(testkit.SlotList(short(id, 0)))
				} else {
					held = churnStep(t, inv, rng, held)
				}
				check(t, fmt.Sprintf("op %d", op), inv)
			}
			re, err := Restore(inv.ExportState(), Options{MinSlotLength: minLen})
			if err != nil {
				t.Fatal(err)
			}
			check(t, "Restore", re)
			if got, want := freeSignature(re.Snapshot().Slots), freeSignature(inv.Snapshot().Slots); got != want {
				t.Fatalf("restored free list differs\nrestored: %s\noriginal: %s", got, want)
			}
		})
	}
}

// TestChangeRangesSound checks the invalidation contract: every slot of
// the previous snapshot lying entirely outside a publication's change
// range must reappear identically in the new snapshot, and vice versa —
// outside [Lo, Hi) the two snapshots are the same free pool.
func TestChangeRangesSound(t *testing.T) {
	outside := func(l slots.List, lo, hi float64) string {
		var keep slots.List
		for _, s := range l {
			if s.End <= lo || s.Start >= hi {
				keep = append(keep, s)
			}
		}
		return freeSignature(keep)
	}
	for seed := uint64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := randx.New(seed)
			list := testkit.RandomList(rng, 10, 3, 300)
			if len(list) == 0 {
				t.Skip("empty instance")
			}
			inv, err := New(list, Options{MinSlotLength: 1})
			if err != nil {
				t.Fatal(err)
			}
			var mu struct {
				changes []Change
			}
			inv.AddChangeListener(func(c Change) { mu.changes = append(mu.changes, c) })
			prev := inv.Snapshot()
			var held []string
			for op := 0; op < 100; op++ {
				held = churnStep(t, inv, rng, held)
				cur := inv.Snapshot()
				// Replay the recorded changes from prev to cur, one
				// publication at a time. Single-threaded here, so the
				// listener order is exactly the publication order.
				for _, c := range mu.changes {
					if c.Version <= prev.Version || c.Version > cur.Version {
						t.Fatalf("op %d: change version %d outside (%d, %d]", op, c.Version, prev.Version, cur.Version)
					}
				}
				if got := outside(prev.Slots, loOf(mu.changes), hiOf(mu.changes)); got != outside(cur.Slots, loOf(mu.changes), hiOf(mu.changes)) {
					t.Fatalf("op %d: snapshots differ outside the declared change range [%g, %g)\nbefore: %s\nafter:  %s",
						op, loOf(mu.changes), hiOf(mu.changes),
						got, outside(cur.Slots, loOf(mu.changes), hiOf(mu.changes)))
				}
				// The ring must agree with the recorded changes: a horizon
				// disjoint from every change range is not invalidated.
				lo := loOf(mu.changes)
				if lo > math.Inf(-1) && inv.InvalidatedSince(prev.Version, cur.Version, lo-1e9, lo) && !anyOverlap(mu.changes, lo-1e9, lo) {
					t.Fatalf("op %d: ring invalidates [%g, %g) with no overlapping change", op, lo-1e9, lo)
				}
				mu.changes = mu.changes[:0]
				prev = cur
			}
		})
	}
}

func loOf(cs []Change) float64 {
	lo := math.Inf(1)
	for _, c := range cs {
		if c.Lo < lo {
			lo = c.Lo
		}
	}
	return lo
}

func hiOf(cs []Change) float64 {
	hi := math.Inf(-1)
	for _, c := range cs {
		if c.Hi > hi {
			hi = c.Hi
		}
	}
	return hi
}

func anyOverlap(cs []Change, lo, hi float64) bool {
	for _, c := range cs {
		if c.Overlaps(lo, hi) {
			return true
		}
	}
	return false
}

// TestInvalRingEviction: versions older than the ring's retention answer
// conservatively (invalidated), never falsely clean.
func TestInvalRingEviction(t *testing.T) {
	var r invalRing
	for v := uint64(1); v <= maxInvalRetained+50; v++ {
		r.append(Change{Version: v, Lo: 10, Hi: 20})
	}
	now := uint64(maxInvalRetained + 50)
	if !r.invalidatedSince(1, now, 100, 200) {
		t.Error("evicted history must answer invalidated even for a disjoint range")
	}
	if r.invalidatedSince(now-10, now, 100, 200) {
		t.Error("retained disjoint history must answer clean")
	}
	if !r.invalidatedSince(now-10, now, 15, 16) {
		t.Error("retained overlapping history must answer invalidated")
	}
	if r.invalidatedSince(now, now, 0, math.Inf(1)) {
		t.Error("same version is never invalidated")
	}
	if !r.invalidatedSince(now, now-1, 0, 1) {
		t.Error("a backwards version range must answer invalidated")
	}
}

// TestInvalRingWrapsInPlace: once full, the ring overwrites its oldest
// entry in place — indexed modulo its size, nothing shifted, nothing grown
// — and still answers every retained version exactly, the evicted ones
// conservatively, and restarts cleanly on a version discontinuity.
func TestInvalRingWrapsInPlace(t *testing.T) {
	var r invalRing
	const last = 3*maxInvalRetained + 7 // wraps three times, ends mid-buffer
	for v := uint64(1); v <= last; v++ {
		r.append(Change{Version: v, Lo: float64(v), Hi: float64(v) + 1}) // version v changed [v, v+1)
	}
	if len(r.ring.buf) != maxInvalRetained {
		t.Fatalf("the ring holds %d entries, want %d", len(r.ring.buf), maxInvalRetained)
	}
	oldest := uint64(last - maxInvalRetained + 1)
	for v := oldest; v <= last; v++ {
		if !r.invalidatedSince(v-1, v, float64(v), float64(v)+1) {
			t.Fatalf("version %d lost its own range", v)
		}
		if v > oldest && r.invalidatedSince(v-1, v, float64(v)+1, float64(v)+2) {
			t.Fatalf("version %d answers for its successor's range", v)
		}
	}
	if r.invalidatedSince(oldest, last, 0, float64(oldest)) {
		t.Error("the retained history is clean below its oldest range")
	}
	if !r.invalidatedSince(oldest-2, last, 0, 1) {
		t.Error("evicted history must answer invalidated")
	}
	if !r.invalidatedSince(last, last+1, 0, 1) {
		t.Error("a version the ring has not seen must answer invalidated")
	}
	r.append(Change{Version: last + 50, Lo: 1, Hi: 2}) // discontinuity: restart here
	if !r.invalidatedSince(last, last+50, 5, 6) || r.invalidatedSince(last+50, last+50, 1, 2) {
		t.Error("a restarted ring must forget what came before it")
	}
	r.append(Change{Version: last + 51, Lo: 3, Hi: 4})
	if r.invalidatedSince(last+50, last+51, 1, 2) || !r.invalidatedSince(last+50, last+51, 3, 4) {
		t.Error("a restarted ring must serve the versions appended after the restart")
	}
}

// freeLocked recomputes the free list from scratch: base minus
// allocations. Node iteration is sorted so the result is a deterministic
// function of base+alloc — the property the differential replay suite
// checks. The live path publishes through the incremental index
// (publishLocked, index.go); this full rebuild stays as the stateless
// differential oracle the index is checked against.
func (inv *Inventory) freeLocked() slots.List {
	ids := make([]int, 0, len(inv.base))
	for id := range inv.base {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var l slots.List
	for _, id := range ids {
		n := inv.nodes[id]
		for _, iv := range inv.base[id] {
			l = append(l, &slots.Slot{Node: n, Interval: iv})
		}
	}
	return slots.Cut(l, inv.alloc, inv.opts.MinSlotLength)
}
