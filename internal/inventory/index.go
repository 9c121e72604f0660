package inventory

import (
	"math"
	"sync"

	"slotsel/internal/core"
	"slotsel/internal/slots"
)

// This file is the event-driven half of the inventory: instead of
// rebuilding the whole free list on every mutation (freeLocked — retained
// as the differential oracle), the inventory maintains a persistent
// per-node index of free slots and re-cuts only the nodes a mutation
// touched. Each publication also records a conservative time-range
// invalidation — the contract consumed by the Find cache and the
// /v1/watch subscription hub: "free capacity overlapping [Lo, Hi) may
// have changed at version V; everything outside is bit-identical to the
// previous snapshot."
//
// The invalidation range of a publication is derived from the actual
// per-node free-list diff, not from the mutating window: a reservation
// can reshape a slot far beyond its own span (splitting [0,100) into
// [0,60)+[70,100) moves a slot *start*, which moves an AEP scan visit),
// so the range is the union of every span that differs between the old
// and new free lists of the touched nodes. That makes the range a sound
// over-approximation: any search whose horizon is disjoint from every
// invalidation since its snapshot version would see a byte-identical
// candidate stream and must return the same window.

// Change describes one published mutation: the snapshot version it
// produced and the conservative time range within which free capacity
// changed. An empty range (Lo > Hi) means the publication changed no
// free capacity (e.g. an Add that merged into existing spans) — the
// version still advances. A full-range change (±Inf) marks a rebuild
// with no diff available (Restore, follower resync).
type Change struct {
	// Version is the snapshot version this change produced.
	Version uint64
	// Lo and Hi bound the changed time range, half-open like all spans.
	Lo, Hi float64
}

// Overlaps reports whether the changed range intersects [lo, hi) with
// positive length — the half-open convention shared with slots.Interval.
func (c Change) Overlaps(lo, hi float64) bool {
	return c.Lo < hi && lo < c.Hi
}

// maxInvalRetained bounds the invalidation ring. Versions older than the
// ring are answered conservatively (invalidated), so the bound trades
// cache hit rate for memory, never correctness. 1024 publications of
// headroom is far beyond any realistic cache-entry staleness.
const maxInvalRetained = 1024

// invalRing is the version-indexed history of published changes. Versions
// are consecutive (every publication appends exactly one entry), so entry
// i covers version base+i.
type invalRing struct {
	mu      sync.RWMutex
	base    uint64 // version of entries[0]; 0 = ring empty
	entries []Change
}

func (r *invalRing) append(c Change) {
	r.mu.Lock()
	if r.base == 0 || c.Version != r.base+uint64(len(r.entries)) {
		// First entry, or a version discontinuity (Restore/ResetTo set the
		// version directly): restart the ring at this version.
		r.base = c.Version
		r.entries = append(r.entries[:0], c)
	} else {
		r.entries = append(r.entries, c)
		if len(r.entries) > maxInvalRetained {
			drop := len(r.entries) - maxInvalRetained
			r.base += uint64(drop)
			r.entries = append(r.entries[:0], r.entries[drop:]...)
		}
	}
	r.mu.Unlock()
}

// invalidatedSince reports whether free capacity overlapping [lo, hi)
// may have changed in versions (since, now]. Unknown history — a version
// that predates the ring, or a version range the ring has not seen —
// answers true: the ring is an optimization, never an oracle of safety.
func (r *invalRing) invalidatedSince(since, now uint64, lo, hi float64) bool {
	if now == since {
		return false
	}
	if now < since {
		return true // version moved backwards (reset): assume everything changed
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.base == 0 || since+1 < r.base {
		return true // history evicted or never recorded
	}
	last := r.base + uint64(len(r.entries)) - 1
	if now > last {
		return true // ring has not seen `now` (foreign snapshot): be conservative
	}
	for v := since + 1; v <= now; v++ {
		if r.entries[v-r.base].Overlaps(lo, hi) {
			return true
		}
	}
	return false
}

// InvalidatedSince reports whether free capacity overlapping [lo, hi) may
// have changed between snapshot versions `since` and `now` (exclusive of
// since, inclusive of now). Conservative: unknown history answers true.
func (inv *Inventory) InvalidatedSince(since, now uint64, lo, hi float64) bool {
	return inv.inval.invalidatedSince(since, now, lo, hi)
}

// AddChangeListener registers fn to be called after every publication
// with that publication's Change. Listeners run outside the inventory
// mutex, in publication order, on the goroutine that performed (or
// flushed) the mutation — they must not block.
func (inv *Inventory) AddChangeListener(fn func(Change)) {
	inv.mu.Lock()
	inv.listeners = append(inv.listeners, fn)
	inv.mu.Unlock()
}

// flushChanges delivers the pending Change notifications accumulated by
// publications since the last flush. Called by every mutating method
// after releasing the mutex; a concurrent mutator may flush another's
// changes first, which preserves order (pending is append-ordered and
// drained whole).
func (inv *Inventory) flushChanges() {
	inv.mu.Lock()
	changes := inv.pending
	inv.pending = nil
	listeners := inv.listeners
	inv.mu.Unlock()
	if len(changes) == 0 || len(listeners) == 0 {
		return
	}
	for _, c := range changes {
		for _, fn := range listeners {
			fn(c)
		}
	}
}

// cutNodeLocked recomputes one node's free slot list: base spans minus
// live allocations, fragments under MinSlotLength suppressed — the same
// slot calculus freeLocked applies globally, restricted to one node.
func (inv *Inventory) cutNodeLocked(nid int) slots.List {
	base := inv.base[nid]
	if len(base) == 0 {
		return nil
	}
	n := inv.nodes[nid]
	l := make(slots.List, 0, len(base))
	for _, iv := range base {
		l = append(l, &slots.Slot{Node: n, Interval: iv})
	}
	return slots.Cut(l, inv.alloc, inv.opts.MinSlotLength)
}

// diffRange bounds the time range where two sorted same-node free lists
// differ. Equal intervals are trimmed from both ends; the union of what
// remains on either side is the changed range. Sound because both lists
// are sorted and pairwise disjoint: every interval present in one but
// not the other lies in the untrimmed middle.
func diffRange(old, cur slots.List) (lo, hi float64, changed bool) {
	i := 0
	for i < len(old) && i < len(cur) && old[i].Interval == cur[i].Interval {
		i++
	}
	jo, jc := len(old), len(cur)
	for jo > i && jc > i && old[jo-1].Interval == cur[jc-1].Interval {
		jo, jc = jo-1, jc-1
	}
	if i >= jo && i >= jc {
		return 0, 0, false
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, s := range old[i:jo] {
		lo, hi = math.Min(lo, s.Start), math.Max(hi, s.End)
	}
	for _, s := range cur[i:jc] {
		lo, hi = math.Min(lo, s.Start), math.Max(hi, s.End)
	}
	return lo, hi, true
}

// slotBefore is the (start, nodeID, end) order SortByStart establishes —
// the global free list is always published in this order, whether built
// by freeLocked or spliced incrementally.
func slotBefore(a, b *slots.Slot) bool {
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	if a.Node.ID != b.Node.ID {
		return a.Node.ID < b.Node.ID
	}
	return a.End < b.End
}

// publishLocked publishes a fresh immutable snapshot with the next
// version and records the publication's invalidation range.
//
// touched lists the node IDs whose allocations or base capacity the
// mutation may have altered (duplicates fine); only those nodes are
// re-cut, and the new global list is spliced from the previous
// snapshot's untouched slots (shared, immutable) plus the re-cut ones —
// O(touched·cut + |slots|) with no global sort. (A whole-pool rebuild is
// resetLocked's job, not a publication.)
func (inv *Inventory) publishLocked(touched []int) {
	prev := inv.snap.Load()
	version := prev.Version + 1
	lo, hi := math.Inf(1), math.Inf(-1) // empty range until a diff lands
	touchedSet := make(map[int]bool, len(touched))
	var fresh slots.List
	for _, nid := range touched {
		if touchedSet[nid] {
			continue
		}
		touchedSet[nid] = true
		old := inv.free[nid]
		cur := inv.cutNodeLocked(nid)
		if dlo, dhi, changed := diffRange(old, cur); changed {
			lo, hi = math.Min(lo, dlo), math.Max(hi, dhi)
		}
		if len(cur) == 0 {
			delete(inv.free, nid)
		} else {
			inv.free[nid] = cur
		}
		fresh = append(fresh, cur...)
	}
	fresh.SortByStart()
	c := Change{Version: version, Lo: lo, Hi: hi}
	inv.inval.append(c)
	inv.snap.Store(&Snapshot{Version: version, Slots: spliceSlots(prev.Slots, touchedSet, fresh)})
	inv.pending = append(inv.pending, c)
}

// rebuildAllLocked recomputes every node's free list into the index and
// returns the assembled global list — identical, by construction, to
// freeLocked() (same per-node slot calculus, same final order).
func (inv *Inventory) rebuildAllLocked() slots.List {
	var total int
	for nid := range inv.base {
		cur := inv.cutNodeLocked(nid)
		if len(cur) == 0 {
			continue
		}
		inv.free[nid] = cur
		total += len(cur)
	}
	list := make(slots.List, 0, total)
	for _, cur := range inv.free {
		list = append(list, cur...)
	}
	list.SortByStart()
	return list
}

// spliceSlots merges the previous global free list (minus slots of
// touched nodes) with the freshly re-cut slots of those nodes, keeping
// the (start, nodeID, end) publication order. Untouched *Slot pointers
// are reused: the immutability contract makes sharing across snapshots
// free.
func spliceSlots(prev slots.List, touched map[int]bool, fresh slots.List) slots.List {
	out := make(slots.List, 0, len(prev)+len(fresh))
	fi := 0
	for _, s := range prev {
		if touched[s.Node.ID] {
			continue
		}
		for fi < len(fresh) && slotBefore(fresh[fi], s) {
			out = append(out, fresh[fi])
			fi++
		}
		out = append(out, s)
	}
	out = append(out, fresh[fi:]...)
	return out
}

// windowNodes lists the node IDs a window places work on — the touched
// set of a reserve/release/expiry publication.
func windowNodes(w *core.Window) []int {
	used := w.UsedIntervals()
	ids := make([]int, 0, len(used))
	for nid := range used {
		ids = append(ids, nid)
	}
	return ids
}
