package inventory

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"slotsel/internal/core"
	"slotsel/internal/slots"
)

// This file is the event-driven half of the inventory: instead of
// rebuilding the whole free list on every mutation (freeLocked — the tests'
// differential oracle), the inventory maintains a persistent
// per-node index of free slots, re-cuts only the nodes a mutation touched
// and publishes the difference as an edit of a persistent sequence
// (slots.Seq), so a mutation costs what it touched, not the pool. Each
// publication also records a conservative time-range
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
// with no diff available (Restore).
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

// versionRing retains the last maxInvalRetained values of a series with
// consecutive versions. The buffer grows by append until full and is then
// overwritten in place, indexed modulo its size — no entry ever moves.
type versionRing[T any] struct {
	start uint64 // version stored in buf[0] when the ring last (re)started
	base  uint64 // oldest retained version; 0 = ring empty
	buf   []T
}

// put records the value of version. A version that does not follow the last
// one (the first ever, or a discontinuity: Restore sets the version
// directly) restarts the ring there.
func (r *versionRing[T]) put(version uint64, v T) {
	switch {
	case r.base == 0 || version != r.end():
		r.start, r.base = version, version
		r.buf = append(r.buf[:0], v)
	case len(r.buf) < maxInvalRetained:
		r.buf = append(r.buf, v)
	default:
		r.buf[(version-r.start)%maxInvalRetained] = v
		r.base++
	}
}

// end is the version after the newest retained one.
func (r *versionRing[T]) end() uint64 { return r.base + uint64(len(r.buf)) }

// holds reports whether version is retained.
func (r *versionRing[T]) holds(version uint64) bool {
	return r.base != 0 && version >= r.base && version < r.end()
}

// at returns the value of a retained version.
func (r *versionRing[T]) at(version uint64) T {
	return r.buf[(version-r.start)%maxInvalRetained]
}

// invalRing is the version-indexed history of published changes: every
// publication appends exactly one entry.
type invalRing struct {
	mu   sync.RWMutex
	ring versionRing[Change]
}

func (r *invalRing) append(c Change) {
	r.mu.Lock()
	r.ring.put(c.Version, c)
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
	// Unknown history: evicted or never recorded (since+1), or a version
	// the ring has not seen (now: a foreign snapshot).
	if !r.ring.holds(since+1) || !r.ring.holds(now) {
		return true
	}
	for v := since + 1; v <= now; v++ {
		if r.ring.at(v).Overlaps(lo, hi) {
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

// cutLocked returns the free slots of some of a node's base spans: the
// spans minus the node's live allocations, fragments under MinSlotLength
// suppressed — slots.Cut, the slot calculus freeLocked applies globally,
// restricted to those spans.
func (inv *Inventory) cutLocked(nid int, spans []slots.Interval) slots.List {
	n := inv.nodes[nid]
	l := make(slots.List, len(spans))
	for i, iv := range spans {
		l[i] = &slots.Slot{Node: n, Interval: iv}
	}
	return slots.Cut(l, inv.alloc, inv.opts.MinSlotLength)
}

// firstEndingAfter indexes the first of the sorted, disjoint spans that
// ends after t — the first one an interval starting at t can overlap.
func firstEndingAfter(spans []slots.Interval, t float64) int {
	return sort.Search(len(spans), func(i int) bool { return spans[i].End > t })
}

// recutLocked re-cuts a run of consecutive base spans of a node and splices
// the result into the node's index in place. Equal intervals are trimmed
// from both ends and keep their *Slot; of what remains, the old slots are
// appended to del and the new ones to ins. Sound because old and new are
// sorted and pairwise disjoint: every interval present in one but not the
// other lies in the untrimmed middle.
func (inv *Inventory) recutLocked(nid int, spans []slots.Interval, del, ins *slots.List) {
	free := inv.free[nid]
	a := sort.Search(len(free), func(i int) bool { return free[i].Start >= spans[0].Start })
	b := a
	for b < len(free) && free[b].Start < spans[len(spans)-1].End {
		b++
	}
	old, cur := free[a:b], inv.cutLocked(nid, spans)
	for len(old) > 0 && len(cur) > 0 && old[0].Interval == cur[0].Interval {
		old, cur, a = old[1:], cur[1:], a+1
	}
	for len(old) > 0 && len(cur) > 0 && old[len(old)-1].Interval == cur[len(cur)-1].Interval {
		old, cur = old[:len(old)-1], cur[:len(cur)-1]
	}
	if len(old) == 0 && len(cur) == 0 {
		return
	}
	*del = append(*del, old...)
	*ins = append(*ins, cur...)
	inv.free[nid] = slices.Replace(free, a, a+len(old), cur...)
}

// published is one version of the free pool: the search view (the
// persistent sequence every mutation edits and every search walks), plus
// the flat Snapshot the Pool interface promises, built by the first
// Snapshot() call that observes this version, if any: a version only
// searches, bookings, releases and expiries read is never flattened.
type published struct {
	view Snapshot // Slots nil: Latest hands out its address

	once sync.Once
	snap *Snapshot
}

func (inv *Inventory) newPublished(version uint64, seq *slots.Seq) *published {
	return &published{view: Snapshot{Version: version, MinSlotLength: inv.opts.MinSlotLength, seq: seq}}
}

// snapshot returns the version with its flat list.
func (p *published) snapshot() *Snapshot {
	p.once.Do(func() {
		flat := p.view
		flat.Slots = p.view.seq.Flatten()
		p.snap = &flat
	})
	return p.snap
}

// publishLocked publishes the next version of the free pool and records
// the publication's invalidation range.
//
// dirty maps each node the mutation touched to the intervals where its
// allocations or base capacity may have changed (a hold's used intervals,
// the spans an Add brought). Only the base spans those intervals fall in
// are re-cut, and what changed there becomes one Edit of the previous
// sequence — O(touched) for the index plus O(touched·leaf + m/leaf) for the
// sequence, with no pass over the pool or even over a whole node. (A
// whole-pool rebuild is resetLocked's job, not a publication.)
func (inv *Inventory) publishLocked(dirty map[int][]slots.Interval) {
	prev := inv.pub.Load()
	var del, ins slots.List
	for nid, ivs := range dirty {
		base := inv.base[nid]
		if len(base) == 0 { // the node left the pool, and all its slots with it
			del = append(del, inv.free[nid]...)
			delete(inv.free, nid)
			continue
		}
		for _, iv := range ivs {
			k := firstEndingAfter(base, iv.Start)
			end := k
			for end < len(base) && base[end].Start < iv.End {
				end++
			}
			if k < end {
				inv.recutLocked(nid, base[k:end], &del, &ins)
			}
		}
		if len(inv.free[nid]) == 0 {
			delete(inv.free, nid)
		}
	}
	// The changed range is the union of every slot that went or came: empty
	// (lo > hi) when the mutation changed no free capacity.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, l := range []slots.List{del, ins} {
		for _, s := range l {
			lo, hi = math.Min(lo, s.Start), math.Max(hi, s.End)
		}
	}
	del.SortByStart()
	ins.SortByStart()
	seq, err := prev.view.seq.Edit(del, ins)
	if err != nil {
		// The per-node index and the sequence are written together, here
		// and in resetLocked; only a bug can make them disagree.
		panic(fmt.Sprintf("inventory: free index out of step with the published sequence: %v", err))
	}
	c := Change{Version: prev.view.Version + 1, Lo: lo, Hi: hi}
	inv.inval.append(c)
	inv.pub.Store(inv.newPublished(c.Version, seq))
	inv.pending = append(inv.pending, c)
}

// rebuildAllLocked recomputes every node's free list into the (empty)
// index and returns the assembled global list — identical, by
// construction, to the tests' freeLocked() (same slot calculus, same final
// order).
func (inv *Inventory) rebuildAllLocked() slots.List {
	n := 0
	for _, base := range inv.base {
		n += len(base)
	}
	list := make(slots.List, 0, n)
	for nid, base := range inv.base {
		if cur := inv.cutLocked(nid, base); len(cur) > 0 {
			inv.free[nid] = cur
			list = append(list, cur...)
		}
	}
	// The one sort of a reset: node groups come out of a map.
	slices.SortFunc(list, slots.Compare)
	return list
}

// usedOf is w.UsedIntervals() for a window that may be nil (which uses
// nothing, and so fits nothing).
func usedOf(w *core.Window) map[int][]slots.Interval {
	if w == nil {
		return nil
	}
	return w.UsedIntervals()
}
