// Package slots implements the slot calculus of the distributed environment:
// a slot is a contiguous span of free time on a single CPU node, published by
// the node's local resource manager for the current scheduling interval.
//
// The package provides slot construction from busy-interval timetables,
// the ordering by non-decreasing start time required by the AEP linear scan,
// and the "cutting" operation used by CSA to remove an allocated window from
// the slot list so that successive alternatives are disjoint.
package slots

import (
	"fmt"
	"slices"
	"sort"

	"slotsel/internal/nodes"
)

// Interval is a half-open time span [Start, End).
type Interval struct {
	Start, End float64
}

// Length returns End-Start.
func (iv Interval) Length() float64 { return iv.End - iv.Start }

// Contains reports whether the interval fully contains other.
func (iv Interval) Contains(other Interval) bool {
	return iv.Start <= other.Start && other.End <= iv.End
}

// Overlaps reports whether the two intervals share any positive-length span.
func (iv Interval) Overlaps(other Interval) bool {
	return iv.Start < other.End && other.Start < iv.End
}

// String implements fmt.Stringer.
func (iv Interval) String() string {
	return fmt.Sprintf("[%.2f,%.2f)", iv.Start, iv.End)
}

// Slot is a free availability window on one node. Slots associated with
// different resources may have arbitrary, non-matching start and finish
// points — that misalignment is exactly what the co-allocation algorithms
// must cope with.
type Slot struct {
	// Node is the resource offering the span. Never nil.
	Node *nodes.Node

	// Interval is the free span on the node.
	Interval
}

// String implements fmt.Stringer.
func (s *Slot) String() string {
	return fmt.Sprintf("slot{node=%d %s}", s.Node.ID, s.Interval)
}

// List is a collection of slots. The AEP algorithms require the list to be
// ordered by non-decreasing start time; SortByStart establishes and
// IsSortedByStart verifies that invariant.
//
// # Immutability contract
//
// Once a list is published to a search (core.Scan, any core.Algorithm,
// csa.Search, the batch scheduler), the list, the slots it points to and
// their nodes are immutable: no search mutates them, and callers must not
// either until every search over the list has returned. Everything in this
// package honors the contract — Cut and Subtract are persistent
// operations that build new slices and new slots, leaving their inputs
// (and any aliased snapshot of them) intact; Clone copies slot structs and
// shares the immutable nodes. The contract is what lets the concurrent
// engine (internal/parallel) share one list across any number of searching
// goroutines and treat old list values as free snapshots, with no
// defensive copying on the hot path.
//
// SortByStart is the one mutating method; it belongs to list
// construction, before publication.
type List []*Slot

// SortByStart orders the list by non-decreasing start time, breaking ties by
// node ID then by end time so that ordering is deterministic. A list
// already in that order costs one pass and is left as it is.
func (l List) SortByStart() {
	for i := 1; i < len(l); i++ {
		if Before(l[i], l[i-1]) {
			sort.Slice(l, func(i, j int) bool { return Before(l[i], l[j]) })
			return
		}
	}
}

// IsSortedByStart reports whether the list satisfies the AEP scan ordering.
func (l List) IsSortedByStart() bool {
	for i := 1; i < len(l); i++ {
		if l[i].Start < l[i-1].Start {
			return false
		}
	}
	return true
}

// Clone returns a deep-enough copy: slot structs are copied, node pointers
// are shared (nodes are immutable during a scheduling cycle).
func (l List) Clone() List {
	out := make(List, len(l))
	for i, s := range l {
		c := *s
		out[i] = &c
	}
	return out
}

// TotalSpan returns the sum of slot lengths, a measure of the free capacity
// published for the scheduling interval.
func (l List) TotalSpan() float64 {
	sum := 0.0
	for _, s := range l {
		sum += s.Length()
	}
	return sum
}

// ByNode groups the slots by node ID.
func (l List) ByNode() map[int]List {
	m := make(map[int]List)
	for _, s := range l {
		m[s.Node.ID] = append(m[s.Node.ID], s)
	}
	return m
}

// Validate checks structural invariants: positive lengths, non-nil nodes,
// and per-node non-overlap. It returns the first violation found.
func (l List) Validate() error {
	for i, s := range l {
		if s == nil {
			return fmt.Errorf("slots: nil slot at index %d", i)
		}
		if s.Node == nil {
			return fmt.Errorf("slots: slot %d has nil node", i)
		}
		if s.Length() <= 0 {
			return fmt.Errorf("slots: slot %d has non-positive length: %v", i, s)
		}
	}
	// Nodes in ID order, so that the violation reported is the same on
	// every run; ByNode's groups are fresh slices, sorted in place.
	byNode := l.ByNode()
	ids := make([]int, 0, len(byNode))
	for id := range byNode {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		g := byNode[id]
		sort.Slice(g, func(i, j int) bool { return g[i].Start < g[j].Start })
		for i := 1; i < len(g); i++ {
			if g[i-1].End > g[i].Start {
				return fmt.Errorf("slots: node %d has overlapping slots %v and %v", id, g[i-1], g[i])
			}
		}
	}
	return nil
}

// FreeSlots computes the published slots of a node from its busy intervals
// within the scheduling interval [0, horizon). Busy intervals may be
// unordered and may touch; overlapping busy intervals are merged. Gaps
// shorter than minLength are suppressed (too short to be useful: the local
// resource manager does not publish them).
func FreeSlots(node *nodes.Node, busy []Interval, horizon, minLength float64) List {
	merged := MergeIntervals(busy)
	var out List
	cursor := 0.0
	emit := func(start, end float64) {
		if end-start >= minLength && end-start > 0 {
			out = append(out, &Slot{Node: node, Interval: Interval{Start: start, End: end}})
		}
	}
	for _, b := range merged {
		if b.End <= 0 || b.Start >= horizon {
			continue
		}
		start := b.Start
		if start < 0 {
			start = 0
		}
		if start > cursor {
			emit(cursor, start)
		}
		if b.End > cursor {
			cursor = b.End
		}
	}
	if cursor < horizon {
		emit(cursor, horizon)
	}
	return out
}

// MergeIntervals returns a sorted, disjoint cover of the input intervals.
// Touching intervals are merged; empty and inverted intervals are dropped.
func MergeIntervals(in []Interval) []Interval {
	var ivs []Interval
	for _, iv := range in {
		if iv.Length() > 0 {
			ivs = append(ivs, iv)
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].Start < ivs[j].Start })
	var out []Interval
	for _, iv := range ivs {
		if len(out) > 0 && iv.Start <= out[len(out)-1].End {
			if iv.End > out[len(out)-1].End {
				out[len(out)-1].End = iv.End
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// Subtract removes the span cut from the slot and returns the remaining
// pieces (0, 1 or 2 slots). Pieces shorter than minLength are suppressed.
// If cut does not overlap the slot, the original slot is returned unchanged
// as the single piece.
func Subtract(s *Slot, cut Interval, minLength float64) List {
	if !s.Overlaps(cut) {
		return List{s}
	}
	var out List
	if left := (Interval{Start: s.Start, End: cut.Start}); left.Length() >= minLength && left.Length() > 0 {
		out = append(out, &Slot{Node: s.Node, Interval: left})
	}
	if right := (Interval{Start: cut.End, End: s.End}); right.Length() >= minLength && right.Length() > 0 {
		out = append(out, &Slot{Node: s.Node, Interval: right})
	}
	return out
}

// Cut removes the given reservations from the list: used maps a node ID to
// the intervals consumed on that node. The result is re-sorted by start
// time. Matching is by node and time overlap (not slot identity), so cutting
// works across slot-list clones — a window found on a working copy can be
// cut out of the original list.
//
// CSA uses Cut after each AMP run so the next alternative cannot reuse the
// same reserved spans, making alternatives pairwise disjoint.
func Cut(l List, used map[int][]Interval, minLength float64) List {
	out := make(List, 0, len(l))
	for _, s := range l {
		cuts := used[s.Node.ID]
		pieces := List{s}
		for _, cut := range cuts {
			var next List
			for _, p := range pieces {
				next = append(next, Subtract(p, cut, minLength)...)
			}
			pieces = next
		}
		out = append(out, pieces...)
	}
	out.SortByStart()
	return out
}
