// Package core implements the paper's primary contribution: the AEP scheme
// ("Algorithm searching for Extreme Performance") for selecting a window of
// n concurrent slots out of the m slots published for a scheduling interval,
// optimizing a user- or VO-defined criterion under a total-cost budget.
//
// The scheme performs a single forward scan over the slot list ordered by
// non-decreasing start time — the precondition that makes every algorithm in
// this package linear in the number of available slots. At each scan step a
// per-criterion selection procedure picks the best n-slot sub-window among
// the currently suitable slots; the best window over all steps is returned.
//
// Implemented instantiations (§2.2 and §3.1 of the paper):
//
//   - AMP:         earliest window start time (first feasible window wins)
//   - MinFinish:   earliest window finish time
//   - MinCost:     minimum total allocation cost
//   - MinRunTime:  minimum window runtime (length of the longest slot)
//   - MinProcTime: minimum total node time — simplified, random sub-window
//
// plus extensions: an exact MinRunTime selection, a greedy MinProcTime, and
// a MinEnergy criterion (the paper names energy as a possible crW).
package core

import (
	"errors"
	"fmt"
	"sort"

	"slotsel/internal/nodes"
	"slotsel/internal/slots"
)

// ErrNoWindow is returned by Find when no feasible window exists on the
// given slot list for the request.
var ErrNoWindow = errors.New("core: no feasible window")

// Placement is the assignment of one task of the job to one slot: the task
// occupies [Start, Start+Exec) on the slot's node.
type Placement struct {
	// Slot is the availability window hosting the task.
	Slot *slots.Slot

	// Start is the synchronous window start time.
	Start float64

	// Exec is the task execution time on this node (volume / performance).
	Exec float64

	// Cost is the reservation cost of the placement (Exec x node price).
	Cost float64
}

// Node returns the node hosting the placement.
func (p Placement) Node() *nodes.Node { return p.Slot.Node }

// Finish returns the task completion time.
func (p Placement) Finish() float64 { return p.Start + p.Exec }

// Used returns the interval consumed on the underlying slot.
func (p Placement) Used() slots.Interval {
	return slots.Interval{Start: p.Start, End: p.Start + p.Exec}
}

// Window is a co-allocation of n slots starting synchronously. Because the
// resources are heterogeneous the composing tasks finish at different times
// — the window has a "rough right edge"; its runtime is the execution time
// on the slowest selected node.
type Window struct {
	// Start is the synchronous start time of all placements.
	Start float64

	// Placements are the n task placements.
	Placements []Placement

	// Runtime is the window length: the maximum placement Exec.
	Runtime float64

	// Cost is the total allocation cost: the sum of placement costs.
	Cost float64

	// ProcTime is the total node (CPU) usage time: the sum of placement
	// execution times.
	ProcTime float64
}

// NewWindow assembles a caller-owned window at the given start from the
// chosen candidates (which it copies), computing the aggregate
// characteristics.
func NewWindow(start float64, chosen []Candidate) *Window {
	w := &Window{Placements: make([]Placement, 0, len(chosen))}
	buildWindow(w, start, chosen)
	return w
}

// buildWindow fills an existing buffer: dst's placements slice is truncated
// and refilled and the aggregates accumulated left to right, without
// allocating once dst's capacity suffices.
func buildWindow(dst *Window, start float64, chosen []Candidate) {
	dst.Start = start
	dst.Placements = dst.Placements[:0]
	dst.Runtime, dst.Cost, dst.ProcTime = 0, 0, 0
	for _, c := range chosen {
		p := Placement{Slot: c.Slot, Start: start, Exec: c.Exec, Cost: c.Cost}
		dst.Placements = append(dst.Placements, p)
		if c.Exec > dst.Runtime {
			dst.Runtime = c.Exec
		}
		dst.Cost += c.Cost
		dst.ProcTime += c.Exec
	}
}

// Detach returns a self-owned copy of the window: fresh Window struct and
// placements array, still referencing the same underlying slots. Use it to
// keep a window obtained from scanner-recycled scratch (Scanner results,
// retained visit output) beyond the producer's reuse horizon.
func (w *Window) Detach() *Window {
	nw := *w
	nw.Placements = append([]Placement(nil), w.Placements...)
	return &nw
}

// DetachDeep is Detach plus copies of the placed slot structs themselves,
// for windows whose slots live in mutable working storage (the CSA cutting
// working copy): the detached window stays valid even after the backing
// slots are edited or recycled. Node pointers are shared — nodes are
// immutable for the search's duration.
func (w *Window) DetachDeep() *Window {
	nw := w.Detach()
	for i := range nw.Placements {
		s := *nw.Placements[i].Slot
		nw.Placements[i].Slot = &s
	}
	return nw
}

// Finish returns the window completion time: Start + Runtime.
func (w *Window) Finish() float64 { return w.Start + w.Runtime }

// Size returns the number of co-allocated slots.
func (w *Window) Size() int { return len(w.Placements) }

// UsedIntervals maps each node ID to the intervals the window consumes on
// it — the input CSA and the batch scheduler need to cut allocated spans out
// of a slot list (matching by node, so it works across slot-list clones).
func (w *Window) UsedIntervals() map[int][]slots.Interval {
	m := make(map[int][]slots.Interval, len(w.Placements))
	for _, p := range w.Placements {
		id := p.Node().ID
		m[id] = append(m[id], p.Used())
	}
	return m
}

// String implements fmt.Stringer.
func (w *Window) String() string {
	return fmt.Sprintf("window{start=%.2f finish=%.2f runtime=%.2f cost=%.2f proc=%.2f n=%d}",
		w.Start, w.Finish(), w.Runtime, w.Cost, w.ProcTime, len(w.Placements))
}

// SortPlacementsByNode orders the placements by node ID, a convenience for
// deterministic printing and comparison in tests.
func (w *Window) SortPlacementsByNode() {
	sort.Slice(w.Placements, func(i, j int) bool {
		return w.Placements[i].Node().ID < w.Placements[j].Node().ID
	})
}
