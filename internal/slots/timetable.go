package slots

import "slotsel/internal/nodes"

// Timetable tracks per-node reservations over an absolute timeline and
// publishes the remaining free slots for any lookahead window. It is the
// bookkeeping a local resource manager performs between scheduling cycles:
// local jobs and accepted broker windows reserve node time; the free
// complement becomes the next cycle's slot list.
type Timetable struct {
	busy map[int][]Interval
}

// NewTimetable returns an empty timetable.
func NewTimetable() *Timetable {
	return &Timetable{busy: make(map[int][]Interval)}
}

// Reserve marks [iv.Start, iv.End) busy on the node. Overlapping or
// touching reservations merge. Empty intervals are ignored.
func (t *Timetable) Reserve(nodeID int, iv Interval) {
	if iv.Length() <= 0 {
		return
	}
	t.busy[nodeID] = MergeIntervals(append(t.busy[nodeID], iv))
}

// ReserveAll records a window's used intervals (as produced by
// core.Window.UsedIntervals).
func (t *Timetable) ReserveAll(used map[int][]Interval) {
	for nodeID, ivs := range used {
		for _, iv := range ivs {
			t.Reserve(nodeID, iv)
		}
	}
}

// FreeSlots publishes the free slots of the given nodes over the window
// [lo, hi), suppressing slots shorter than minLength. The result is sorted
// by start time — ready for the AEP scan.
func (t *Timetable) FreeSlots(ns []*nodes.Node, lo, hi, minLength float64) List {
	var out List
	for _, n := range ns {
		cursor := lo
		emit := func(s, e float64) {
			if e-s >= minLength && e > s {
				out = append(out, &Slot{Node: n, Interval: Interval{Start: s, End: e}})
			}
		}
		for _, b := range t.busy[n.ID] {
			if b.End <= lo || b.Start >= hi {
				continue
			}
			start := b.Start
			if start < lo {
				start = lo
			}
			if start > cursor {
				emit(cursor, start)
			}
			if b.End > cursor {
				cursor = b.End
			}
		}
		if cursor < hi {
			emit(cursor, hi)
		}
	}
	out.SortByStart()
	return out
}
