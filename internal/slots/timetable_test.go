package slots

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"slotsel/internal/nodes"
	"slotsel/internal/randx"
)

func TestTimetableReserveMerges(t *testing.T) {
	tt := NewTimetable()
	tt.Reserve(1, Interval{10, 20})
	tt.Reserve(1, Interval{20, 30}) // touching: merges
	tt.Reserve(1, Interval{50, 60})
	tt.Reserve(1, Interval{0, 0}) // empty: ignored
	busy := tt.Busy(1)
	want := []Interval{{10, 30}, {50, 60}}
	if len(busy) != len(want) {
		t.Fatalf("got %v", busy)
	}
	for i := range want {
		if busy[i] != want[i] {
			t.Fatalf("got %v, want %v", busy, want)
		}
	}
	if err := tt.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTimetableIsFree(t *testing.T) {
	tt := NewTimetable()
	tt.Reserve(1, Interval{10, 20})
	if !tt.IsFree(1, Interval{0, 10}) {
		t.Error("touching interval reported busy")
	}
	if tt.IsFree(1, Interval{15, 25}) {
		t.Error("overlapping interval reported free")
	}
	if !tt.IsFree(2, Interval{0, 100}) {
		t.Error("idle node reported busy")
	}
}

func TestTimetableBusyWithin(t *testing.T) {
	tt := NewTimetable()
	tt.Reserve(1, Interval{10, 30})
	tt.Reserve(1, Interval{50, 70})
	if got := tt.BusyWithin(1, 20, 60); got != 20 { // [20,30)+[50,60)
		t.Errorf("BusyWithin = %g, want 20", got)
	}
	if got := tt.BusyWithin(1, 0, 100); got != 40 {
		t.Errorf("BusyWithin full = %g, want 40", got)
	}
	if got := tt.BusyWithin(2, 0, 100); got != 0 {
		t.Errorf("idle BusyWithin = %g", got)
	}
}

func TestTimetableFreeSlots(t *testing.T) {
	n1 := &nodes.Node{ID: 1, Perf: 4, Price: 1}
	n2 := &nodes.Node{ID: 2, Perf: 4, Price: 1}
	tt := NewTimetable()
	tt.Reserve(1, Interval{120, 150})
	tt.Reserve(2, Interval{0, 500}) // node 2 fully busy before 500

	list := tt.FreeSlots([]*nodes.Node{n1, n2}, 100, 300, 10)
	if err := list.Validate(); err != nil {
		t.Fatal(err)
	}
	if !list.IsSortedByStart() {
		t.Fatal("free slots unsorted")
	}
	// node 1: [100,120) and [150,300); node 2: nothing before 300.
	if len(list) != 2 {
		t.Fatalf("got %v", list)
	}
	if list[0].Interval != (Interval{100, 120}) || list[1].Interval != (Interval{150, 300}) {
		t.Fatalf("got %v", list)
	}

	// Reservation outside the window does not affect it.
	later := tt.FreeSlots([]*nodes.Node{n2}, 500, 600, 10)
	if len(later) != 1 || later[0].Interval != (Interval{500, 600}) {
		t.Fatalf("got %v", later)
	}
}

func TestTimetableFreeSlotsSuppressesShort(t *testing.T) {
	n := &nodes.Node{ID: 1, Perf: 4, Price: 1}
	tt := NewTimetable()
	tt.Reserve(1, Interval{5, 95})
	list := tt.FreeSlots([]*nodes.Node{n}, 0, 100, 10)
	if len(list) != 0 {
		t.Fatalf("short gaps survived: %v", list)
	}
}

func TestTimetableCloneIndependent(t *testing.T) {
	tt := NewTimetable()
	tt.Reserve(1, Interval{10, 20})
	c := tt.Clone()
	c.Reserve(1, Interval{30, 40})
	if len(tt.Busy(1)) != 1 {
		t.Fatal("clone shares state with original")
	}
	if len(c.Busy(1)) != 2 {
		t.Fatal("clone lost reservation")
	}
}

func TestTimetableReserveAll(t *testing.T) {
	tt := NewTimetable()
	tt.ReserveAll(map[int][]Interval{
		1: {{0, 10}, {20, 30}},
		2: {{5, 15}},
	})
	if len(tt.Busy(1)) != 2 || len(tt.Busy(2)) != 1 {
		t.Fatalf("ReserveAll wrong: %v / %v", tt.Busy(1), tt.Busy(2))
	}
}

func TestTimetableZeroLengthReservations(t *testing.T) {
	tt := NewTimetable()
	tt.Reserve(1, Interval{10, 10}) // zero length: ignored
	tt.Reserve(1, Interval{20, 15}) // negative length: ignored
	tt.Reserve(1, Interval{30, 30}) // zero length again
	if busy := tt.Busy(1); len(busy) != 0 {
		t.Fatalf("degenerate reservations were recorded: %v", busy)
	}
	if err := tt.Validate(); err != nil {
		t.Fatal(err)
	}
	// A degenerate reservation between two real ones must not bridge them.
	tt.Reserve(1, Interval{0, 10})
	tt.Reserve(1, Interval{10, 10})
	tt.Reserve(1, Interval{20, 30})
	if busy := tt.Busy(1); len(busy) != 2 {
		t.Fatalf("zero-length reservation changed the busy set: %v", busy)
	}
	// Zero-length queries: free at a boundary point (half-open — no time
	// in common), conservatively busy strictly inside a busy span.
	if !tt.IsFree(1, Interval{10, 10}) {
		t.Error("zero-length interval at a busy-span boundary reported busy")
	}
	if tt.IsFree(1, Interval{5, 5}) {
		t.Error("zero-length interval strictly inside a busy span reported free")
	}
}

func TestTimetableAdjacentTouchingWindows(t *testing.T) {
	// Half-open semantics: back-to-back reservations [0,10) [10,20) [20,30)
	// are pairwise non-overlapping — the canonical "touching never
	// conflicts" invariant the inventory relies on.
	tt := NewTimetable()
	tt.Reserve(1, Interval{0, 10})
	tt.Reserve(2, Interval{0, 10})
	if !tt.IsFree(1, Interval{10, 20}) {
		t.Fatal("adjacent window [10,20) reported busy next to [0,10)")
	}
	tt.Reserve(1, Interval{10, 20})
	tt.Reserve(1, Interval{20, 30})
	if err := tt.Validate(); err != nil {
		t.Fatal(err)
	}
	// The three merge into one span: no gaps, no double counting.
	if busy := tt.Busy(1); len(busy) != 1 || busy[0] != (Interval{0, 30}) {
		t.Fatalf("touching reservations did not merge cleanly: %v", busy)
	}
	if got := tt.BusyWithin(1, 0, 30); got != 30 {
		t.Fatalf("BusyWithin = %g, want 30 (no double counting at joints)", got)
	}
	// Node 2 is independent: only its own [0,10) is busy.
	if !tt.IsFree(2, Interval{10, 30}) {
		t.Fatal("node 2 affected by node 1 reservations")
	}
	// FreeSlots around a merged block has exact boundaries.
	n := &nodes.Node{ID: 1, Perf: 4, Price: 1}
	free := tt.FreeSlots([]*nodes.Node{n}, 0, 100, 0)
	if len(free) != 1 || free[0].Interval != (Interval{30, 100}) {
		t.Fatalf("free slots around touching block: %v", free)
	}
}

func TestTimetableFreeComplementProperty(t *testing.T) {
	// Free slots and busy intervals must tile the window exactly when no
	// minimum length suppression applies.
	check := func(seed uint64, nRaw uint8) bool {
		rng := randx.New(seed)
		tt := NewTimetable()
		n := &nodes.Node{ID: 1, Perf: 4, Price: 1}
		count := int(nRaw % 8)
		for i := 0; i < count; i++ {
			s := rng.FloatRange(0, 90)
			tt.Reserve(1, Interval{Start: s, End: s + rng.FloatRange(0.5, 20)})
		}
		if tt.Validate() != nil {
			return false
		}
		free := tt.FreeSlots([]*nodes.Node{n}, 0, 100, 0)
		freeSpan := free.TotalSpan()
		busySpan := tt.BusyWithin(1, 0, 100)
		if diff := freeSpan + busySpan - 100; diff > 1e-9 || diff < -1e-9 {
			return false
		}
		// Free slots never overlap busy time.
		for _, f := range free {
			if !tt.IsFree(1, f.Interval) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// The accessors and the invariant check below read a Timetable for the
// tests; the scheduling path only reserves and publishes.

// Busy returns the merged busy intervals of a node (nil when idle). The
// returned slice must not be modified.
func (t *Timetable) Busy(nodeID int) []Interval {
	return t.busy[nodeID]
}

// BusyWithin returns the node's busy time inside [lo, hi).
func (t *Timetable) BusyWithin(nodeID int, lo, hi float64) float64 {
	total := 0.0
	for _, iv := range t.busy[nodeID] {
		s, e := iv.Start, iv.End
		if s < lo {
			s = lo
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
		}
	}
	return total
}

// IsFree reports whether the node is fully free over [iv.Start, iv.End).
func (t *Timetable) IsFree(nodeID int, iv Interval) bool {
	for _, b := range t.busy[nodeID] {
		if b.Overlaps(iv) {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the timetable.
func (t *Timetable) Clone() *Timetable {
	c := NewTimetable()
	for id, ivs := range t.busy {
		c.busy[id] = append([]Interval(nil), ivs...)
	}
	return c
}

// Validate checks the structural invariants: merged (sorted, disjoint,
// non-touching) positive-length intervals per node.
func (t *Timetable) Validate() error {
	for id, ivs := range t.busy {
		if !sort.SliceIsSorted(ivs, func(i, j int) bool { return ivs[i].Start < ivs[j].Start }) {
			return fmt.Errorf("slots: timetable node %d intervals unsorted", id)
		}
		for i, iv := range ivs {
			if iv.Length() <= 0 {
				return fmt.Errorf("slots: timetable node %d has empty interval %v", id, iv)
			}
			if i > 0 && ivs[i-1].End >= iv.Start {
				return fmt.Errorf("slots: timetable node %d has unmerged intervals %v, %v", id, ivs[i-1], iv)
			}
		}
	}
	return nil
}
