package slots

import (
	"strings"
	"testing"
	"testing/quick"

	"slotsel/internal/nodes"
	"slotsel/internal/randx"
)

func node(id int) *nodes.Node {
	return &nodes.Node{ID: id, Perf: 4, Price: 1, RAMMB: 1024, DiskGB: 10, OS: nodes.Linux, Arch: nodes.AMD64}
}

func TestIntervalBasics(t *testing.T) {
	iv := Interval{Start: 2, End: 5}
	if iv.Length() != 3 {
		t.Errorf("Length = %g", iv.Length())
	}
	if !iv.Contains(Interval{Start: 3, End: 4}) {
		t.Error("Contains failed for inner interval")
	}
	if iv.Contains(Interval{Start: 1, End: 4}) {
		t.Error("Contains succeeded for overhanging interval")
	}
	if !iv.Overlaps(Interval{Start: 4, End: 9}) {
		t.Error("Overlaps failed for partial overlap")
	}
	if iv.Overlaps(Interval{Start: 5, End: 9}) {
		t.Error("touching intervals must not overlap")
	}
}

func TestMergeIntervals(t *testing.T) {
	cases := []struct {
		name string
		in   []Interval
		want []Interval
	}{
		{"empty", nil, nil},
		{"single", []Interval{{0, 5}}, []Interval{{0, 5}}},
		{"disjoint", []Interval{{6, 8}, {0, 5}}, []Interval{{0, 5}, {6, 8}}},
		{"overlapping", []Interval{{0, 5}, {3, 8}}, []Interval{{0, 8}}},
		{"touching", []Interval{{0, 5}, {5, 8}}, []Interval{{0, 8}}},
		{"nested", []Interval{{0, 10}, {2, 4}}, []Interval{{0, 10}}},
		{"drops empty", []Interval{{3, 3}, {5, 4}, {0, 1}}, []Interval{{0, 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := MergeIntervals(tc.in)
			if len(got) != len(tc.want) {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("got %v, want %v", got, tc.want)
				}
			}
		})
	}
}

func TestMergeIntervalsProperties(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		rng := randx.New(seed)
		n := int(nRaw % 20)
		in := make([]Interval, n)
		for i := range in {
			s := rng.FloatRange(0, 100)
			in[i] = Interval{Start: s, End: s + rng.FloatRange(-2, 20)}
		}
		out := MergeIntervals(in)
		// Sorted, disjoint, non-touching, positive length.
		for i, iv := range out {
			if iv.Length() <= 0 {
				return false
			}
			if i > 0 && out[i-1].End >= iv.Start {
				return false
			}
		}
		// Every positive input interval is covered by some output interval.
		for _, iv := range in {
			if iv.Length() <= 0 {
				continue
			}
			covered := false
			for _, ov := range out {
				if ov.Contains(iv) {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFreeSlotsNoLoad(t *testing.T) {
	l := FreeSlots(node(1), nil, 100, 5)
	if len(l) != 1 {
		t.Fatalf("got %d slots, want 1", len(l))
	}
	if l[0].Start != 0 || l[0].End != 100 {
		t.Errorf("slot %v, want [0,100)", l[0])
	}
}

func TestFreeSlotsSplitsAroundBusy(t *testing.T) {
	busy := []Interval{{20, 30}, {50, 60}}
	l := FreeSlots(node(1), busy, 100, 5)
	want := []Interval{{0, 20}, {30, 50}, {60, 100}}
	if len(l) != len(want) {
		t.Fatalf("got %d slots %v, want %d", len(l), l, len(want))
	}
	for i := range want {
		if l[i].Interval != want[i] {
			t.Errorf("slot %d = %v, want %v", i, l[i].Interval, want[i])
		}
	}
}

func TestFreeSlotsSuppressesShortGaps(t *testing.T) {
	busy := []Interval{{10, 20}, {22, 90}}
	l := FreeSlots(node(1), busy, 100, 5)
	// The 2-unit gap [20,22) must be suppressed at minLength 5.
	want := []Interval{{0, 10}, {90, 100}}
	if len(l) != len(want) {
		t.Fatalf("got %v", l)
	}
	for i := range want {
		if l[i].Interval != want[i] {
			t.Errorf("slot %d = %v, want %v", i, l[i].Interval, want[i])
		}
	}
}

func TestFreeSlotsClipsToHorizon(t *testing.T) {
	busy := []Interval{{-10, 5}, {95, 200}}
	l := FreeSlots(node(1), busy, 100, 1)
	if len(l) != 1 || l[0].Interval != (Interval{5, 95}) {
		t.Fatalf("got %v, want [[5,95)]", l)
	}
}

func TestFreeSlotsFullyBusy(t *testing.T) {
	if l := FreeSlots(node(1), []Interval{{0, 100}}, 100, 1); len(l) != 0 {
		t.Fatalf("fully busy node published %v", l)
	}
}

func TestFreeSlotsProperty(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		rng := randx.New(seed)
		n := int(nRaw % 10)
		busy := make([]Interval, n)
		for i := range busy {
			s := rng.FloatRange(0, 90)
			busy[i] = Interval{Start: s, End: s + rng.FloatRange(0, 30)}
		}
		free := FreeSlots(node(1), busy, 100, 2)
		// Free slots never overlap busy time and respect minLength.
		for _, f := range free {
			if f.Length() < 2 {
				return false
			}
			if f.Start < 0 || f.End > 100 {
				return false
			}
			for _, b := range busy {
				if b.Length() > 0 && f.Overlaps(b) {
					return false
				}
			}
		}
		return List(free).Validate() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSortByStartAndIsSorted(t *testing.T) {
	n1, n2 := node(1), node(2)
	l := List{
		{Node: n2, Interval: Interval{5, 10}},
		{Node: n1, Interval: Interval{0, 10}},
		{Node: n1, Interval: Interval{20, 30}},
		{Node: n2, Interval: Interval{0, 4}},
	}
	if l.IsSortedByStart() {
		t.Fatal("unsorted list reported sorted")
	}
	l.SortByStart()
	if !l.IsSortedByStart() {
		t.Fatal("sorted list reported unsorted")
	}
	// Deterministic tie-break: node 1 before node 2 at start 0.
	if l[0].Node.ID != 1 || l[1].Node.ID != 2 {
		t.Errorf("tie-break wrong: %v", l)
	}
}

func TestCloneIsDeep(t *testing.T) {
	l := List{{Node: node(1), Interval: Interval{0, 10}}}
	c := l.Clone()
	c[0].End = 99
	if l[0].End != 10 {
		t.Fatal("clone shares slot structs with original")
	}
	if c[0].Node != l[0].Node {
		t.Fatal("clone must share node pointers")
	}
}

func TestTotalSpan(t *testing.T) {
	l := List{
		{Node: node(1), Interval: Interval{0, 10}},
		{Node: node(2), Interval: Interval{5, 7}},
	}
	if got := l.TotalSpan(); got != 12 {
		t.Errorf("TotalSpan = %g, want 12", got)
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	n := node(1)
	l := List{
		{Node: n, Interval: Interval{0, 10}},
		{Node: n, Interval: Interval{5, 15}},
	}
	if err := l.Validate(); err == nil {
		t.Fatal("overlapping same-node slots passed validation")
	}
}

func TestValidateCatchesBadSlots(t *testing.T) {
	if err := (List{{Node: nil, Interval: Interval{0, 1}}}).Validate(); err == nil {
		t.Error("nil node passed validation")
	}
	if err := (List{{Node: node(1), Interval: Interval{5, 5}}}).Validate(); err == nil {
		t.Error("empty slot passed validation")
	}
	if err := (List{nil}).Validate(); err == nil {
		t.Error("nil slot passed validation")
	}
}

func TestSubtract(t *testing.T) {
	n := node(1)
	s := &Slot{Node: n, Interval: Interval{10, 50}}
	t.Run("middle", func(t *testing.T) {
		out := Subtract(s, Interval{20, 30}, 1)
		if len(out) != 2 || out[0].Interval != (Interval{10, 20}) || out[1].Interval != (Interval{30, 50}) {
			t.Fatalf("got %v", out)
		}
	})
	t.Run("prefix", func(t *testing.T) {
		out := Subtract(s, Interval{10, 30}, 1)
		if len(out) != 1 || out[0].Interval != (Interval{30, 50}) {
			t.Fatalf("got %v", out)
		}
	})
	t.Run("suffix", func(t *testing.T) {
		out := Subtract(s, Interval{40, 50}, 1)
		if len(out) != 1 || out[0].Interval != (Interval{10, 40}) {
			t.Fatalf("got %v", out)
		}
	})
	t.Run("whole", func(t *testing.T) {
		if out := Subtract(s, Interval{10, 50}, 1); len(out) != 0 {
			t.Fatalf("got %v", out)
		}
	})
	t.Run("no overlap keeps slot", func(t *testing.T) {
		out := Subtract(s, Interval{60, 70}, 1)
		if len(out) != 1 || out[0] != s {
			t.Fatalf("got %v", out)
		}
	})
	t.Run("short remainder suppressed", func(t *testing.T) {
		out := Subtract(s, Interval{12, 48}, 5)
		if len(out) != 0 {
			t.Fatalf("short remainders survived: %v", out)
		}
	})
}

func TestCut(t *testing.T) {
	n1, n2 := node(1), node(2)
	s1 := &Slot{Node: n1, Interval: Interval{0, 100}}
	s2 := &Slot{Node: n2, Interval: Interval{0, 100}}
	l := List{s1, s2}
	used := map[int][]Interval{n1.ID: {{10, 40}}}
	out := Cut(l, used, 5)
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	if !out.IsSortedByStart() {
		t.Fatal("cut result not sorted")
	}
	// s1 is split into [0,10) and [40,100); s2 untouched.
	if len(out) != 3 {
		t.Fatalf("got %d slots: %v", len(out), out)
	}
	span := out.TotalSpan()
	if span != 100+100-30 {
		t.Errorf("TotalSpan after cut = %g, want 170", span)
	}
}

func TestCutProperty(t *testing.T) {
	check := func(seed uint64) bool {
		rng := randx.New(seed)
		n := node(1)
		l := List{{Node: n, Interval: Interval{0, 100}}}
		// Cut a random window out of a random slot repeatedly; the list
		// must stay valid and total span must shrink accordingly.
		for step := 0; step < 5 && len(l) > 0; step++ {
			idx := rng.Intn(len(l))
			s := l[idx]
			if s.Length() < 2 {
				break
			}
			a := rng.FloatRange(s.Start, s.End-1)
			b := rng.FloatRange(a+0.5, s.End)
			l = Cut(l, map[int][]Interval{s.Node.ID: {{a, b}}}, 1)
			if err := l.Validate(); err != nil {
				return false
			}
			if !l.IsSortedByStart() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestByNode(t *testing.T) {
	n1, n2 := node(1), node(2)
	l := List{
		{Node: n1, Interval: Interval{0, 10}},
		{Node: n2, Interval: Interval{0, 10}},
		{Node: n1, Interval: Interval{20, 30}},
	}
	m := l.ByNode()
	if len(m[1]) != 2 || len(m[2]) != 1 {
		t.Errorf("ByNode grouping wrong: %v", m)
	}
}

// TestValidateReportsLowestNode: with overlaps on several nodes, Validate
// names the node with the lowest ID on every call, so that two readers of
// the same bytes report the same error.
func TestValidateReportsLowestNode(t *testing.T) {
	var l List
	for _, id := range []int{5, 2, 9} {
		l = append(l,
			&Slot{Node: node(id), Interval: Interval{Start: 0, End: 10}},
			&Slot{Node: node(id), Interval: Interval{Start: 5, End: 20}})
	}
	for i := 0; i < 20; i++ {
		if err := l.Validate(); err == nil || !strings.Contains(err.Error(), "node 2 ") {
			t.Fatalf("Validate: %v, want the overlap on node 2", err)
		}
	}
}
