package csa

import (
	"errors"
	"math"
	"testing"

	"slotsel/internal/core"
	"slotsel/internal/job"
	"slotsel/internal/obs"
	"slotsel/internal/randx"
	"slotsel/internal/slots"
	"slotsel/internal/testkit"
)

func smallRequest() job.Request {
	return job.Request{TaskCount: 3, Volume: 60, MaxCost: 300}
}

func TestSearchFindsDisjointAlternatives(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		e := testkit.SmallEnv(seed, 15, 300)
		req := smallRequest()
		alts, err := Search(e.Slots, &req, Options{MinSlotLength: 10}, nil)
		if errors.Is(err, core.ErrNoWindow) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(alts) == 0 {
			t.Fatal("empty alternative set without ErrNoWindow")
		}
		if !Disjoint(alts) {
			t.Fatalf("seed %d: alternatives overlap", seed)
		}
		for i, w := range alts {
			if verr := w.Validate(&req); verr != nil {
				t.Fatalf("seed %d: alternative %d invalid: %v", seed, i, verr)
			}
		}
	}
}

func TestSearchDoesNotMutateInput(t *testing.T) {
	e := testkit.SmallEnv(3, 15, 300)
	req := smallRequest()
	before := make([]struct {
		start, end float64
	}, len(e.Slots))
	for i, s := range e.Slots {
		before[i].start, before[i].end = s.Start, s.End
	}
	if _, err := Search(e.Slots, &req, Options{MinSlotLength: 10}, nil); err != nil && !errors.Is(err, core.ErrNoWindow) {
		t.Fatal(err)
	}
	for i, s := range e.Slots {
		if s.Start != before[i].start || s.End != before[i].end {
			t.Fatalf("slot %d mutated by Search", i)
		}
	}
}

func TestFirstAlternativeEqualsAMP(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		e := testkit.SmallEnv(seed, 15, 300)
		req := smallRequest()
		alts, errC := Search(e.Slots, &req, Options{MinSlotLength: 10}, nil)
		w, errA := (core.AMP{}).Find(e.Slots, &req)
		if errors.Is(errC, core.ErrNoWindow) != errors.Is(errA, core.ErrNoWindow) {
			t.Fatalf("seed %d: CSA and AMP disagree on feasibility", seed)
		}
		if errC != nil {
			continue
		}
		if alts[0].Start != w.Start || math.Abs(alts[0].Cost-w.Cost) > 1e-9 {
			t.Fatalf("seed %d: first CSA alternative %v != AMP window %v", seed, alts[0], w)
		}
	}
}

func TestAlternativeStartsNonDecreasing(t *testing.T) {
	e := testkit.SmallEnv(7, 20, 400)
	req := smallRequest()
	alts, err := Search(e.Slots, &req, Options{MinSlotLength: 10}, nil)
	if err != nil {
		t.Skip("no alternatives on this seed")
	}
	for i := 1; i < len(alts); i++ {
		if alts[i].Start < alts[i-1].Start {
			t.Fatalf("alternative %d starts at %g before previous %g", i, alts[i].Start, alts[i-1].Start)
		}
	}
}

func TestMaxAlternativesBound(t *testing.T) {
	e := testkit.SmallEnv(9, 25, 500)
	req := smallRequest()
	all, err := Search(e.Slots, &req, Options{MinSlotLength: 10}, nil)
	if err != nil {
		t.Skip("no alternatives on this seed")
	}
	if len(all) < 3 {
		t.Skip("not enough alternatives to test the bound")
	}
	bounded, err := Search(e.Slots, &req, Options{MinSlotLength: 10, MaxAlternatives: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(bounded) != 2 {
		t.Fatalf("bound 2 returned %d alternatives", len(bounded))
	}
}

func TestSearchErrNoWindow(t *testing.T) {
	req := job.Request{TaskCount: 3, Volume: 60, MaxCost: 300}
	if _, err := Search(nil, &req, Options{}, nil); !errors.Is(err, core.ErrNoWindow) {
		t.Fatalf("empty list: %v, want ErrNoWindow", err)
	}
}

func TestSearchInvalidRequest(t *testing.T) {
	req := job.Request{TaskCount: 0, Volume: 60}
	if _, err := Search(nil, &req, Options{}, nil); err == nil || errors.Is(err, core.ErrNoWindow) {
		t.Fatalf("invalid request: %v", err)
	}
}

func TestCriterionValues(t *testing.T) {
	n := testkit.Node(1, 5, 2)
	s := testkit.Slot(n, 0, 100)
	w := core.NewWindow(10, []core.Candidate{{Slot: s, Exec: 30, Cost: 60}})
	cases := []struct {
		c    Criterion
		want float64
	}{
		{ByStart, 10},
		{ByFinish, 40},
		{ByCost, 60},
		{ByRuntime, 30},
		{ByProcTime, 30},
	}
	for _, tc := range cases {
		if got := tc.c.Value(w); got != tc.want {
			t.Errorf("%s value = %g, want %g", tc.c, got, tc.want)
		}
	}
	if !math.IsNaN(Criterion(99).Value(w)) {
		t.Error("unknown criterion should yield NaN")
	}
}

func TestCriterionString(t *testing.T) {
	names := map[Criterion]string{
		ByStart: "start", ByFinish: "finish", ByCost: "cost",
		ByRuntime: "runtime", ByProcTime: "proctime", Criterion(99): "unknown",
	}
	for c, want := range names {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", c, got, want)
		}
	}
}

func TestBestSelection(t *testing.T) {
	n1, n2 := testkit.Node(1, 5, 2), testkit.Node(2, 5, 2)
	mk := func(start, exec, cost float64) *core.Window {
		s := testkit.Slot(n1, 0, 1000)
		s2 := testkit.Slot(n2, 0, 1000)
		return core.NewWindow(start, []core.Candidate{
			{Slot: s, Exec: exec, Cost: cost},
			{Slot: s2, Exec: exec / 2, Cost: cost / 2},
		})
	}
	a := mk(0, 40, 100) // start 0, finish 40, cost 150
	b := mk(10, 10, 80) // start 10, finish 20, cost 120
	c := mk(30, 20, 60) // start 30, finish 50, cost 90
	alts := []*core.Window{a, b, c}
	if got := Best(alts, ByStart); got != a {
		t.Errorf("Best by start picked %v", got)
	}
	if got := Best(alts, ByFinish); got != b {
		t.Errorf("Best by finish picked %v", got)
	}
	if got := Best(alts, ByCost); got != c {
		t.Errorf("Best by cost picked %v", got)
	}
	if got := Best(nil, ByCost); got != nil {
		t.Errorf("Best of empty set = %v", got)
	}
}

func TestBestTieResolvesToEarliest(t *testing.T) {
	n1, n2 := testkit.Node(1, 5, 2), testkit.Node(2, 5, 2)
	mk := func(start float64) *core.Window {
		return core.NewWindow(start, []core.Candidate{
			{Slot: testkit.Slot(n1, 0, 1000), Exec: 10, Cost: 50},
		})
	}
	a, b := mk(0), mk(5)
	// Same cost: the earliest-found must win.
	if got := Best([]*core.Window{a, b}, ByCost); got != a {
		t.Errorf("tie not resolved to first alternative")
	}
	_ = n2
}

func TestDisjointDetectsOverlap(t *testing.T) {
	n := testkit.Node(1, 5, 2)
	s := testkit.Slot(n, 0, 1000)
	w1 := core.NewWindow(0, []core.Candidate{{Slot: s, Exec: 30, Cost: 60}})
	w2 := core.NewWindow(20, []core.Candidate{{Slot: s, Exec: 30, Cost: 60}})
	if Disjoint([]*core.Window{w1, w2}) {
		t.Error("overlapping windows reported disjoint")
	}
	w3 := core.NewWindow(30, []core.Candidate{{Slot: s, Exec: 30, Cost: 60}})
	if !Disjoint([]*core.Window{w1, w3}) {
		t.Error("touching windows reported overlapping")
	}
}

func TestAlternativeCountGrowsWithResources(t *testing.T) {
	req := smallRequest()
	count := func(nodes int) int {
		total := 0
		for seed := uint64(1); seed <= 5; seed++ {
			e := testkit.SmallEnv(seed, nodes, 300)
			alts, err := Search(e.Slots, &req, Options{MinSlotLength: 10}, nil)
			if err == nil {
				total += len(alts)
			}
		}
		return total
	}
	small, big := count(10), count(30)
	if big <= small {
		t.Errorf("alternatives did not grow with node count: %d (10 nodes) vs %d (30 nodes)", small, big)
	}
}

func TestSearchDeterministic(t *testing.T) {
	e := testkit.SmallEnv(11, 15, 300)
	req := smallRequest()
	a, errA := Search(e.Slots, &req, Options{MinSlotLength: 10}, nil)
	b, errB := Search(e.Slots, &req, Options{MinSlotLength: 10}, nil)
	if (errA == nil) != (errB == nil) {
		t.Fatal("determinism broken on feasibility")
	}
	if errA != nil {
		return
	}
	if len(a) != len(b) {
		t.Fatalf("alternative counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Start != b[i].Start || a[i].Cost != b[i].Cost {
			t.Fatalf("alternative %d differs between runs", i)
		}
	}
	_ = randx.New(0)
}

// eventCounter tallies what a search reports through the collector seam.
type eventCounter struct {
	scans, selects, batches int
	spans                   map[string]int // by category
}

func (c *eventCounter) ScanDone(obs.ScanStats)     { c.scans++ }
func (c *eventCounter) SelectDone(obs.SelectStats) { c.selects++ }
func (c *eventCounter) BatchDone(obs.BatchStats)   { c.batches++ }
func (c *eventCounter) Span(sp obs.Span)           { c.spans[sp.Cat]++ }

// TestSearchEntriesEventContract pins what each search entry emits per
// call. Consumers key on it: the repository benchmark charges kernel time
// per algorithm by the "select" span, statusz counts searches by
// SelectDone, and a CSA search is one "csa" span around its k+1 quiet AMP
// scans (k found, one that finds nothing) with no select event of its own.
func TestSearchEntriesEventContract(t *testing.T) {
	e := testkit.SmallEnv(3, 15, 300)
	seq, err := slots.SeqOf(e.Slots)
	if err != nil {
		t.Fatal(err)
	}
	req := job.Request{TaskCount: 2, Volume: 60}
	opts := Options{MinSlotLength: 10}
	sc := core.NewScanner()
	k := 0
	for _, tc := range []struct {
		entry   string
		run     func(col obs.Collector) error
		selects int
		scans   func() int
		csa     int
	}{
		{"core.FindObserved", func(col obs.Collector) error {
			_, err := core.FindObserved(core.MinCost{}, e.Slots.Cursor(), &req, col)
			return err
		}, 1, func() int { return 1 }, 0},
		{"Scanner.Find over a list", func(col obs.Collector) error {
			_, err := sc.Find(core.MinFinish{}, e.Slots.Cursor(), &req, col)
			return err
		}, 1, func() int { return 1 }, 0},
		{"Scanner.Find over a sequence", func(col obs.Collector) error {
			_, err := sc.Find(core.AMP{}, seq.Cursor(), &req, col)
			return err
		}, 1, func() int { return 1 }, 0},
		{"csa.Search", func(col obs.Collector) error {
			alts, err := Search(e.Slots, &req, opts, col)
			k = len(alts)
			return err
		}, 0, func() int { return k + 1 }, 1},
		{"Scanner.Alternatives", func(col obs.Collector) error {
			alts, err := sc.Alternatives(e.Slots.Cursor(), &req, opts.MaxAlternatives, opts.MinSlotLength, col)
			k = len(alts)
			return err
		}, 0, func() int { return k + 1 }, 1},
	} {
		col := &eventCounter{spans: map[string]int{}}
		if err := tc.run(col); err != nil {
			t.Fatalf("%s: %v", tc.entry, err)
		}
		if tc.csa == 1 && k < 2 {
			t.Fatalf("%s: %d alternatives; the fixture must yield several", tc.entry, k)
		}
		want := eventCounter{scans: tc.scans(), selects: tc.selects,
			spans: map[string]int{"scan": tc.scans(), "select": tc.selects, "csa": tc.csa}}
		for cat, n := range want.spans {
			if col.spans[cat] != n {
				t.Errorf("%s: %d %q spans, want %d", tc.entry, col.spans[cat], cat, n)
			}
		}
		if col.scans != want.scans || col.selects != want.selects || col.batches != 0 {
			t.Errorf("%s: ScanDone=%d SelectDone=%d BatchDone=%d, want %d/%d/0",
				tc.entry, col.scans, col.selects, col.batches, want.scans, want.selects)
		}
	}
}
