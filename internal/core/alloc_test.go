package core_test

import (
	"testing"
	"time"

	"slotsel/internal/core"
	"slotsel/internal/env"
	"slotsel/internal/job"
	"slotsel/internal/randx"
	"slotsel/internal/slots"
	"slotsel/internal/testkit"
)

// This file is the zero-allocation regression gate (run by CI's bench-smoke
// job without the race detector): every indexed algorithm must perform ZERO
// steady-state heap allocations per Find on a warmed-up Scanner, and the
// public pooled entry points must stay within their small documented
// budgets. The tests use explicit Scanners, not the pool: sync.Pool entries
// are droppable by GC, which would make a pool-based zero-budget test flaky.

// allocBudget pairs an algorithm with its per-Find budgets: zero on a
// warmed-up scanner for every algorithm, and the public pooled Find's
// small documented cost — two allocations for the result detach (Window
// struct + placements array), plus one interface re-boxing of the
// receiver inside FindObserved for the flag-carrying algorithm structs
// (the zero-sized and small-word receivers box for free via the
// runtime's static singletons).
type allocBudget struct {
	alg     core.Algorithm
	scanner float64
	public  float64
}

// scannerBudgets is the steady-state contract of Scanner.Find: all
// nine catalogue algorithms at zero — including MinProcTime, whose RNG path
// draws its sample through randx.SampleInto into scanner-owned scratch.
func scannerBudgets() []allocBudget {
	return []allocBudget{
		{core.AMP{}, 0, 2},
		{core.MinCost{}, 0, 2},
		{core.MinRunTime{}, 0, 3},
		{core.MinRunTime{Exact: true}, 0, 3},
		{core.MinFinish{}, 0, 2},
		{core.MinFinish{Exact: true}, 0, 2},
		{core.MinProcTimeGreedy{}, 0, 2},
		{core.MinEnergy{}, 0, 2},
		{core.MinProcTime{Seed: 11}, 0, 2},
	}
}

// TestScannerFindAllocs is the tentpole's acceptance gate: steady-state
// Finds on a reused Scanner allocate nothing, for every catalogue
// algorithm.
func TestScannerFindAllocs(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	rng := randx.New(3)
	list := testkit.RandomList(rng, 16, 4, 400)
	req := job.Request{TaskCount: 3, Volume: 80, MaxCost: 5000}
	for _, ab := range scannerBudgets() {
		sc := core.NewScanner()
		r := req // outside the closure: the visitor retains &r for the search
		// Warm up past lazy capacity growth (byExec activation, arena).
		if _, err := sc.Find(ab.alg, list.Cursor(), &r, nil); err != nil {
			t.Fatalf("%s: warm-up find failed: %v", ab.alg.Name(), err)
		}
		got := testing.AllocsPerRun(50, func() {
			_, _ = sc.Find(ab.alg, list.Cursor(), &r, nil)
		})
		if got > ab.scanner {
			t.Errorf("%s: %v allocs/op on a warmed-up scanner, budget %v", ab.alg.Name(), got, ab.scanner)
		}
	}
}

// TestScannerFindAllocsLargeWindow is the same gate at the repository
// benchmark's size — 1 024 nodes, windows of several hundred candidates,
// selection orders of dozens of blocks — so a structure that is only
// allocation-free while its window fits its first block is caught.
func TestScannerFindAllocsLargeWindow(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	list, req := testkit.DeepPool(600)
	seq, err := slots.SeqOf(list)
	if err != nil {
		t.Fatal(err)
	}
	for _, ab := range scannerBudgets() {
		sc := core.NewScanner()
		r := req
		if _, err := sc.Find(ab.alg, seq.Cursor(), &r, nil); err != nil {
			t.Fatalf("%s: warm-up find failed: %v", ab.alg.Name(), err)
		}
		got := testing.AllocsPerRun(3, func() {
			_, _ = sc.Find(ab.alg, seq.Cursor(), &r, nil)
		})
		if got > ab.scanner {
			t.Errorf("%s: %v allocs/op at 1024 nodes, budget %v", ab.alg.Name(), got, ab.scanner)
		}
	}
}

// TestScanCostGrowth gates the slope of a scan in the node count: the time
// per scanned slot at 4 096 nodes (windows of about 2 700 candidates) is at
// most three times that at 512 nodes (about 340). Two rows are full-window
// witnesses, scans that keep every admitted candidate: plainMinCost, which
// selects the n cheapest at every visit, and MinEnergy's additive greedy.
// MinCost itself is a third row, pruned by its cost bound. (MinRunTime
// stops at its floor.) A step or a visit that walks the window grows
// eightfold between the two sizes — the mirrors this index replaced
// measured 11x and 7x — while O(log w) steps and O(n + r log w) visits stay
// within 1.5x, so the margin holds on a noisy runner. Minimum of three
// timed searches a side.
func TestScanCostGrowth(t *testing.T) {
	if testkit.RaceEnabled || testing.Short() {
		t.Skip("timing test: skipped under -race and -short")
	}
	req := job.Request{TaskCount: 5, Volume: 150, MaxCost: 5 * 150 * 5} // the benchmark's booking shape
	scanner := func(alg core.Algorithm) func(slots.List, *slots.Seq) error {
		sc := core.NewScanner()
		return func(_ slots.List, seq *slots.Seq) error {
			r := req
			_, err := sc.Find(alg, seq.Cursor(), &r, nil)
			return err
		}
	}
	rows := []struct {
		name string
		find func(slots.List, *slots.Seq) error
	}{
		{"plain MinCost (full window)", func(list slots.List, _ *slots.Seq) error {
			_, err := plainMinCost(list, req, nil)
			return err
		}},
		{"MinEnergy (full window)", scanner(core.MinEnergy{})},
		{"MinCost (cost bound)", scanner(core.MinCost{})},
	}
	perSlot := func(find func(slots.List, *slots.Seq) error, nodeCount int) float64 {
		e := env.Generate(env.DefaultConfig().WithNodeCount(nodeCount), randx.New(1))
		seq, err := slots.SeqOf(e.Slots)
		if err != nil {
			t.Fatal(err)
		}
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 4; i++ { // the first search sizes the scanner
			begin := time.Now()
			if err := find(e.Slots, seq); err != nil {
				t.Fatalf("%d nodes: %v", nodeCount, err)
			}
			if d := time.Since(begin); i > 0 && d < best {
				best = d
			}
		}
		return float64(best.Nanoseconds()) / float64(len(e.Slots))
	}
	for _, row := range rows {
		small, large := perSlot(row.find, 512), perSlot(row.find, 4096)
		t.Logf("%s: %.0f ns/slot at 512 nodes, %.0f ns/slot at 4096 nodes (x%.2f)", row.name, small, large, large/small)
		if large > 3*small {
			t.Errorf("%s: %.0f ns/slot at 4096 nodes is more than 3x the %.0f ns/slot at 512", row.name, large, small)
		}
	}
}

// TestPublicFindAllocs documents the public Algorithm.Find budget: the
// pooled path costs the result detach (one Window struct + one placements
// array, the price of the caller-owned result contract) plus at most one
// interface re-boxing (see allocBudget). Pool Get/Put of pointers is free.
func TestPublicFindAllocs(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	rng := randx.New(3)
	list := testkit.RandomList(rng, 16, 4, 400)
	req := job.Request{TaskCount: 3, Volume: 80, MaxCost: 5000}
	for _, ab := range scannerBudgets() {
		r := req
		if _, err := ab.alg.Find(list, &r); err != nil {
			t.Fatalf("%s: warm-up find failed: %v", ab.alg.Name(), err)
		}
		got := testing.AllocsPerRun(50, func() {
			_, _ = ab.alg.Find(list, &r)
		})
		if got > ab.public {
			t.Errorf("%s: %v allocs/op through the public Find, budget %v", ab.alg.Name(), got, ab.public)
		}
	}
}
