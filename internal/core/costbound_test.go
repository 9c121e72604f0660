package core_test

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"slotsel/internal/core"
	"slotsel/internal/env"
	"slotsel/internal/job"
	"slotsel/internal/nodes"
	"slotsel/internal/randx"
	"slotsel/internal/slots"
	"slotsel/internal/testkit"
)

// MinCost's cost bound: the scan admits a slot only if some window holding
// it could still be accepted. The tests below hold the bounded search to
// plainMinCost (the same scan selecting over every admitted candidate) and
// to the stable-sort oracle, window for window, and its counters to
// plainMinCost's: the same Slots and Matched, no more Candidates.

// checkCostBound runs MinCost and plainMinCost over list and compares them.
// It returns both searches' counters.
func checkCostBound(t *testing.T, who string, list slots.List, req job.Request) (bounded, plain statsRecorder) {
	t.Helper()
	r := req
	w, err := core.NewScanner().Find(core.MinCost{}, list.Cursor(), &r, &bounded)
	if err != nil && err != core.ErrNoWindow {
		t.Fatalf("%s: %v", who, err)
	}
	pw, perr := plainMinCost(list, req, &plain)
	if (err == nil) != (perr == nil) {
		t.Fatalf("%s: bounded err=%v, plain err=%v", who, err, perr)
	}
	sw, _ := stableFind(list, req, false)
	got, want, oracle := testkit.WindowSignature(w), testkit.WindowSignature(pw), testkit.WindowSignature(sw)
	if got != want || want != oracle {
		t.Errorf("%s: windows diverged\nbounded: %s\nplain:   %s\noracle:  %s", who, got, want, oracle)
	}
	b, p := bounded.last, plain.last
	if b.Slots != p.Slots || b.Matched != p.Matched || b.Candidates > p.Candidates {
		t.Errorf("%s: bounded ScanStats %+v, plain %+v: want its Slots and Matched, at most its Candidates", who, b, p)
	}
	return bounded, plain
}

// unitNode is a node on which a task of volume 1 runs for exactly 1, so a
// candidate's cost is its node's price, bit for bit.
func unitNode(id int, price float64) *nodes.Node { return testkit.Node(id, 1, price) }

func TestCostBoundAdversarial(t *testing.T) {
	unit := job.Request{TaskCount: 2, Volume: 1}

	t.Run("a later window that ties the best", func(t *testing.T) {
		// {0, 1} at 0 costs 0.1+0.7; {2, 3} at 10 costs exactly as much and
		// must not replace it. Node 3 can sit in no window cheaper than the
		// best, so it is left out; node 2 could, beside a second 0.1.
		list := testkit.SlotList(
			testkit.Slot(unitNode(0, 0.1), 0, 5), testkit.Slot(unitNode(1, 0.7), 0, 5),
			testkit.Slot(unitNode(2, 0.1), 10, 20), testkit.Slot(unitNode(3, 0.7), 10, 20),
		)
		b, p := checkCostBound(t, "tie", list, unit)
		if b.last.Candidates != 3 || p.last.Candidates != 4 {
			t.Errorf("admitted %d of %d candidates, want all but node 3", b.last.Candidates, p.last.Candidates)
		}
		if w, err := (core.MinCost{}).Find(list, &unit); err != nil || w.Start != 0 {
			t.Errorf("window %s, want the first at 0", testkit.WindowSignature(w))
		}
	})

	t.Run("costs one ulp either side of the ceiling", func(t *testing.T) {
		// After {0, 1} (cost best), a window {0, c} is accepted iff
		// 0.1 + c < best. Node 2 costs the largest such c, node 3 one ulp
		// more: node 2 is admitted and wins, node 3 is not.
		a, b := 0.1, 0.7
		best := a + b
		c := best - a
		for a+c >= best {
			c = math.Nextafter(c, math.Inf(-1))
		}
		for a+math.Nextafter(c, math.Inf(1)) < best {
			c = math.Nextafter(c, math.Inf(1))
		}
		list := testkit.SlotList(
			testkit.Slot(unitNode(0, a), 0, 50), testkit.Slot(unitNode(1, b), 0, 5),
			testkit.Slot(unitNode(2, c), 10, 20), testkit.Slot(unitNode(3, math.Nextafter(c, math.Inf(1))), 10, 20),
		)
		bs, _ := checkCostBound(t, "ulp", list, unit)
		if bs.last.Candidates != 3 {
			t.Errorf("admitted %d candidates, want nodes 0, 1 and 2", bs.last.Candidates)
		}
		w, err := core.MinCost{}.Find(list, &unit)
		if err != nil || w.Start != 10 || w.Cost != a+c {
			t.Errorf("window %s, want {0, 2} at 10", testkit.WindowSignature(w))
		}
	})

	t.Run("the ceiling is exact", func(t *testing.T) {
		rng := randx.New(41)
		for i := 0; i < 2000; i++ {
			low := make([]float64, rng.Intn(6))
			for j := range low {
				low[j] = (rng.Float64() - 0.3) * math.Pow(10, float64(rng.IntRange(-3, 6)))
			}
			sort.Float64s(low)
			limit := floorOf(low, (rng.Float64()-0.3)*math.Pow(10, float64(rng.IntRange(-3, 6))))
			switch rng.Intn(4) { // a limit one ulp off a window's cost
			case 0:
				limit = math.Nextafter(limit, math.Inf(1))
			case 1:
				limit = math.Nextafter(limit, math.Inf(-1))
			}
			for _, orEqual := range []bool{false, true} {
				fits := func(x float64) bool {
					f := floorOf(low, x)
					return f < limit || orEqual && f == limit
				}
				c := core.CostCeilingForTest(low, limit, orEqual)
				if !fits(c) || (c < math.Inf(1) && fits(math.Nextafter(c, math.Inf(1)))) {
					t.Fatalf("low=%v limit=%x orEqual=%v: ceiling %x is not the largest cost that fits", low, limit, orEqual, c)
				}
			}
		}
	})

	t.Run("NaN and infinite prices", func(t *testing.T) {
		// A NaN or infinite cost voids the bound — float sums are no longer
		// monotone — so every candidate is admitted; and every scan admits
		// the slot, bound or none. It comes after the first start and after
		// n admitted slots, where a finite cost that high would be skipped
		// unread. (AMP and the runtime criteria stop at 0, before it.)
		for _, price := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for _, budget := range []float64{0, 3} {
				list := testkit.SlotList(
					testkit.Slot(unitNode(0, 0.1), 0, 5), testkit.Slot(unitNode(1, 0.7), 0, 5),
					testkit.Slot(unitNode(2, price), 2, 20),
					testkit.Slot(unitNode(3, 0.9), 10, 20), testkit.Slot(unitNode(4, 0.9), 10, 20),
				)
				req := unit
				req.MaxCost = budget
				who := fmt.Sprintf("price=%g budget=%g", price, budget)
				b, p := checkCostBound(t, who, list, req)
				if b.last != p.last {
					t.Errorf("%s: the bound stayed on: %+v, plain %+v", who, b.last, p.last)
				}
				for _, alg := range []core.Algorithm{core.MinCost{}, core.MinEnergy{}, core.MinProcTimeGreedy{}, core.MinProcTime{Seed: 1}} {
					var rec statsRecorder
					r := req
					_, _ = core.NewScanner().Find(alg, list.Cursor(), &r, &rec)
					if rec.last.Candidates != len(list) {
						t.Errorf("%s alg=%s: admitted %d of the %d slots", who, alg.Name(), rec.last.Candidates, len(list))
					}
				}
			}
		}
	})

	t.Run("a zero execution time", func(t *testing.T) {
		// On an infinitely fast node a task takes no time, so two touching
		// slots of it can both sit in one window: the track argument fails
		// and the bound is void, as a NaN's is.
		list := testkit.SlotList(
			testkit.Slot(unitNode(0, 0.1), 0, 5), testkit.Slot(unitNode(1, 0.7), 0, 5),
			testkit.Slot(testkit.Node(2, math.Inf(1), 1), 2, 6), testkit.Slot(testkit.Node(2, math.Inf(1), 1), 6, 20),
			testkit.Slot(unitNode(3, 0.9), 10, 20), testkit.Slot(unitNode(4, 0.9), 10, 20),
		)
		if b, p := checkCostBound(t, "zero exec", list, unit); b.last != p.last {
			t.Errorf("the bound stayed on: %+v, plain %+v", b.last, p.last)
		}
	})

	t.Run("negative prices", func(t *testing.T) {
		for seed := uint64(1); seed <= 40; seed++ {
			rng := randx.New(seed)
			list := testkit.RandomList(rng, 30, 3, 300)
			for _, s := range list {
				if s.Node.ID%3 == 0 && s.Node.Price > 0 {
					s.Node.Price = -s.Node.Price
				}
			}
			req := job.Request{TaskCount: rng.IntRange(1, 5), Volume: float64(rng.IntRange(40, 150))}
			if seed%2 == 0 {
				req.MaxCost = float64(rng.IntRange(50, 500))
			}
			checkCostBound(t, fmt.Sprintf("negative seed=%d", seed), list, req)
		}
	})

	t.Run("one node with overlapping slots", func(t *testing.T) {
		// Node 0 is the cheapest, and its overlapping slots are the low
		// costs twice over: a window of two of them is a window.
		cheap := unitNode(0, 0.05)
		list := testkit.SlotList(
			testkit.Slot(unitNode(1, 0.6), 0, 5), testkit.Slot(unitNode(2, 0.7), 0, 5),
			testkit.Slot(cheap, 3, 40), testkit.Slot(cheap, 4, 40), testkit.Slot(cheap, 4, 30),
			testkit.Slot(unitNode(3, 0.06), 6, 40),
		)
		for n := 1; n <= 3; n++ {
			req := unit
			req.TaskCount = n
			checkCostBound(t, fmt.Sprintf("overlap n=%d", n), list, req)
		}
		for seed := uint64(1); seed <= 12; seed++ {
			rng := randx.New(seed)
			req := job.Request{TaskCount: rng.IntRange(1, 4), Volume: 60}
			checkCostBound(t, fmt.Sprintf("ties seed=%d", seed), tieList(rng, 30, int(seed%3)*3), req)
		}
	})

	t.Run("a binding budget from the first step", func(t *testing.T) {
		// Only {0, 1} fits the budget; before any window is found, every
		// dearer slot is already left out. The first start holds one slot,
		// so the bound has its n−1 lowest costs only past it.
		a, b := 0.1, 0.2
		list := testkit.SlotList(
			testkit.Slot(unitNode(2, 0.5), 0, 50), testkit.Slot(unitNode(3, 0.6), 0.5, 50),
			testkit.Slot(unitNode(4, 0.55), 1, 50),
			testkit.Slot(unitNode(0, a), 10, 50), testkit.Slot(unitNode(1, b), 10, 50),
		)
		req := unit
		req.MaxCost = a + b
		bs, ps := checkCostBound(t, "binding", list, req)
		if bs.last.Candidates != 2 || ps.last.Candidates != 5 || bs.last.Visits != 1 {
			t.Errorf("admitted %d of %d candidates over %d visits, want the two that fit, one visit", bs.last.Candidates, ps.last.Candidates, bs.last.Visits)
		}
		// One ulp less and nothing fits. Node 0 is still admitted: the
		// bound pairs it with the cheapest cost of the scan, its own.
		req.MaxCost = math.Nextafter(a+b, 0)
		if bs, _ := checkCostBound(t, "nothing fits", list, req); bs.last.Candidates != 1 {
			t.Errorf("a budget nothing fits admitted %d candidates, want node 0", bs.last.Candidates)
		}
	})

	t.Run("a slot admitted and expired at its own start", func(t *testing.T) {
		// end >= start+exec admits the cheap slot, and end−start >= exec,
		// the expiry's test, drops it at once: no window holds it, so the
		// cheapest one-slot group is not a window's cost and must not bound
		// the answer, which is the dear slot at 200.
		const start, end, exec = 80.61854646744074, 122.99023331430237, 42.37168684686164
		list := testkit.SlotList(
			testkit.Slot(testkit.Node(0, 1, 0.01), start, end),
			testkit.Slot(testkit.Node(1, 1, 5), 200, 300),
		)
		req := job.Request{TaskCount: 1, Volume: exec}
		if b, _ := checkCostBound(t, "expired at its start", list, req); b.last.Visits != 1 {
			t.Errorf("%d visits, want the dear slot's", b.last.Visits)
		}
	})

	t.Run("random instances", func(t *testing.T) {
		// n = 1 to 6, deadlines, requirement filters and budgets from none
		// to binding, over the dump's lists.
		for seed := uint64(1); seed <= 120; seed++ {
			rng := randx.New(seed)
			list := testkit.HeteroList(rng, rng.IntRange(4, 60), 4, 600)
			req := job.Request{TaskCount: rng.IntRange(1, 6), Volume: float64(rng.IntRange(40, 150))}
			if seed%4 == 1 {
				req.TaskCount = 1
			}
			if rng.Intn(2) == 0 {
				req.Deadline = float64(rng.IntRange(100, 600))
			}
			if rng.Intn(3) == 0 {
				req.MinPerf = float64(rng.IntRange(3, 8))
			}
			if w, err := (core.MinCost{}).Find(list, &req); err == nil && seed%3 != 0 {
				req.MaxCost = w.Cost * []float64{1, 1.02, 1.6}[seed%3]
			}
			checkCostBound(t, fmt.Sprintf("seed=%d", seed), list, req)
		}
	})
}

// floorOf is the cost of a window of x and low: summed left to right in
// ascending order, from 0.
func floorOf(low []float64, x float64) float64 {
	all := append(append([]float64(nil), low...), x)
	sort.Float64s(all)
	sum := 0.0
	for _, c := range all {
		sum += c
	}
	return sum
}

// TestCostBoundPrunes is the pruning gate at slotbench's find_scale shape
// (env.Generate seed 1, 5 tasks of volume 150, budget 3 750): MinCost
// admits at most 10 % of the candidates plainMinCost does at 1 024 nodes
// and at most 5 % at 4 096, and finds the same window. The counts are
// deterministic.
func TestCostBoundPrunes(t *testing.T) {
	for _, tc := range []struct {
		nodes int
		share float64
	}{{1024, 0.10}, {4096, 0.05}} {
		list := env.Generate(env.DefaultConfig().WithNodeCount(tc.nodes), randx.New(1)).Slots
		req := job.Request{TaskCount: 5, Volume: 150, MaxCost: 5 * 150 * 5}
		var bounded, plain statsRecorder
		r := req
		w, err := core.NewScanner().Find(core.MinCost{}, list.Cursor(), &r, &bounded)
		if err != nil {
			t.Fatal(err)
		}
		pw, err := plainMinCost(list, req, &plain)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := testkit.WindowSignature(w), testkit.WindowSignature(pw); got != want {
			t.Errorf("%d nodes: windows diverged\nbounded: %s\nplain:   %s", tc.nodes, got, want)
		}
		b, p := bounded.last.Candidates, plain.last.Candidates
		t.Logf("%d nodes: %d of %d candidates admitted (%.1f %%), %d of %d visits", tc.nodes, b, p, 100*float64(b)/float64(p), bounded.last.Visits, plain.last.Visits)
		if float64(b) > tc.share*float64(p) {
			t.Errorf("%d nodes: admitted %d of %d candidates, more than %.0f %%", tc.nodes, b, p, 100*tc.share)
		}
	}
}
