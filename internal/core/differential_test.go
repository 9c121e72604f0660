package core_test

import (
	"fmt"
	"sort"
	"testing"

	"slotsel/internal/core"
	"slotsel/internal/env"
	"slotsel/internal/job"
	"slotsel/internal/randx"
	"slotsel/internal/slots"
	"slotsel/internal/testkit"
)

// diffSeeds is the seed count of the differential suite; the acceptance
// criterion demands signature-equal windows for all shipped algorithms
// across at least 60 seeds.
const diffSeeds = 64

// diffInstance is one instance of the differential suite; seed feeds the
// randomized algorithm and picks the visit the mirror check starts at.
type diffInstance struct {
	name string
	seed uint64
	list slots.List
	req  job.Request
}

// diffInstances are diffSeeds small random heterogeneous instances, then the
// generated environments cmd/slotbench times — 16/32/64/128 nodes under the
// §3.1 request scaled to 2/5/10 tasks — so the rows that are timed are rows
// whose answers were compared (what `slotbench -check` was, as a test).
func diffInstances() []diffInstance {
	var out []diffInstance
	for seed := uint64(1); seed <= diffSeeds; seed++ {
		rng := randx.New(seed)
		list := testkit.HeteroList(rng, 8, 4, 300)
		req := job.Request{
			TaskCount: rng.IntRange(1, 4),
			Volume:    float64(rng.IntRange(40, 150)),
			MaxCost:   float64(rng.IntRange(100, 1200)),
		}
		if rng.Intn(3) == 0 {
			req.Deadline = float64(rng.IntRange(100, 300))
		}
		out = append(out, diffInstance{fmt.Sprintf("seed=%d", seed), seed, list, req})
	}
	for _, nodes := range []int{16, 32, 64, 128} {
		list := env.Generate(env.DefaultConfig().WithNodeCount(nodes), randx.New(1)).Slots
		for _, tasks := range []int{2, 5, 10} {
			out = append(out, diffInstance{
				fmt.Sprintf("nodes=%d/tasks=%d", nodes, tasks), 1, list,
				job.Request{TaskCount: tasks, Volume: 150, MaxCost: 300 * float64(tasks)},
			})
		}
	}
	return out
}

// TestDifferentialIncrementalVsOracle is the kernels' correctness proof:
// every shipped algorithm (running on the incremental WindowIndex kernels)
// must return a window with exactly the signature of its copy+sort oracle
// twin, across diffInstances — both on clean runs and with the aliasing
// poisoner interposed on every scan.
//
// The clean runs also pin the lazy cost mirror on the same instances: after
// every visit of every algorithm the scan's own index either has no cost
// mirror at all (the visit never ran a select that reads it: the random
// step, the exact runtime kernel) or one identical to sorting the window
// from scratch; and a scan that starts selecting at its j-th visit has no
// mirror before that visit and the from-scratch one at every visit after.
func TestDifferentialIncrementalVsOracle(t *testing.T) {
	for _, tc := range []struct {
		name string
		wrap func(t *testing.T, alg core.Algorithm) func(core.VisitFunc) core.VisitFunc
	}{
		{"clean", func(t *testing.T, alg core.Algorithm) func(core.VisitFunc) core.VisitFunc {
			return func(visit core.VisitFunc) core.VisitFunc {
				return func(start float64, win *core.WindowIndex) bool {
					stop := visit(start, win)
					checkCostMirror(t, alg.Name(), win, readsCostMirror(alg))
					return stop
				}
			}
		}},
		{"poisoned", func(*testing.T, core.Algorithm) func(core.VisitFunc) core.VisitFunc { return testkit.PoisonVisit }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer core.SetVisitWrapForTest(nil)
			for _, inst := range diffInstances() {
				seed, list, req := inst.seed, inst.list, inst.req
				for _, alg := range catalogue(seed) {
					oracle, ok := core.Oracle(alg)
					if !ok {
						t.Fatalf("no oracle twin for %s", alg.Name())
					}
					r1, r2 := req, req
					core.SetVisitWrapForTest(tc.wrap(t, alg))
					incW, incErr := alg.Find(list, &r1)
					core.SetVisitWrapForTest(tc.wrap(t, oracle))
					orcW, orcErr := oracle.Find(list, &r2)
					core.SetVisitWrapForTest(nil)
					if (incErr == nil) != (orcErr == nil) {
						t.Fatalf("%s alg=%s: feasibility diverged: incremental err=%v, oracle err=%v",
							inst.name, alg.Name(), incErr, orcErr)
					}
					if incErr != nil {
						continue
					}
					is, os := testkit.WindowSignature(incW), testkit.WindowSignature(orcW)
					if is != os {
						t.Errorf("%s alg=%s: incremental and oracle windows diverged\nincremental: %s\noracle:      %s",
							inst.name, alg.Name(), is, os)
					}
				}

				// Selecting from the j-th visit on: no mirror before, the
				// from-scratch mirror ever after (built at visit j from the
				// window as it stood, maintained by add/expire since).
				j, visits := int(seed%4), 0
				r := req
				if err := core.Scan(list.Cursor(), &r, func(_ float64, win *core.WindowIndex) bool {
					if visits >= j {
						win.SelectMinCost(r.TaskCount, r.MaxCost)
					}
					checkCostMirror(t, "select-from-j", win, visits >= j)
					visits++
					return false
				}, nil); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestDifferentialSmallBlocks repeats the oracle differential with selection
// orders whose blocks hold 2, 3 or 5 handles, over lists wide enough for
// windows of a few dozen candidates: every insertion, expiry, in-order walk
// and "next lighter candidate" of a search crosses blocks that split and
// merge under it.
func TestDifferentialSmallBlocks(t *testing.T) {
	for _, bcap := range []int{2, 3, 5} {
		prev := core.SetOrderBlockCapForTest(bcap)
		for seed := uint64(1); seed <= 24; seed++ {
			rng := randx.New(seed)
			list := testkit.HeteroList(rng, 40, 4, 300)
			req := job.Request{
				TaskCount: rng.IntRange(1, 6),
				Volume:    float64(rng.IntRange(40, 150)),
				MaxCost:   float64(rng.IntRange(100, 2000)),
			}
			if rng.Intn(3) == 0 {
				req.Deadline = float64(rng.IntRange(100, 300))
			}
			for _, alg := range catalogue(seed) {
				oracle, _ := core.Oracle(alg)
				r1, r2 := req, req
				incW, incErr := alg.Find(list, &r1)
				orcW, orcErr := oracle.Find(list, &r2)
				if (incErr == nil) != (orcErr == nil) {
					t.Fatalf("cap=%d seed=%d alg=%s: feasibility diverged: incremental err=%v, oracle err=%v",
						bcap, seed, alg.Name(), incErr, orcErr)
				}
				if is, os := testkit.WindowSignature(incW), testkit.WindowSignature(orcW); is != os {
					t.Errorf("cap=%d seed=%d alg=%s: incremental and oracle windows diverged\nincremental: %s\noracle:      %s",
						bcap, seed, alg.Name(), is, os)
				}
			}
		}
		core.SetOrderBlockCapForTest(prev)
	}
}

// readsCostMirror reports whether the algorithm's per-visit select reads the
// cost-ordered mirror. The copy+sort oracle twins, the random MinProcTime
// step and the exact runtime kernel (which walks the exec mirror) do not.
func readsCostMirror(alg core.Algorithm) bool {
	switch a := alg.(type) {
	case core.AMP, core.MinCost, core.MinProcTimeGreedy, core.MinEnergy:
		return true
	case core.MinRunTime:
		return !a.Exact
	case core.MinFinish:
		return !a.Exact
	}
	return false
}

// checkCostMirror compares the index's cost mirror and prefix sums with a
// sort of the window from scratch (active) or with nothing at all (!active),
// and holds the cost order, cut or whole, to its definition.
func checkCostMirror(t *testing.T, who string, win *core.WindowIndex, active bool) {
	t.Helper()
	if err := win.CheckCostOrderForTest(); err != nil {
		t.Fatalf("%s: %v", who, err)
	}
	got := win.ByCost()
	if !active {
		if len(got) != 0 {
			t.Fatalf("%s: %d candidates in a cost mirror no select ever read", who, len(got))
		}
		return
	}
	want := append([]core.Candidate(nil), win.Cands()...)
	sort.Slice(want, func(i, j int) bool {
		a, b := want[i], want[j]
		if a.Cost != b.Cost {
			return a.Cost < b.Cost
		}
		if a.Exec != b.Exec {
			return a.Exec < b.Exec
		}
		return a.Slot.Node.ID < b.Slot.Node.ID
	})
	if len(got) != len(want) {
		t.Fatalf("%s: cost mirror holds %d candidates, window %d", who, len(got), len(want))
	}
	sum := 0.0
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: ByCost[%d] = %+v, sorted from scratch %+v", who, i, got[i], want[i])
		}
		sum += want[i].Cost
		if p := win.PrefixCost(i + 1); p != sum {
			t.Fatalf("%s: PrefixCost(%d) = %x, left-to-right sum %x", who, i+1, p, sum)
		}
	}
}

// TestAMPTiedStartCoalescing is the regression test of the equal-start scan
// bugfix: two nodes publish slots starting at the same instant, ordered so
// the costlier node's slot precedes the cheaper one in the sorted list
// (SortByStart breaks start ties by node ID). Before the fix the scan
// visited after admitting only the first slot, so AMP — which commits to
// the first feasible window — locked in the costlier node; with equal-start
// slots coalesced into one visit, AMP sees the full candidate set and picks
// the true cheapest sub-window at the earliest feasible start.
func TestAMPTiedStartCoalescing(t *testing.T) {
	costly := testkit.Node(1, 5, 4) // exec = 60/5 = 12, cost = 12*4 = 48
	cheap := testkit.Node(2, 5, 1)  // exec = 12, cost = 12*1 = 12
	list := testkit.SlotList(
		testkit.Slot(costly, 0, 100),
		testkit.Slot(cheap, 0, 100),
	)
	req := job.Request{TaskCount: 1, Volume: 60}

	// Pin the scenario's premise: the slot the scan admits first (node ID
	// tie-break) really is the strictly costlier candidate — the pre-fix
	// AMP window.
	preFixCost := req.ExecTime(costly) * costly.Price
	fixedCost := req.ExecTime(cheap) * cheap.Price
	if preFixCost <= fixedCost {
		t.Fatalf("bad fixture: pre-fix cost %v not strictly above post-fix cost %v", preFixCost, fixedCost)
	}

	w, err := core.AMP{}.Find(list, &req)
	if err != nil {
		t.Fatal(err)
	}
	if w.Start != 0 {
		t.Fatalf("AMP start = %v, want 0 (coalescing must not delay the first visit)", w.Start)
	}
	if got := w.Placements[0].Node().ID; got != cheap.ID {
		t.Fatalf("AMP picked node %d (cost %v) at the tied start, want node %d (cost %v)",
			got, w.Cost, cheap.ID, fixedCost)
	}
	if w.Cost != fixedCost {
		t.Fatalf("AMP window cost = %v, want %v", w.Cost, fixedCost)
	}

	// The oracle twin runs the same coalescing scan; both paths must agree.
	oracle, _ := core.Oracle(core.AMP{})
	ow, err := oracle.Find(list, &req)
	if err != nil {
		t.Fatal(err)
	}
	if testkit.WindowSignature(ow) != testkit.WindowSignature(w) {
		t.Fatalf("oracle twin diverged at tied start:\nincremental: %s\noracle:      %s",
			testkit.WindowSignature(w), testkit.WindowSignature(ow))
	}
}

// TestWindowIndexTiedCostDeterminism pins the index's documented tie-break:
// candidates with equal cost order by execution time, and candidates with
// equal cost and execution time order by node ID — regardless of insertion
// order.
func TestWindowIndexTiedCostDeterminism(t *testing.T) {
	// Six candidates, all cost 24: two exec classes, three nodes each.
	// Perf picked so exec differs (60/5=12 vs 60/10=6) while price keeps
	// cost tied (12*2 = 6*4 = 24).
	mk := func(id int, perf, price float64) core.Candidate {
		n := testkit.Node(id, perf, price)
		exec := 60 / perf
		return core.Candidate{Slot: testkit.Slot(n, 0, 100), Exec: exec, Cost: exec * price}
	}
	cands := []core.Candidate{
		mk(11, 10, 4), mk(12, 10, 4), mk(13, 10, 4), // exec 6
		mk(21, 5, 2), mk(22, 5, 2), mk(23, 5, 2), // exec 12
	}
	wantOrder := []int{11, 12, 13, 21, 22, 23} // exec asc, then node ID

	for seed := uint64(1); seed <= 20; seed++ {
		rng := randx.New(seed)
		shuffled := append([]core.Candidate(nil), cands...)
		for i := len(shuffled) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		ix := core.NewWindowIndex(shuffled)
		got := ix.ByCost()
		if len(got) != len(wantOrder) {
			t.Fatalf("seed=%d: index holds %d candidates, want %d", seed, len(got), len(wantOrder))
		}
		for i, want := range wantOrder {
			if got[i].Slot.Node.ID != want {
				t.Fatalf("seed=%d: ByCost[%d] = node %d, want node %d (cost→exec→node-ID tie-break)",
					seed, i, got[i].Slot.Node.ID, want)
			}
		}
	}
}
