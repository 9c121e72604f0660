package batchsched

import (
	"math"
	"testing"

	"slotsel/internal/core"
	"slotsel/internal/csa"
	"slotsel/internal/job"
	"slotsel/internal/obs"
	"slotsel/internal/slots"
	"slotsel/internal/testkit"
)

func testBatch() *job.Batch {
	b := &job.Batch{}
	b.Add(&job.Job{ID: 1, Name: "a", Priority: 2, Request: job.Request{TaskCount: 3, Volume: 60, MaxCost: 300}})
	b.Add(&job.Job{ID: 2, Name: "b", Priority: 1, Request: job.Request{TaskCount: 2, Volume: 90, MaxCost: 250}})
	b.Add(&job.Job{ID: 3, Name: "c", Priority: 3, Request: job.Request{TaskCount: 2, Volume: 45, MaxCost: 200}})
	return b
}

func TestFindAlternativesDisjointAcrossJobs(t *testing.T) {
	e := testkit.SmallEnv(1, 25, 500)
	alts, err := FindAlternatives(e.Slots, testBatch(), Options{CSA: csa.Options{MinSlotLength: 10, MaxAlternatives: 10}})
	if err != nil {
		t.Fatal(err)
	}
	var all []*core.Window
	for _, ja := range alts {
		all = append(all, ja.Alts...)
		for i, w := range ja.Alts {
			if verr := testkit.ValidateWindow(w, &ja.Job.Request); verr != nil {
				t.Fatalf("job %v alternative %d invalid: %v", ja.Job, i, verr)
			}
		}
	}
	if len(all) == 0 {
		t.Skip("no alternatives at all on this seed")
	}
	if !testkit.Disjoint(all) {
		t.Fatal("alternatives overlap across jobs")
	}
}

func TestFindAlternativesPriorityOrder(t *testing.T) {
	e := testkit.SmallEnv(2, 25, 500)
	alts, err := FindAlternatives(e.Slots, testBatch(), Options{CSA: csa.Options{MinSlotLength: 10, MaxAlternatives: 5}})
	if err != nil {
		t.Fatal(err)
	}
	// Output order must be priority order: job 3 (prio 3), 1 (2), 2 (1).
	wantIDs := []int{3, 1, 2}
	if len(alts) != len(wantIDs) {
		t.Fatalf("%d jobs in output", len(alts))
	}
	for i, ja := range alts {
		if ja.Job.ID != wantIDs[i] {
			t.Fatalf("output order %v, want IDs %v", alts, wantIDs)
		}
	}
}

func TestSelectCombinationRespectsBudget(t *testing.T) {
	e := testkit.SmallEnv(3, 25, 500)
	for _, budget := range []float64{200, 400, 600, 900} {
		plan, err := Schedule(e.Slots, testBatch(), csa.Options{MinSlotLength: 10, MaxAlternatives: 8},
			SelectConfig{Budget: budget, Criterion: csa.ByFinish})
		if err != nil {
			t.Fatal(err)
		}
		if plan.TotalCost > budget*(1+1e-9) {
			t.Fatalf("budget %g: plan cost %g", budget, plan.TotalCost)
		}
	}
}

func TestSelectCombinationMoreBudgetSchedulesMore(t *testing.T) {
	e := testkit.SmallEnv(4, 30, 500)
	opts := csa.Options{MinSlotLength: 10, MaxAlternatives: 8}
	tight, err := Schedule(e.Slots, testBatch(), opts, SelectConfig{Budget: 150, Criterion: csa.ByCost})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := Schedule(e.Slots, testBatch(), opts, SelectConfig{Budget: 2000, Criterion: csa.ByCost})
	if err != nil {
		t.Fatal(err)
	}
	if loose.Scheduled < tight.Scheduled {
		t.Fatalf("more budget scheduled fewer jobs: %d vs %d", loose.Scheduled, tight.Scheduled)
	}
}

// bruteSelect exhaustively searches the combination space (small inputs).
func bruteSelect(alts []JobAlternatives, cfg SelectConfig) (float64, float64) {
	bestVal := math.Inf(1)
	bestCost := 0.0
	var rec func(i int, cost, val float64)
	rec = func(i int, cost, val float64) {
		if cfg.Budget > 0 && cost > cfg.Budget {
			return
		}
		if i == len(alts) {
			if val < bestVal {
				bestVal, bestCost = val, cost
			}
			return
		}
		rec(i+1, cost, val+cfg.RejectPenalty) // reject job i
		for _, w := range alts[i].Alts {
			rec(i+1, cost+w.Cost, val+cfg.Criterion.Value(w))
		}
	}
	rec(0, 0, 0)
	return bestVal, bestCost
}

func TestSelectCombinationNearOptimal(t *testing.T) {
	// The DP discretizes costs upward, so it is optimal on the grid; with a
	// fine grid its objective must match the exhaustive optimum for every
	// criterion on small instances (up to grid slack on feasibility).
	for seed := uint64(1); seed <= 8; seed++ {
		e := testkit.SmallEnv(seed, 20, 400)
		alts, err := FindAlternatives(e.Slots, testBatch(), Options{CSA: csa.Options{MinSlotLength: 10, MaxAlternatives: 4}})
		if err != nil {
			t.Fatal(err)
		}
		cfg := SelectConfig{Budget: 600, Criterion: csa.ByFinish, RejectPenalty: 1e6, BudgetSteps: 6000}
		plan, err := SelectCombination(alts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantVal, _ := bruteSelect(alts, cfg)
		// Grid rounding can only exclude solutions very close to the budget;
		// allow the DP to be at most one reject worse only if the optimum
		// sits within grid slack of the budget. In practice they agree.
		if plan.TotalValue > wantVal+1e-6 {
			// Verify the gap is explained by grid rounding: re-run with an
			// even finer grid.
			cfg.BudgetSteps = 120000
			plan2, err := SelectCombination(alts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if plan2.TotalValue > wantVal+1e-6 {
				t.Fatalf("seed %d: DP value %g, exhaustive %g", seed, plan2.TotalValue, wantVal)
			}
		}
	}
}

func TestSelectUnconstrainedPicksPerJobBest(t *testing.T) {
	e := testkit.SmallEnv(5, 25, 500)
	alts, err := FindAlternatives(e.Slots, testBatch(), Options{CSA: csa.Options{MinSlotLength: 10, MaxAlternatives: 6}})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := SelectCombination(alts, SelectConfig{Criterion: csa.ByCost})
	if err != nil {
		t.Fatal(err)
	}
	for i, ja := range alts {
		want := csa.Best(ja.Alts, csa.ByCost)
		got := plan.Assignments[i].Chosen
		if (want == nil) != (got == nil) {
			t.Fatalf("job %v: chosen %v, want %v", ja.Job, got, want)
		}
		if want != nil && got != want {
			t.Fatalf("job %v: chosen %v, want per-job best %v", ja.Job, got, want)
		}
	}
}

func TestPlanMakespan(t *testing.T) {
	n1, n2 := testkit.Node(1, 5, 1), testkit.Node(2, 5, 1)
	w1 := core.NewWindow(0, []core.Candidate{{Slot: testkit.Slot(n1, 0, 100), Exec: 30, Cost: 30}})
	w2 := core.NewWindow(10, []core.Candidate{{Slot: testkit.Slot(n2, 0, 100), Exec: 50, Cost: 50}})
	p := &Plan{Assignments: []Assignment{{Chosen: w1}, {Chosen: w2}, {Chosen: nil}}}
	if got := p.Makespan(); got != 60 {
		t.Errorf("Makespan = %g, want 60", got)
	}
	empty := &Plan{Assignments: []Assignment{{Chosen: nil}}}
	if got := empty.Makespan(); got != 0 {
		t.Errorf("empty plan Makespan = %g", got)
	}
}

func TestScheduleJobWithNoAlternatives(t *testing.T) {
	// A job that cannot fit anywhere must be rejected, not error out.
	b := &job.Batch{}
	b.Add(&job.Job{ID: 1, Request: job.Request{TaskCount: 50, Volume: 60, MaxCost: 10}})
	e := testkit.SmallEnv(6, 10, 200)
	plan, err := Schedule(e.Slots, b, csa.Options{MinSlotLength: 10}, SelectConfig{Budget: 100, Criterion: csa.ByCost})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Scheduled != 0 {
		t.Fatalf("impossible job scheduled: %+v", plan)
	}
	if plan.Assignments[0].Chosen != nil {
		t.Fatal("impossible job has a window")
	}
}

func TestScheduleInvalidJobFails(t *testing.T) {
	b := &job.Batch{}
	b.Add(&job.Job{ID: 1, Request: job.Request{TaskCount: 0, Volume: 60}})
	e := testkit.SmallEnv(7, 10, 200)
	if _, err := Schedule(e.Slots, b, csa.Options{MinSlotLength: 10}, SelectConfig{Criterion: csa.ByCost}); err == nil {
		t.Fatal("invalid job accepted")
	}
}

func TestScheduleDirected(t *testing.T) {
	e := testkit.SmallEnv(10, 25, 500)
	for _, alg := range []core.Algorithm{core.AMP{}, core.MinCost{}} {
		plan, err := ScheduleDirected(e.Slots, testBatch(), 700, alg, 10, nil)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if plan.TotalCost > 700 {
			t.Fatalf("%s: plan cost %g exceeds the VO budget", alg.Name(), plan.TotalCost)
		}
		var chosen []*core.Window
		for _, a := range plan.Assignments {
			if a.Chosen != nil {
				if verr := testkit.ValidateWindow(a.Chosen, &a.Job.Request); verr != nil {
					// The per-job budget may have been tightened to the
					// remaining VO budget; validate against that instead.
					req := a.Job.Request
					req.MaxCost = 0
					if verr2 := testkit.ValidateWindow(a.Chosen, &req); verr2 != nil {
						t.Fatalf("%s: invalid window: %v", alg.Name(), verr2)
					}
				}
				chosen = append(chosen, a.Chosen)
			}
		}
		if len(chosen) >= 2 && !testkit.Disjoint(chosen) {
			t.Fatalf("%s: directed plan windows overlap", alg.Name())
		}
	}
}

func TestScheduleDirectedUnconstrainedBudget(t *testing.T) {
	e := testkit.SmallEnv(11, 25, 500)
	plan, err := ScheduleDirected(e.Slots, testBatch(), 0, core.AMP{}, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Scheduled == 0 {
		t.Fatal("unconstrained directed pipeline scheduled nothing")
	}
}

// TestScheduleDirectedCollector: the directed pipeline's searches report to
// the collector it is given — one search per job, under the algorithm's own
// name — and a nil collector changes nothing about the plan.
func TestScheduleDirectedCollector(t *testing.T) {
	e := testkit.SmallEnv(11, 25, 500)
	stats := &obs.Stats{}
	observed, err := ScheduleDirected(e.Slots, testBatch(), 0, core.AMP{}, 10, stats)
	if err != nil {
		t.Fatal(err)
	}
	snap := stats.Snapshot()
	if got, want := snap.Selects["AMP"].Searches, len(testBatch().Jobs); got != want {
		t.Errorf("collector saw %d AMP searches, want one per job (%d)", got, want)
	}
	if snap.Scan.Scans != snap.Selects["AMP"].Searches {
		t.Errorf("collector saw %d scans for %d searches", snap.Scan.Scans, snap.Selects["AMP"].Searches)
	}

	plain, err := ScheduleDirected(e.Slots, testBatch(), 0, core.AMP{}, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Scheduled != observed.Scheduled || plain.TotalCost != observed.TotalCost {
		t.Errorf("collector steered the plan: %d jobs / cost %g observed, %d / %g without",
			observed.Scheduled, observed.TotalCost, plain.Scheduled, plain.TotalCost)
	}
}

func TestScheduledWindowsAreDisjoint(t *testing.T) {
	e := testkit.SmallEnv(8, 25, 500)
	plan, err := Schedule(e.Slots, testBatch(), csa.Options{MinSlotLength: 10, MaxAlternatives: 8},
		SelectConfig{Budget: 900, Criterion: csa.ByFinish})
	if err != nil {
		t.Fatal(err)
	}
	var chosen []*core.Window
	for _, a := range plan.Assignments {
		if a.Chosen != nil {
			chosen = append(chosen, a.Chosen)
		}
	}
	if len(chosen) >= 2 && !testkit.Disjoint(chosen) {
		t.Fatal("plan windows overlap")
	}
	_ = slots.List{}
}
