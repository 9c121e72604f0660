package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"slotsel/internal/job"
	"slotsel/internal/randx"
	"slotsel/internal/slots"
)

// randomSmallList builds an arbitrary sorted slot list for oracle tests.
func randomSmallList(rng *randx.Rand, nodeCount int) slots.List {
	var l slots.List
	for id := 0; id < nodeCount; id++ {
		n := testNode(id, float64(rng.IntRange(2, 10)), 0.5+2*rng.Float64())
		cursor := 0.0
		for s := 0; s < 2; s++ {
			start := cursor + rng.FloatRange(0, 60)
			end := start + rng.FloatRange(5, 120)
			if end > 300 {
				break
			}
			l = append(l, slot(n, start, end))
			cursor = end + 1
		}
	}
	l.SortByStart()
	return l
}

// allAlgorithms returns every selection algorithm for generic validity
// tests.
func allAlgorithms() []Algorithm {
	return []Algorithm{
		AMP{},
		MinCost{},
		MinRunTime{},
		MinRunTime{Exact: true},
		MinRunTime{LiteralBudget: true},
		MinFinish{},
		MinFinish{Exact: true},
		MinProcTime{Seed: 3},
		MinProcTimeGreedy{},
		MinEnergy{},
	}
}

func TestAllAlgorithmsReturnValidWindows(t *testing.T) {
	rng := randx.New(100)
	for trial := 0; trial < 50; trial++ {
		l := randomSmallList(rng, 8)
		req := job.Request{TaskCount: 3, Volume: 60, MaxCost: 200}
		for _, alg := range allAlgorithms() {
			w, err := alg.Find(l, &req)
			if errors.Is(err, ErrNoWindow) {
				continue
			}
			if err != nil {
				t.Fatalf("trial %d, %s: %v", trial, alg.Name(), err)
			}
			if verr := w.Validate(&req); verr != nil {
				t.Fatalf("trial %d, %s returned invalid window: %v", trial, alg.Name(), verr)
			}
		}
	}
}

func TestAllAlgorithmsAgreeOnFeasibility(t *testing.T) {
	// The deterministic algorithms search the same space; if one finds a
	// window, all must (the budget-feasible choice at some step exists for
	// all: the n cheapest is the feasibility witness). MinProcTime is
	// excluded: its random per-step pick can miss budget-feasible windows.
	rng := randx.New(200)
	det := []Algorithm{AMP{}, MinCost{}, MinRunTime{}, MinRunTime{Exact: true}, MinFinish{}, MinFinish{Exact: true}}
	for trial := 0; trial < 80; trial++ {
		l := randomSmallList(rng, 6)
		req := job.Request{TaskCount: 3, Volume: 60, MaxCost: 150}
		found := 0
		for _, alg := range det {
			if _, err := alg.Find(l, &req); err == nil {
				found++
			} else if !errors.Is(err, ErrNoWindow) {
				t.Fatal(err)
			}
		}
		if found != 0 && found != len(det) {
			t.Fatalf("trial %d: %d/%d deterministic algorithms found a window", trial, found, len(det))
		}
	}
}

func TestAMPReturnsEarliestStart(t *testing.T) {
	// Oracle: the minimum over all scan positions with a budget-feasible
	// n-cheapest selection. Re-scan collecting every feasible start.
	rng := randx.New(300)
	for trial := 0; trial < 60; trial++ {
		l := randomSmallList(rng, 7)
		req := job.Request{TaskCount: 3, Volume: 60, MaxCost: 200}
		var feasibleStarts []float64
		if err := Scan(l.Cursor(), &req, func(start float64, win *WindowIndex) bool {
			if _, _, ok := selectMinCost(win.Cands(), req.TaskCount, req.MaxCost); ok {
				feasibleStarts = append(feasibleStarts, start)
			}
			return false
		}, nil); err != nil {
			t.Fatal(err)
		}
		w, err := (AMP{}).Find(l, &req)
		if errors.Is(err, ErrNoWindow) {
			if len(feasibleStarts) != 0 {
				t.Fatalf("trial %d: AMP missed feasible starts %v", trial, feasibleStarts)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		min := feasibleStarts[0]
		for _, s := range feasibleStarts {
			if s < min {
				min = s
			}
		}
		if w.Start != min {
			t.Fatalf("trial %d: AMP start %g, earliest feasible %g", trial, w.Start, min)
		}
	}
}

func TestMinCostIsGloballyOptimal(t *testing.T) {
	// Oracle: enumerate every scan position's n-cheapest cost; the global
	// optimum is their minimum, because for a fixed start the n cheapest is
	// the optimal subset.
	rng := randx.New(400)
	for trial := 0; trial < 60; trial++ {
		l := randomSmallList(rng, 7)
		req := job.Request{TaskCount: 3, Volume: 60, MaxCost: 300}
		best := math.Inf(1)
		if err := Scan(l.Cursor(), &req, func(start float64, win *WindowIndex) bool {
			if _, cost, ok := selectMinCost(win.Cands(), req.TaskCount, req.MaxCost); ok && cost < best {
				best = cost
			}
			return false
		}, nil); err != nil {
			t.Fatal(err)
		}
		w, err := (MinCost{}).Find(l, &req)
		if errors.Is(err, ErrNoWindow) {
			if !math.IsInf(best, 1) {
				t.Fatalf("trial %d: MinCost missed feasible cost %g", trial, best)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(w.Cost-best) > 1e-9 {
			t.Fatalf("trial %d: MinCost %g, oracle %g", trial, w.Cost, best)
		}
	}
}

func TestMinRunTimeExactIsOptimalPerScan(t *testing.T) {
	// Oracle: per scan position, brute-force the best runtime; the global
	// optimum is the minimum over positions.
	rng := randx.New(500)
	for trial := 0; trial < 40; trial++ {
		l := randomSmallList(rng, 6)
		req := job.Request{TaskCount: 3, Volume: 60, MaxCost: 200}
		best := math.Inf(1)
		if err := Scan(l.Cursor(), &req, func(start float64, win *WindowIndex) bool {
			if r, ok := bruteMinRuntime(win.Cands(), req.TaskCount, req.MaxCost); ok && r < best {
				best = r
			}
			return false
		}, nil); err != nil {
			t.Fatal(err)
		}
		w, err := (MinRunTime{Exact: true}).Find(l, &req)
		if errors.Is(err, ErrNoWindow) {
			if !math.IsInf(best, 1) {
				t.Fatalf("trial %d: exact MinRunTime missed feasible runtime %g", trial, best)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(w.Runtime-best) > 1e-9 {
			t.Fatalf("trial %d: exact MinRunTime %g, oracle %g", trial, w.Runtime, best)
		}
	}
}

func TestMinRunTimeGreedyNeverBelowExact(t *testing.T) {
	rng := randx.New(600)
	for trial := 0; trial < 60; trial++ {
		l := randomSmallList(rng, 7)
		req := job.Request{TaskCount: 3, Volume: 60, MaxCost: 250}
		greedy, errG := (MinRunTime{}).Find(l, &req)
		exact, errE := (MinRunTime{Exact: true}).Find(l, &req)
		if errors.Is(errG, ErrNoWindow) != errors.Is(errE, ErrNoWindow) {
			t.Fatalf("trial %d: feasibility disagreement", trial)
		}
		if errG != nil {
			continue
		}
		if greedy.Runtime < exact.Runtime-1e-9 {
			t.Fatalf("trial %d: greedy runtime %g below exact optimum %g", trial, greedy.Runtime, exact.Runtime)
		}
	}
}

func TestMinFinishExactIsOptimal(t *testing.T) {
	rng := randx.New(700)
	for trial := 0; trial < 40; trial++ {
		l := randomSmallList(rng, 6)
		req := job.Request{TaskCount: 3, Volume: 60, MaxCost: 200}
		best := math.Inf(1)
		if err := Scan(l.Cursor(), &req, func(start float64, win *WindowIndex) bool {
			if r, ok := bruteMinRuntime(win.Cands(), req.TaskCount, req.MaxCost); ok && start+r < best {
				best = start + r
			}
			return false
		}, nil); err != nil {
			t.Fatal(err)
		}
		w, err := (MinFinish{Exact: true}).Find(l, &req)
		if errors.Is(err, ErrNoWindow) {
			if !math.IsInf(best, 1) {
				t.Fatalf("trial %d: exact MinFinish missed feasible finish %g", trial, best)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(w.Finish()-best) > 1e-9 {
			t.Fatalf("trial %d: exact MinFinish %g, oracle %g", trial, w.Finish(), best)
		}
	}
}

// TestPrunedRuntimeCriteriaMatchFullScan: the scanner stops MinRunTime and
// MinFinish once the runtime floor settles the answer, their oracle twins
// scan the whole list, and the windows must be bit-identical. Some of the
// searches must actually stop early, or the test proves nothing.
func TestPrunedRuntimeCriteriaMatchFullScan(t *testing.T) {
	rng := randx.New(800)
	stopped := 0
	for trial := 0; trial < 60; trial++ {
		l := randomSmallList(rng, 7)
		req := job.Request{TaskCount: 3, Volume: 60, MaxCost: 250}
		for _, alg := range runtimeCriteria() {
			if checkPruned(t, fmt.Sprintf("trial %d", trial), alg, l, req).EarlyStop {
				stopped++
			}
		}
	}
	if stopped == 0 {
		t.Error("no search stopped early: the floor never settled an answer")
	}
}

func TestAlgorithmsOnEmptyAndTinyLists(t *testing.T) {
	req := job.Request{TaskCount: 2, Volume: 60}
	for _, alg := range allAlgorithms() {
		if _, err := alg.Find(nil, &req); !errors.Is(err, ErrNoWindow) {
			t.Errorf("%s on empty list: %v, want ErrNoWindow", alg.Name(), err)
		}
	}
	// One slot cannot host a 2-task job.
	n := testNode(1, 4, 1)
	l := sorted(slot(n, 0, 100))
	for _, alg := range allAlgorithms() {
		if _, err := alg.Find(l, &req); !errors.Is(err, ErrNoWindow) {
			t.Errorf("%s on 1-slot list: %v, want ErrNoWindow", alg.Name(), err)
		}
	}
}

func TestTrivialSelectionWhenExactlyNSlots(t *testing.T) {
	// m == n: "the selection is trivial" (§2.1) — all algorithms must
	// return the same (only) window.
	n1, n2 := testNode(1, 4, 2), testNode(2, 5, 1)
	l := sorted(slot(n1, 10, 100), slot(n2, 30, 100))
	req := job.Request{TaskCount: 2, Volume: 60}
	for _, alg := range allAlgorithms() {
		w, err := alg.Find(l, &req)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if w.Start != 30 || w.Size() != 2 {
			t.Errorf("%s: window %v, want start 30 with both slots", alg.Name(), w)
		}
	}
}

func TestBudgetZeroMeansUnconstrained(t *testing.T) {
	n1, n2 := testNode(1, 4, 1000), testNode(2, 5, 1000)
	l := sorted(slot(n1, 0, 100), slot(n2, 0, 100))
	req := job.Request{TaskCount: 2, Volume: 60} // MaxCost 0
	w, err := (MinCost{}).Find(l, &req)
	if err != nil {
		t.Fatalf("unconstrained search failed: %v", err)
	}
	if w.Cost <= 0 {
		t.Error("window cost not computed")
	}
}

func TestDeadlineRespected(t *testing.T) {
	rng := randx.New(900)
	for trial := 0; trial < 40; trial++ {
		l := randomSmallList(rng, 7)
		req := job.Request{TaskCount: 2, Volume: 60, MaxCost: 200, Deadline: 80}
		for _, alg := range allAlgorithms() {
			w, err := alg.Find(l, &req)
			if errors.Is(err, ErrNoWindow) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if w.Finish() > 80+1e-9 {
				t.Fatalf("%s violated deadline: finish %g", alg.Name(), w.Finish())
			}
		}
	}
}

func TestMinProcTimeDeterministicPerSeed(t *testing.T) {
	rng := randx.New(1000)
	l := randomSmallList(rng, 8)
	req := job.Request{TaskCount: 3, Volume: 60, MaxCost: 300}
	a, errA := (MinProcTime{Seed: 5}).Find(l, &req)
	b, errB := (MinProcTime{Seed: 5}).Find(l, &req)
	if (errA == nil) != (errB == nil) {
		t.Fatal("same-seed runs disagree on feasibility")
	}
	if errA != nil {
		return
	}
	if a.Start != b.Start || a.ProcTime != b.ProcTime {
		t.Fatal("same-seed MinProcTime runs returned different windows")
	}
}

func TestMinProcTimeGreedyUsuallyBeatsRandom(t *testing.T) {
	// The directed extension should on average find no-worse total CPU time
	// than the simplified random variant.
	rng := randx.New(1100)
	sumRandom, sumGreedy := 0.0, 0.0
	found := 0
	for trial := 0; trial < 60; trial++ {
		l := randomSmallList(rng, 8)
		req := job.Request{TaskCount: 3, Volume: 60, MaxCost: 300}
		wr, errR := (MinProcTime{Seed: uint64(trial)}).Find(l, &req)
		wg, errG := (MinProcTimeGreedy{}).Find(l, &req)
		if errR != nil || errG != nil {
			continue
		}
		found++
		sumRandom += wr.ProcTime
		sumGreedy += wg.ProcTime
	}
	if found < 10 {
		t.Skip("too few feasible trials")
	}
	if sumGreedy > sumRandom*1.02 {
		t.Errorf("greedy proc time %g worse than random %g on average", sumGreedy/float64(found), sumRandom/float64(found))
	}
}

func TestMinEnergyReducesEnergyVsMinRunTime(t *testing.T) {
	rng := randx.New(1200)
	me := MinEnergy{}
	sumE, sumR := 0.0, 0.0
	found := 0
	for trial := 0; trial < 60; trial++ {
		l := randomSmallList(rng, 8)
		req := job.Request{TaskCount: 3, Volume: 60, MaxCost: 300}
		we, errE := me.Find(l, &req)
		wr, errR := (MinRunTime{}).Find(l, &req)
		if errE != nil || errR != nil {
			continue
		}
		found++
		sumE += me.Energy(we)
		sumR += me.Energy(wr)
	}
	if found < 10 {
		t.Skip("too few feasible trials")
	}
	if sumE > sumR {
		t.Errorf("MinEnergy average energy %g above MinRunTime's %g", sumE/float64(found), sumR/float64(found))
	}
}

func TestMinProcTimeCanMissBudgetFeasibleWindows(t *testing.T) {
	// The simplified MinProcTime draws ONE random subset per scan position;
	// on a list with exactly one scan position and many expensive decoys,
	// some seeds pick an over-budget subset and must report ErrNoWindow
	// even though a feasible window exists — the "no optimization"
	// behaviour the paper assigns to the simplified scheme.
	// The cheap pair gets HIGH node IDs so it enters the scan window last:
	// earlier visits only see expensive decoys.
	cheap1 := testNode(100, 5, 0.1)
	cheap2 := testNode(101, 5, 0.1)
	var list slots.List
	list = append(list, slot(cheap1, 0, 100), slot(cheap2, 0, 100))
	for i := 0; i < 4; i++ {
		list = append(list, slot(testNode(10+i, 5, 100), 0, 100))
	}
	list.SortByStart()
	req := job.Request{TaskCount: 2, Volume: 60, MaxCost: 10}

	if _, err := (MinCost{}).Find(list, &req); err != nil {
		t.Fatalf("feasible window not found by MinCost: %v", err)
	}
	const seeds = 200
	missed := 0
	for seed := uint64(0); seed < seeds; seed++ {
		if _, err := (MinProcTime{Seed: seed}).Find(list, &req); errors.Is(err, ErrNoWindow) {
			missed++
		}
	}
	if missed == 0 {
		t.Error("random MinProcTime never missed; expected budget misses on some seeds")
	}
	if missed == seeds {
		t.Error("random MinProcTime always missed; expected hits on some seeds")
	}
}

func TestAlgorithmNames(t *testing.T) {
	want := map[string]bool{
		"AMP": true, "MinCost": true, "MinRunTime": true, "MinRunTimeExact": true,
		"MinFinish": true, "MinFinishExact": true, "MinProcTime": true,
		"MinProcTimeGreedy": true, "MinEnergy": true,
	}
	for _, alg := range allAlgorithms() {
		if !want[alg.Name()] {
			t.Errorf("unexpected algorithm name %q", alg.Name())
		}
	}
}

func TestFindRejectsInvalidInputs(t *testing.T) {
	n := testNode(1, 4, 1)
	unsorted := slots.List{slot(n, 50, 100), slot(n, 0, 40)}
	req := job.Request{TaskCount: 1, Volume: 10}
	badReq := job.Request{TaskCount: 0, Volume: 10}
	for _, alg := range allAlgorithms() {
		if _, err := alg.Find(unsorted, &req); err == nil || errors.Is(err, ErrNoWindow) {
			t.Errorf("%s accepted an unsorted list", alg.Name())
		}
		if _, err := alg.Find(nil, &badReq); err == nil || errors.Is(err, ErrNoWindow) {
			t.Errorf("%s accepted an invalid request", alg.Name())
		}
	}
}
