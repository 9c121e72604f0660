package baseline

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"slotsel/internal/core"
	"slotsel/internal/job"
	"slotsel/internal/randx"
	"slotsel/internal/testkit"
)

func smallRequest() job.Request {
	return job.Request{TaskCount: 3, Volume: 60, MaxCost: 300}
}

func TestFirstFitReturnsValidWindow(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		e := testkit.SmallEnv(seed, 12, 300)
		req := smallRequest()
		w, err := (FirstFit{}).Find(e.Slots, &req)
		if errors.Is(err, core.ErrNoWindow) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if verr := testkit.ValidateWindow(w, &req); verr != nil {
			t.Fatalf("seed %d: invalid window: %v", seed, verr)
		}
	}
}

func TestFirstFitNeverStartsBeforeAMP(t *testing.T) {
	// AMP optimizes the subset choice under the budget, so it can accept a
	// position first-fit must skip; first-fit can therefore never start
	// strictly earlier.
	for seed := uint64(1); seed <= 30; seed++ {
		e := testkit.SmallEnv(seed, 12, 300)
		req := smallRequest()
		ff, errF := (FirstFit{}).Find(e.Slots, &req)
		amp, errA := (core.AMP{}).Find(e.Slots, &req)
		if errors.Is(errA, core.ErrNoWindow) {
			continue
		}
		if errors.Is(errF, core.ErrNoWindow) {
			continue // budget can starve first-fit while AMP succeeds
		}
		if ff.Start < amp.Start-1e-9 {
			t.Fatalf("seed %d: first-fit start %g before AMP start %g", seed, ff.Start, amp.Start)
		}
	}
}

func TestQuadraticMatchesAMPStart(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		e := testkit.SmallEnv(seed, 12, 300)
		req := smallRequest()
		quad, errQ := (EarliestStartQuadratic{}).Find(e.Slots, &req)
		amp, errA := (core.AMP{}).Find(e.Slots, &req)
		if errors.Is(errQ, core.ErrNoWindow) != errors.Is(errA, core.ErrNoWindow) {
			t.Fatalf("seed %d: feasibility disagreement", seed)
		}
		if errQ != nil {
			continue
		}
		if math.Abs(quad.Start-amp.Start) > 1e-9 {
			t.Fatalf("seed %d: quadratic start %g, AMP start %g", seed, quad.Start, amp.Start)
		}
	}
}

func TestBruteForceAgainstHandInstance(t *testing.T) {
	n1 := testkit.Node(1, 6, 1) // exec 10, cost 10
	n2 := testkit.Node(2, 3, 1) // exec 20, cost 20
	n3 := testkit.Node(3, 2, 3) // exec 30, cost 90
	l := testkit.SlotList(
		testkit.Slot(n1, 0, 100),
		testkit.Slot(n2, 5, 100),
		testkit.Slot(n3, 0, 100),
	)
	req := job.Request{TaskCount: 2, Volume: 60, MaxCost: 100}

	cheapest, err := (testkit.BruteForce{Obj: testkit.ObjCost}).Find(l, &req)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cheapest.Cost-30) > 1e-9 { // n1+n2 at start 5
		t.Errorf("brute-force min cost %g, want 30", cheapest.Cost)
	}

	fastest, err := (testkit.BruteForce{Obj: testkit.ObjRuntime}).Find(l, &req)
	if err != nil {
		t.Fatal(err)
	}
	if fastest.Runtime != 20 { // n1+n2: max(10,20)
		t.Errorf("brute-force min runtime %g, want 20", fastest.Runtime)
	}

	earliest, err := (testkit.BruteForce{Obj: testkit.ObjStart}).Find(l, &req)
	if err != nil {
		t.Fatal(err)
	}
	if earliest.Start != 0 { // n1+n3 at start 0 costs 100 <= budget
		t.Errorf("brute-force min start %g, want 0", earliest.Start)
	}
}

func TestBruteForceMatchesCoreOptimizers(t *testing.T) {
	for seed := uint64(1); seed <= 15; seed++ {
		e := testkit.SmallEnv(seed, 8, 200)
		req := job.Request{TaskCount: 2, Volume: 60, MaxCost: 200}

		type pair struct {
			name   string
			algo   core.Algorithm
			obj    testkit.Objective
			metric func(*core.Window) float64
		}
		pairs := []pair{
			{"MinCost", core.MinCost{}, testkit.ObjCost, func(w *core.Window) float64 { return w.Cost }},
			{"MinRunTimeExact", core.MinRunTime{Exact: true}, testkit.ObjRuntime, func(w *core.Window) float64 { return w.Runtime }},
			{"MinFinishExact", core.MinFinish{Exact: true}, testkit.ObjFinish, func(w *core.Window) float64 { return w.Finish() }},
			{"AMP", core.AMP{}, testkit.ObjStart, func(w *core.Window) float64 { return w.Start }},
		}
		for _, p := range pairs {
			got, errG := p.algo.Find(e.Slots, &req)
			want, errW := (testkit.BruteForce{Obj: p.obj}).Find(e.Slots, &req)
			if errors.Is(errG, core.ErrNoWindow) != errors.Is(errW, core.ErrNoWindow) {
				t.Fatalf("seed %d %s: feasibility disagreement", seed, p.name)
			}
			if errG != nil {
				continue
			}
			if math.Abs(p.metric(got)-p.metric(want)) > 1e-9 {
				t.Fatalf("seed %d %s: core %g, brute force %g", seed, p.name, p.metric(got), p.metric(want))
			}
		}
	}
}

func TestForEachSubsetCount(t *testing.T) {
	cands := make([]core.Candidate, 6)
	count := 0
	testkit.ForEachSubset(cands, 3, func(s []core.Candidate) {
		if len(s) != 3 {
			t.Fatalf("subset size %d", len(s))
		}
		count++
	})
	if count != 20 { // C(6,3)
		t.Fatalf("enumerated %d subsets, want 20", count)
	}
	count = 0
	testkit.ForEachSubset(cands, 7, func([]core.Candidate) { count++ })
	if count != 0 {
		t.Fatal("k > n enumerated subsets")
	}
	count = 0
	testkit.ForEachSubset(cands, 6, func([]core.Candidate) { count++ })
	if count != 1 {
		t.Fatalf("k == n enumerated %d subsets", count)
	}
}

// bruteMinWeight is an independent oracle for MinWeightSubset.
func bruteMinWeight(cands []core.Candidate, k int, budget float64, weight func(core.Candidate) float64) (float64, bool) {
	best := math.Inf(1)
	found := false
	testkit.ForEachSubset(cands, k, func(s []core.Candidate) {
		cost, w := 0.0, 0.0
		for _, c := range s {
			cost += c.Cost
			w += weight(c)
		}
		if budget > 0 && cost > budget {
			return
		}
		if w < best {
			best = w
			found = true
		}
	})
	return best, found
}

func TestMinWeightSubsetMatchesBruteForce(t *testing.T) {
	weight := func(c core.Candidate) float64 { return c.Exec }
	check := func(seed uint64, nRaw, kRaw uint8) bool {
		rng := randx.New(seed)
		n := int(nRaw%10) + 1
		k := int(kRaw)%n + 1
		cands := make([]core.Candidate, n)
		for i := range cands {
			node := testkit.Node(i, 5, 1)
			cands[i] = core.Candidate{
				Slot: testkit.Slot(node, 0, 1000),
				Exec: rng.FloatRange(1, 50),
				Cost: rng.FloatRange(1, 30),
			}
		}
		budget := rng.FloatRange(float64(k), float64(k)*25)
		chosen, got, ok := MinWeightSubset(cands, k, budget, weight)
		want, okWant := bruteMinWeight(cands, k, budget, weight)
		if ok != okWant {
			return false
		}
		if !ok {
			return true
		}
		if len(chosen) != k {
			return false
		}
		cost := 0.0
		for _, c := range chosen {
			cost += c.Cost
		}
		if cost > budget+1e-9 {
			return false
		}
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMinWeightSubsetUnconstrained(t *testing.T) {
	cands := make([]core.Candidate, 5)
	for i := range cands {
		node := testkit.Node(i, 5, 1)
		cands[i] = core.Candidate{Slot: testkit.Slot(node, 0, 100), Exec: float64(10 - i), Cost: 1000}
	}
	_, w, ok := MinWeightSubset(cands, 2, 0, func(c core.Candidate) float64 { return c.Exec })
	if !ok || w != 6+7 {
		t.Fatalf("unconstrained MinWeightSubset = %g ok=%v, want 13", w, ok)
	}
	if _, _, ok := MinWeightSubset(cands, 6, 0, nil); ok {
		t.Error("k > n must fail")
	}
}

func TestBaselineNames(t *testing.T) {
	if (FirstFit{}).Name() == "" || (EarliestStartQuadratic{}).Name() == "" || (testkit.BruteForce{}).Name() == "" {
		t.Error("empty baseline names")
	}
}

func TestBaselinesRejectInvalidRequest(t *testing.T) {
	bad := job.Request{TaskCount: 0, Volume: 10}
	if _, err := (EarliestStartQuadratic{}).Find(nil, &bad); err == nil || errors.Is(err, core.ErrNoWindow) {
		t.Error("quadratic accepted invalid request")
	}
	if _, err := (testkit.BruteForce{}).Find(nil, &bad); err == nil || errors.Is(err, core.ErrNoWindow) {
		t.Error("brute force accepted invalid request")
	}
}
