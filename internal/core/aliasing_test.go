package core_test

import (
	"math"
	"testing"

	"slotsel/internal/core"
	"slotsel/internal/job"
	"slotsel/internal/nodes"
	"slotsel/internal/randx"
	"slotsel/internal/slots"
	"slotsel/internal/testkit"
)

// catalogue returns every shipped algorithm implementation; the aliasing
// regression runs all of them, because each has its own selection procedure
// and any of them could sneak in a retained cands sub-slice.
func catalogue(seed uint64) []core.Algorithm {
	return []core.Algorithm{
		core.AMP{},
		core.MinCost{},
		core.MinRunTime{},
		core.MinRunTime{Exact: true},
		core.MinFinish{},
		core.MinFinish{Exact: true},
		core.MinProcTime{Seed: seed},
		core.MinProcTimeGreedy{},
		core.MinEnergy{},
	}
}

// TestAlgorithmsCopyWhatTheyKeep proves the VisitFunc contract ("the index
// and its slices are reused between calls: copy what you keep") for all six
// algorithm families: each algorithm is run twice on the same instance, once
// plain and once with poisonVisit interposed, which hands the
// selection a private rebuild of the scan's WindowIndex and poisons its live
// views (NaN fields, node -1) the moment the visit returns. An
// implementation that retains a view instead of copying builds its window
// from poisoned memory, so the two runs diverge.
func TestAlgorithmsCopyWhatTheyKeep(t *testing.T) {
	defer core.SetVisitWrapForTest(nil)
	for seed := uint64(1); seed <= 30; seed++ {
		rng := randx.New(seed)
		list := testkit.RandomList(rng, 6, 4, 200)
		req := job.Request{
			TaskCount: rng.IntRange(1, 4),
			Volume:    float64(rng.IntRange(40, 120)),
			MaxCost:   float64(rng.IntRange(100, 900)),
		}
		for _, alg := range catalogue(seed) {
			core.SetVisitWrapForTest(nil)
			r1 := req
			cleanW, cleanErr := alg.Find(list, &r1)

			core.SetVisitWrapForTest(poisonVisit)
			r2 := req
			poisonW, poisonErr := alg.Find(list, &r2)
			core.SetVisitWrapForTest(nil)

			if (cleanErr == nil) != (poisonErr == nil) {
				t.Fatalf("seed=%d alg=%s: errors diverged under poisoning: %v vs %v",
					seed, alg.Name(), cleanErr, poisonErr)
			}
			cs, ps := testkit.WindowSignature(cleanW), testkit.WindowSignature(poisonW)
			if cs != ps {
				t.Errorf("seed=%d alg=%s: window built from retained candidates\nclean:    %s\npoisoned: %s",
					seed, alg.Name(), cs, ps)
			}
		}
	}
}

// TestPoisonVisitCatchesAliasing is the detector's negative control: a
// deliberately buggy selection that retains the Cands view must produce a
// visibly poisoned window, proving the regression above has teeth.
func TestPoisonVisitCatchesAliasing(t *testing.T) {
	defer core.SetVisitWrapForTest(nil)
	n := testkit.Node(1, 5, 1)
	list := testkit.SlotList(testkit.Slot(n, 0, 100))
	req := job.Request{TaskCount: 1, Volume: 50}

	buggyFind := func() *core.Window {
		var keptStart float64
		var kept []core.Candidate
		_ = core.Scan(list.Cursor(), &req, func(start float64, win *core.WindowIndex) bool {
			keptStart, kept = start, win.Cands() // BUG: aliases the scan's view
			return true
		}, nil)
		return core.NewWindow(keptStart, kept)
	}

	clean := buggyFind()
	core.SetVisitWrapForTest(poisonVisit)
	poisoned := buggyFind()
	core.SetVisitWrapForTest(nil)

	if math.IsNaN(clean.Cost) {
		t.Fatal("clean run already poisoned; detector wiring is broken")
	}
	if !math.IsNaN(poisoned.Cost) && poisoned.Placements[0].Node().ID != -1 {
		t.Fatalf("aliasing selection was not caught: %s", testkit.WindowSignature(poisoned))
	}
}

var poisonedNode = &nodes.Node{ID: -1, Perf: math.NaN(), Price: math.NaN()}

// poisonVisit is the aliasing detector for core.Scan's copy-what-you-keep
// contract: it wraps a visit function so that every call receives a private
// rebuild of the scan's WindowIndex (same candidates in the same append
// order, and therefore the same selection orders), and poisons the private
// index's live view (NaN exec/cost, a node -1 slot) the moment the inner
// visit returns. A selection procedure that keeps the view it was handed —
// instead of copying what it keeps, as the VisitFunc contract demands —
// ends up building its window from poisoned candidates, so comparing a
// poisoned run against a clean run exposes the aliasing.
// Install it with core.SetVisitWrapForTest(poisonVisit).
func poisonVisit(visit core.VisitFunc) core.VisitFunc {
	return func(start float64, win *core.WindowIndex) bool {
		private := core.NewWindowIndex(win.Cands())
		stop := visit(start, private)
		view := private.Cands()
		for i := range view {
			view[i] = core.Candidate{
				Slot: &slots.Slot{Node: poisonedNode, Interval: slots.Interval{Start: math.NaN(), End: math.NaN()}},
				Exec: math.NaN(),
				Cost: math.NaN(),
			}
		}
		return stop
	}
}
