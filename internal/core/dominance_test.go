package core_test

import (
	"errors"
	"testing"
	"testing/quick"

	"slotsel/internal/core"
	"slotsel/internal/job"
	"slotsel/internal/slots"
	"slotsel/internal/testkit"
)

// cutList removes a window's reserved spans from a slot list (the CSA cut).
func cutList(l slots.List, w *core.Window) slots.List {
	return slots.Cut(l, w.UsedIntervals(), 10)
}

// TestAlgorithmDominanceProperty checks, over randomly generated
// environments and request shapes, the defining dominance of each exact
// optimizer on its own criterion: no other algorithm's window may beat
//
//   - AMP on start time,
//   - MinCost on total cost,
//   - core.MinRunTime{Exact} on runtime,
//   - core.MinFinish{Exact} on finish time.
func TestAlgorithmDominanceProperty(t *testing.T) {
	check := func(seed uint64, nodesRaw, tasksRaw, budgetRaw uint8) bool {
		nodeCount := int(nodesRaw%20) + 4
		taskCount := int(tasksRaw%4) + 1
		e := testkit.SmallEnv(seed, nodeCount, 300)
		req := job.Request{
			TaskCount: taskCount,
			Volume:    60,
			MaxCost:   float64(budgetRaw%200)*2 + float64(taskCount)*40,
		}

		amp, errAMP := (core.AMP{}).Find(e.Slots, &req)
		minCost, errCost := (core.MinCost{}).Find(e.Slots, &req)
		minRun, errRun := (core.MinRunTime{Exact: true}).Find(e.Slots, &req)
		minFin, errFin := (core.MinFinish{Exact: true}).Find(e.Slots, &req)

		found := 0
		for _, err := range []error{errAMP, errCost, errRun, errFin} {
			switch {
			case err == nil:
				found++
			case !errors.Is(err, core.ErrNoWindow):
				return false
			}
		}
		if found == 0 {
			return true
		}
		if found != 4 {
			return false // exact optimizers must agree on feasibility
		}
		for _, w := range []*core.Window{amp, minCost, minRun, minFin} {
			if testkit.ValidateWindow(w, &req) != nil {
				return false
			}
		}
		const eps = 1e-9
		others := []*core.Window{amp, minCost, minRun, minFin}
		for _, w := range others {
			if w.Start < amp.Start-eps {
				return false
			}
			if w.Cost < minCost.Cost-eps {
				return false
			}
			if w.Runtime < minRun.Runtime-eps {
				return false
			}
			if w.Finish() < minFin.Finish()-eps {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestCSADominanceProperty checks that CSA's criterion-selected alternative
// never beats the dedicated exact optimizer: CSA optimizes over the subset
// of disjoint AMP windows, the optimizer over the full space.
func TestCSADominanceProperty(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		e := testkit.SmallEnv(seed, 15, 300)
		req := testkit.SmallRequest(3, 300)
		minCost, err := (core.MinCost{}).Find(e.Slots, &req)
		if errors.Is(err, core.ErrNoWindow) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		minRun, err := (core.MinRunTime{Exact: true}).Find(e.Slots, &req)
		if err != nil {
			t.Fatal(err)
		}
		// Emulate CSA via repeated AMP + cutting, as csa.Search does (the
		// csa package cannot be imported from core's tests without a
		// dependency inversion, and the loop is three lines).
		work := e.Slots.Clone()
		var bestCost, bestRun float64
		first := true
		for {
			w, err := (core.AMP{}).Find(work, &req)
			if errors.Is(err, core.ErrNoWindow) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if first || w.Cost < bestCost {
				bestCost = w.Cost
			}
			if first || w.Runtime < bestRun {
				bestRun = w.Runtime
			}
			first = false
			work = cutList(work, w)
		}
		if first {
			t.Fatalf("seed %d: AMP feasible but CSA emulation found nothing", seed)
		}
		if bestCost < minCost.Cost-1e-9 {
			t.Fatalf("seed %d: CSA cost %g beats exact MinCost %g", seed, bestCost, minCost.Cost)
		}
		if bestRun < minRun.Runtime-1e-9 {
			t.Fatalf("seed %d: CSA runtime %g beats exact MinRunTime %g", seed, bestRun, minRun.Runtime)
		}
	}
}
