package generic

import (
	"errors"
	"math"
	"testing"

	"slotsel/internal/core"
	"slotsel/internal/testkit"
)

func TestExtremeReturnsValidWindows(t *testing.T) {
	energy := func(c core.Candidate) float64 { return core.DefaultEnergyModel(c.Slot.Node.Perf, c.Exec) }
	for seed := uint64(1); seed <= 15; seed++ {
		e := testkit.SmallEnv(seed, 15, 300)
		req := testkit.SmallRequest(3, 300)
		for _, alg := range []Extreme{
			{Label: "greedy-proc", Weight: WeightProcTime},
			{Label: "exact-proc", Weight: WeightProcTime, Exact: true},
			{Label: "exact-energy", Weight: energy, Exact: true},
			{Label: "greedy-cost", Weight: WeightCost},
		} {
			w, err := alg.Find(e.Slots, &req)
			if errors.Is(err, core.ErrNoWindow) {
				continue
			}
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, alg.Name(), err)
			}
			if verr := testkit.ValidateWindow(w, &req); verr != nil {
				t.Fatalf("seed %d %s: invalid window: %v", seed, alg.Name(), verr)
			}
		}
	}
}

func TestExactNeverWorseThanGreedy(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		e := testkit.SmallEnv(seed, 12, 300)
		req := testkit.SmallRequest(3, 250)
		greedy := Extreme{Weight: WeightProcTime}
		exact := Extreme{Weight: WeightProcTime, Exact: true}
		wg, errG := greedy.Find(e.Slots, &req)
		we, errE := exact.Find(e.Slots, &req)
		if errors.Is(errG, core.ErrNoWindow) != errors.Is(errE, core.ErrNoWindow) {
			t.Fatalf("seed %d: feasibility disagreement", seed)
		}
		if errG != nil {
			continue
		}
		if exact.TotalWeight(we) > greedy.TotalWeight(wg)+1e-9 {
			t.Fatalf("seed %d: exact weight %g above greedy %g",
				seed, exact.TotalWeight(we), greedy.TotalWeight(wg))
		}
	}
}

func TestExactProcTimeBeatsPerStepOracle(t *testing.T) {
	// The exact Extreme over WeightProcTime must equal the global optimum:
	// the minimum over scan positions of the exact per-step selection.
	for seed := uint64(1); seed <= 15; seed++ {
		e := testkit.SmallEnv(seed, 10, 250)
		req := testkit.SmallRequest(3, 250)
		exact := Extreme{Weight: WeightProcTime, Exact: true}
		w, err := exact.Find(e.Slots, &req)
		if errors.Is(err, core.ErrNoWindow) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		best := math.Inf(1)
		if err := core.Scan(e.Slots.Cursor(), &req, func(start float64, win *core.WindowIndex) bool {
			cands := win.Cands()
			// Exhaustive per-step optimum.
			var rec func(i int, left int, cost, weight float64)
			rec = func(i, left int, cost, weight float64) {
				if req.MaxCost > 0 && cost > req.MaxCost {
					return
				}
				if left == 0 {
					if weight < best {
						best = weight
					}
					return
				}
				if i >= len(cands) || len(cands)-i < left {
					return
				}
				rec(i+1, left-1, cost+cands[i].Cost, weight+cands[i].Exec)
				rec(i+1, left, cost, weight)
			}
			rec(0, req.TaskCount, 0, 0)
			return false
		}, nil); err != nil {
			t.Fatal(err)
		}
		if math.Abs(w.ProcTime-best) > 1e-9 {
			t.Fatalf("seed %d: exact Extreme %g, oracle %g", seed, w.ProcTime, best)
		}
	}
}

func TestExtremeDefaults(t *testing.T) {
	e := testkit.SmallEnv(1, 10, 250)
	req := testkit.SmallRequest(2, 200)
	var alg Extreme // zero value: proc-time weight, greedy
	if alg.Name() != "Extreme" {
		t.Errorf("default name %q", alg.Name())
	}
	w, err := alg.Find(e.Slots, &req)
	if errors.Is(err, core.ErrNoWindow) {
		t.Skip("no window on this seed")
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := testkit.ValidateWindow(w, &req); err != nil {
		t.Fatal(err)
	}
}

func TestExactCandidateCapFallsBackToGreedy(t *testing.T) {
	// With the cap at 1 every step exceeds it, so the exact variant must
	// behave exactly like the greedy one.
	e := testkit.SmallEnv(2, 12, 300)
	req := testkit.SmallRequest(3, 250)
	capped := Extreme{Weight: WeightProcTime, Exact: true, MaxExactCandidates: 1}
	greedy := Extreme{Weight: WeightProcTime}
	wc, errC := capped.Find(e.Slots, &req)
	wg, errG := greedy.Find(e.Slots, &req)
	if errors.Is(errC, core.ErrNoWindow) != errors.Is(errG, core.ErrNoWindow) {
		t.Fatal("feasibility disagreement")
	}
	if errC != nil {
		t.Skip("no window on this seed")
	}
	if wc.ProcTime != wg.ProcTime || wc.Start != wg.Start {
		t.Fatalf("capped exact differs from greedy: %v vs %v", wc, wg)
	}
}

// TotalWeight returns the window's total weight under the algorithm's
// characteristic.
func (e Extreme) TotalWeight(w *core.Window) float64 {
	weight := e.Weight
	if weight == nil {
		weight = WeightProcTime
	}
	total := 0.0
	for _, p := range w.Placements {
		total += weight(core.Candidate{Slot: p.Slot, Exec: p.Exec, Cost: p.Cost})
	}
	return total
}
