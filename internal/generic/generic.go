// Package generic implements the general 0-1 formulation of §2.1: at every
// scan position of the AEP scheme, select the n-slot sub-window minimizing
// an arbitrary additive characteristic z under the cost budget
//
//	a1*z1 + ... + am*zm -> min
//	a1*c1 + ... + am*cm <= S,  a1 + ... + am = n,  ar in {0,1}
//
// solved exactly per step with the branch-and-bound solver of
// internal/baseline, or approximately with the additive-greedy substitution.
// This is the machinery behind the paper's statement that users and VO
// administrators can combine criteria into custom search strategies.
package generic

import (
	"math"

	"slotsel/internal/baseline"
	"slotsel/internal/core"
	"slotsel/internal/job"
	"slotsel/internal/obs"
	"slotsel/internal/slots"
)

// Weight assigns the per-slot characteristic z to a candidate. Weights must
// be non-negative for the exact solver's pruning bounds to hold.
type Weight func(core.Candidate) float64

// Common weights.
var (
	// WeightProcTime is the candidate's execution time (total CPU time
	// criterion).
	WeightProcTime Weight = func(c core.Candidate) float64 { return c.Exec }

	// WeightCost is the candidate's reservation cost.
	WeightCost Weight = func(c core.Candidate) float64 { return c.Cost }
)

// WeightEnergy builds a weight from an energy model.
func WeightEnergy(model core.EnergyModel) Weight {
	if model == nil {
		model = core.DefaultEnergyModel
	}
	return func(c core.Candidate) float64 { return model(c.Slot.Node.Perf, c.Exec) }
}

// Extreme is the generic AEP algorithm minimizing the total weight of the
// selected window over the whole scheduling interval.
type Extreme struct {
	// Label names the algorithm (for tables and errors); default
	// "Extreme".
	Label string

	// Weight is the per-slot characteristic; required.
	Weight Weight

	// Exact selects the exact branch-and-bound per-step solver; the default
	// is the greedy substitution, which matches the working-time profile of
	// the paper's special-case algorithms.
	Exact bool

	// MaxExactCandidates caps the candidate count handed to the exact
	// solver per step (0 = 64). Past the cap the step falls back to the
	// greedy selection, bounding the worst-case step cost on large
	// environments.
	MaxExactCandidates int
}

// Name implements core.Algorithm.
func (e Extreme) Name() string {
	if e.Label != "" {
		return e.Label
	}
	return "Extreme"
}

// Find implements core.Algorithm.
func (e Extreme) Find(list slots.List, req *job.Request) (*core.Window, error) {
	return e.FindObserved(list.Cursor(), req, nil)
}

// FindObserved implements core.ObservedFinder.
func (e Extreme) FindObserved(cur slots.Cursor, req *job.Request, col obs.Collector) (*core.Window, error) {
	if e.Weight == nil {
		e.Weight = WeightProcTime
	}
	capExact := e.MaxExactCandidates
	if capExact <= 0 {
		capExact = 64
	}
	var best *core.Window
	bestWeight := math.Inf(1)
	err := core.Scan(cur, req, func(start float64, win *core.WindowIndex) bool {
		var chosen []core.Candidate
		var total float64
		var ok bool
		if e.Exact && win.Len() <= capExact {
			// The exact solver explores subsets of the raw window; it gains
			// nothing from the cost ordering, so it reads the append-order
			// view directly.
			chosen, total, ok = baseline.MinWeightSubset(win.Cands(), req.TaskCount, req.MaxCost, e.Weight)
		} else {
			chosen, total, ok = win.SelectMinAdditiveGreedy(req.TaskCount, req.MaxCost, e.Weight)
		}
		if !ok {
			return false
		}
		if total < bestWeight {
			bestWeight = total
			best = core.NewWindow(start, chosen)
		}
		return false
	}, col)
	return core.Found(best, err)
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
