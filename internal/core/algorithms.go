package core

import (
	"slotsel/internal/job"
	"slotsel/internal/slots"
)

// Algorithm is a slot selection algorithm: it searches the published slot
// list for the window that is extreme by the algorithm's criterion.
type Algorithm interface {
	// Name returns the algorithm's identifier as used in the paper's
	// figures and tables.
	Name() string

	// Find returns the best window for the request, ErrNoWindow when no
	// feasible window exists, or another error for invalid input (bad
	// request, unsorted slot list).
	Find(list slots.List, req *job.Request) (*Window, error)
}

// AMP searches for the window with the earliest start time — the particular
// case of AEP performing only start-time optimization, introduced in the
// authors' earlier works. The first scan position at which n suitable slots
// with total cost within the budget exist wins: by the ordering of the slot
// list no later position can start earlier.
type AMP struct{}

// Name implements Algorithm.
func (AMP) Name() string { return "AMP" }

// Find implements Algorithm.
func (a AMP) Find(list slots.List, req *job.Request) (*Window, error) {
	return FindObserved(a, list, req, nil)
}

// MinCost searches for the window with the minimum total allocation cost on
// the whole scheduling interval. Selecting the n cheapest suitable slots at
// every scan position and keeping the best guarantees the global optimum.
type MinCost struct{}

// Name implements Algorithm.
func (MinCost) Name() string { return "MinCost" }

// Find implements Algorithm.
func (a MinCost) Find(list slots.List, req *job.Request) (*Window, error) {
	return FindObserved(a, list, req, nil)
}

// MinRunTime searches for the window with the minimum execution runtime
// (the length of the longest composing slot, i.e. the task on the least
// performant selected node).
//
// The scan stops once the best window's runtime reaches the runtime floor —
// the n-th smallest execution time among the nodes the scan can admit —
// since no window runs shorter. Replacement is strictly-better, so the
// window is the one the paper's full scan returns.
type MinRunTime struct {
	// Exact switches the per-step selection from the paper's greedy
	// substitution procedure to the exact prefix selection (extension).
	Exact bool

	// LiteralBudget reproduces the paper's pseudocode budget check verbatim
	// (no refund of the replaced slot), which is stricter than intended;
	// the default checks the cost after the swap.
	LiteralBudget bool
}

// Name implements Algorithm.
func (a MinRunTime) Name() string {
	if a.Exact {
		return "MinRunTimeExact"
	}
	return "MinRunTime"
}

// Find implements Algorithm.
func (a MinRunTime) Find(list slots.List, req *job.Request) (*Window, error) {
	return FindObserved(a, list, req, nil)
}

// MinFinish searches for the window with the earliest finish time. At every
// scan position the minimum achievable finish is start + minimal runtime,
// computed with the same substitution procedure as MinRunTime.
//
// The scan stops at the first position whose start plus the runtime floor
// (see MinRunTime) is not before the best finish: every later window
// finishes no earlier. The window is the one the paper's full scan returns;
// only the working time differs (the paper's Tables 1-2 report MinFinish and
// MinRunTime as nearly equal because both scan the whole list).
type MinFinish struct {
	// Exact selects the exact per-step runtime minimization (extension).
	Exact bool
}

// Name implements Algorithm.
func (a MinFinish) Name() string {
	if a.Exact {
		return "MinFinishExact"
	}
	return "MinFinish"
}

// Find implements Algorithm.
func (a MinFinish) Find(list slots.List, req *job.Request) (*Window, error) {
	return FindObserved(a, list, req, nil)
}

// MinProcTime is the paper's *simplified* total-processor-time minimizer:
// at every scan position a random sub-window is selected (no per-step
// optimization), and the best total node time over the whole scan is kept.
// It does not guarantee an optimal result and only partially matches the
// AEP scheme, but its working time is an order of magnitude below the full
// implementations.
type MinProcTime struct {
	// Seed seeds the per-search random stream; searches with equal seeds
	// over equal inputs are deterministic.
	Seed uint64
}

// Name implements Algorithm.
func (MinProcTime) Name() string { return "MinProcTime" }

// Find implements Algorithm.
func (a MinProcTime) Find(list slots.List, req *job.Request) (*Window, error) {
	return FindObserved(a, list, req, nil)
}

// MinProcTimeGreedy is an extension: the additive greedy substitution
// applied to the total-processor-time criterion, giving a directed (though
// still heuristic) search where the paper's simplified variant picks
// randomly.
type MinProcTimeGreedy struct{}

// Name implements Algorithm.
func (MinProcTimeGreedy) Name() string { return "MinProcTimeGreedy" }

// Find implements Algorithm.
func (a MinProcTimeGreedy) Find(list slots.List, req *job.Request) (*Window, error) {
	return FindObserved(a, list, req, nil)
}

// EnergyModel maps a placement (its node performance and execution time) to
// an energy figure. The default models dynamic power growing superlinearly
// with the performance rate: E = perf^2 x exec.
type EnergyModel func(perf, exec float64) float64

// DefaultEnergyModel is the perf^2 x time model.
func DefaultEnergyModel(perf, exec float64) float64 { return perf * perf * exec }

// MinEnergy is an extension implementing the "minimum energy consumption"
// criterion the paper names as a possible crW: the additive greedy
// substitution over a per-slot energy weight.
type MinEnergy struct {
	// Model computes per-placement energy; nil selects DefaultEnergyModel.
	Model EnergyModel
}

// Name implements Algorithm.
func (MinEnergy) Name() string { return "MinEnergy" }

// Energy returns the window's total energy under the algorithm's model.
func (a MinEnergy) Energy(w *Window) float64 {
	model := a.Model
	if model == nil {
		model = DefaultEnergyModel
	}
	total := 0.0
	for _, p := range w.Placements {
		total += model(p.Node().Perf, p.Exec)
	}
	return total
}

// Find implements Algorithm.
func (a MinEnergy) Find(list slots.List, req *job.Request) (*Window, error) {
	return FindObserved(a, list, req, nil)
}
