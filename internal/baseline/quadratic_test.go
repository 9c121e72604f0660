package baseline

import (
	"sort"

	"slotsel/internal/core"
	"slotsel/internal/job"
	"slotsel/internal/slots"
	"slotsel/internal/testkit"
)

// EarliestStartQuadratic finds the earliest-start feasible window by
// examining every candidate start time (every slot start) and, for each,
// re-scanning the whole slot list for slots covering it — the O(m^2)
// formulation that backfilling-style schedulers effectively perform when
// every CPU node has local jobs scheduled. Functionally it returns the same
// window start as AMP and serves as its oracle.
type EarliestStartQuadratic struct{}

// Name implements core.Algorithm.
func (EarliestStartQuadratic) Name() string { return "EarliestStartQuad" }

// Find implements core.Algorithm.
func (EarliestStartQuadratic) Find(list slots.List, req *job.Request) (*core.Window, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	for _, start := range testkit.CandidateStarts(list) {
		cands := testkit.SuitableAt(list, req, start)
		if len(cands) < req.TaskCount {
			continue
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].Cost < cands[j].Cost })
		chosen := cands[:req.TaskCount]
		cost := 0.0
		for _, c := range chosen {
			cost += c.Cost
		}
		if req.MaxCost > 0 && cost > req.MaxCost {
			continue
		}
		return core.NewWindow(start, chosen), nil
	}
	return nil, core.ErrNoWindow
}
