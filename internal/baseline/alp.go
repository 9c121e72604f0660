package baseline

import (
	"slotsel/internal/core"
	"slotsel/internal/job"
	"slotsel/internal/obs"
	"slotsel/internal/slots"
)

// ALP is the "Algorithm based on Local Price of slots" from the authors'
// earlier works ([15-17] of the paper): instead of constraining the total
// window cost, every slot must individually satisfy a local price share of
// the budget — cost(slot) <= S/n. The first scan position with n such slots
// wins (first fit, earliest start).
//
// The paper reports AMP's advantage over ALP: a window rejected by ALP for
// one locally-expensive slot can still satisfy the total budget when other
// slots are cheap, so ALP starts later (or misses) where AMP succeeds.
type ALP struct{}

// Name implements core.Algorithm.
func (ALP) Name() string { return "ALP" }

// Find implements core.Algorithm.
func (a ALP) Find(list slots.List, req *job.Request) (*core.Window, error) {
	return a.FindObserved(list.Cursor(), req, nil)
}

// FindObserved implements core.ObservedFinder.
func (ALP) FindObserved(cur slots.Cursor, req *job.Request, col obs.Collector) (*core.Window, error) {
	localLimit := 0.0
	if req.MaxCost > 0 && req.TaskCount > 0 {
		localLimit = req.MaxCost / float64(req.TaskCount)
	}
	var best *core.Window
	err := core.Scan(cur, req, func(start float64, win *core.WindowIndex) bool {
		var chosen []core.Candidate
		for _, c := range win.Cands() {
			if localLimit > 0 && c.Cost > localLimit {
				continue
			}
			chosen = append(chosen, c)
			if len(chosen) == req.TaskCount {
				break
			}
		}
		if len(chosen) < req.TaskCount {
			return false
		}
		best = core.NewWindow(start, chosen)
		return true
	}, col)
	return core.Found(best, err)
}
