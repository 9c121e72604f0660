package core

import (
	"slotsel/internal/job"
	"slotsel/internal/obs"
	"slotsel/internal/randx"
	"slotsel/internal/slots"
)

// oracleAlg is a reference twin of a shipped algorithm: the same search
// loop on the same Scan, but every visit reads only win.Cands() and runs the
// per-visit copy+sort kernels (selectMinCost, selectMinRuntimeGreedy, ...)
// on it, never the incremental WindowIndex orders. The twins exist for the
// differential test suite and the bench harness: they are the executable
// specification the incremental kernels must match window-for-window.
type oracleAlg struct {
	name string
	find func(list slots.List, req *job.Request, col obs.Collector) (*Window, error)
}

// Name implements Algorithm.
func (o oracleAlg) Name() string { return o.name }

// Find implements Algorithm.
func (o oracleAlg) Find(list slots.List, req *job.Request) (*Window, error) {
	return o.find(list, req, nil)
}

// FindObserved implements ObservedFinder.
func (o oracleAlg) FindObserved(list slots.List, req *job.Request, col obs.Collector) (*Window, error) {
	return o.find(list, req, col)
}

// Oracle returns the copy+sort reference twin of a shipped algorithm, or
// ok == false when the algorithm has no oracle (an unknown third-party
// implementation). The twin preserves Name() so result tables line up, and
// is guaranteed — by the kernel equivalence the differential suite pins —
// to return a window with the same signature as the original for every
// input.
func Oracle(alg Algorithm) (Algorithm, bool) {
	switch a := alg.(type) {
	case AMP:
		return oracleAlg{name: a.Name(), find: oracleAMP}, true
	case MinCost:
		return oracleAlg{name: a.Name(), find: oracleMinCost}, true
	case MinRunTime:
		return oracleAlg{name: a.Name(), find: oracleMinRunTime(a)}, true
	case MinFinish:
		return oracleAlg{name: a.Name(), find: oracleMinFinish(a)}, true
	case MinProcTime:
		return oracleAlg{name: a.Name(), find: oracleMinProcTime(a)}, true
	case MinProcTimeGreedy:
		return oracleAlg{name: a.Name(), find: oracleMinProcTimeGreedy}, true
	case MinEnergy:
		return oracleAlg{name: a.Name(), find: oracleMinEnergy(a)}, true
	}
	return nil, false
}

func oracleAMP(list slots.List, req *job.Request, col obs.Collector) (*Window, error) {
	var best *Window
	err := Scan(list, req, func(start float64, win *WindowIndex) bool {
		chosen, _, ok := selectMinCost(win.Cands(), req.TaskCount, req.MaxCost)
		if !ok {
			return false
		}
		best = NewWindow(start, chosen)
		return true
	}, col)
	return Found(best, err)
}

func oracleMinCost(list slots.List, req *job.Request, col obs.Collector) (*Window, error) {
	var best *Window
	err := Scan(list, req, func(start float64, win *WindowIndex) bool {
		chosen, cost, ok := selectMinCost(win.Cands(), req.TaskCount, req.MaxCost)
		if !ok {
			return false
		}
		if best == nil || cost < best.Cost {
			best = NewWindow(start, chosen)
		}
		return false
	}, col)
	return Found(best, err)
}

func oracleMinRunTime(a MinRunTime) func(slots.List, *job.Request, obs.Collector) (*Window, error) {
	return func(list slots.List, req *job.Request, col obs.Collector) (*Window, error) {
		var best *Window
		err := Scan(list, req, func(start float64, win *WindowIndex) bool {
			cands := win.Cands()
			var chosen []Candidate
			var runtime float64
			var ok bool
			if a.Exact {
				chosen, runtime, ok = selectMinRuntimeExact(cands, req.TaskCount, req.MaxCost)
			} else {
				chosen, runtime, ok = selectMinRuntimeGreedy(cands, req.TaskCount, req.MaxCost, a.LiteralBudget)
			}
			if !ok {
				return false
			}
			if best == nil || runtime < best.Runtime {
				best = NewWindow(start, chosen)
			}
			return false
		}, col)
		return Found(best, err)
	}
}

func oracleMinFinish(a MinFinish) func(slots.List, *job.Request, obs.Collector) (*Window, error) {
	return func(list slots.List, req *job.Request, col obs.Collector) (*Window, error) {
		var best *Window
		err := Scan(list, req, func(start float64, win *WindowIndex) bool {
			cands := win.Cands()
			if a.EarlyStop && best != nil && start >= best.Finish() {
				return true
			}
			var chosen []Candidate
			var ok bool
			if a.Exact {
				chosen, _, ok = selectMinRuntimeExact(cands, req.TaskCount, req.MaxCost)
			} else {
				chosen, _, ok = selectMinRuntimeGreedy(cands, req.TaskCount, req.MaxCost, false)
			}
			if !ok {
				return false
			}
			w := NewWindow(start, chosen)
			if best == nil || w.Finish() < best.Finish() {
				best = w
			}
			return false
		}, col)
		return Found(best, err)
	}
}

func oracleMinProcTime(a MinProcTime) func(slots.List, *job.Request, obs.Collector) (*Window, error) {
	return func(list slots.List, req *job.Request, col obs.Collector) (*Window, error) {
		rng := randx.New(a.Seed)
		var best *Window
		err := Scan(list, req, func(start float64, win *WindowIndex) bool {
			chosen, ok := selectRandom(win.Cands(), req.TaskCount, req.MaxCost, rng)
			if !ok {
				return false
			}
			w := NewWindow(start, chosen)
			if best == nil || w.ProcTime < best.ProcTime {
				best = w
			}
			return false
		}, col)
		return Found(best, err)
	}
}

func oracleMinProcTimeGreedy(list slots.List, req *job.Request, col obs.Collector) (*Window, error) {
	var best *Window
	err := Scan(list, req, func(start float64, win *WindowIndex) bool {
		chosen, total, ok := selectMinAdditiveGreedy(win.Cands(), req.TaskCount, req.MaxCost,
			func(c Candidate) float64 { return c.Exec })
		if !ok {
			return false
		}
		if best == nil || total < best.ProcTime {
			best = NewWindow(start, chosen)
		}
		return false
	}, col)
	return Found(best, err)
}

func oracleMinEnergy(a MinEnergy) func(slots.List, *job.Request, obs.Collector) (*Window, error) {
	return func(list slots.List, req *job.Request, col obs.Collector) (*Window, error) {
		model := a.Model
		if model == nil {
			model = DefaultEnergyModel
		}
		var best *Window
		var bestEnergy float64
		err := Scan(list, req, func(start float64, win *WindowIndex) bool {
			chosen, total, ok := selectMinAdditiveGreedy(win.Cands(), req.TaskCount, req.MaxCost,
				func(c Candidate) float64 { return model(c.Slot.Node.Perf, c.Exec) })
			if !ok {
				return false
			}
			if best == nil || total < bestEnergy {
				best = NewWindow(start, chosen)
				bestEnergy = total
			}
			return false
		}, col)
		return Found(best, err)
	}
}
