package core

import (
	"sort"

	"slotsel/internal/job"
	"slotsel/internal/obs"
	"slotsel/internal/randx"
	"slotsel/internal/slots"
)

// oracleAlg is a reference twin of a shipped algorithm: the same search
// loop on the same Scan, but every visit reads only win.Cands() and runs the
// per-visit copy+sort kernels (selectMinCost, selectMinRuntimeGreedy, ...)
// on it, never the incremental WindowIndex orders, and every twin scans the
// whole list (the paper's scheme; the scanner stops MinRunTime and MinFinish
// once the answer is settled). The twins exist for the test suites alone
// (this file is a _test.go file, so no production binary carries them):
// they are the executable specification the incremental kernels must match
// window-for-window.
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
func (o oracleAlg) FindObserved(cur slots.Cursor, req *job.Request, col obs.Collector) (*Window, error) {
	return o.find(cur.List(), req, col)
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
	err := Scan(list.Cursor(), req, func(start float64, win *WindowIndex) bool {
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
	err := Scan(list.Cursor(), req, func(start float64, win *WindowIndex) bool {
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
		err := Scan(list.Cursor(), req, func(start float64, win *WindowIndex) bool {
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
		err := Scan(list.Cursor(), req, func(start float64, win *WindowIndex) bool {
			cands := win.Cands()
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
		err := Scan(list.Cursor(), req, func(start float64, win *WindowIndex) bool {
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
	err := Scan(list.Cursor(), req, func(start float64, win *WindowIndex) bool {
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
		err := Scan(list.Cursor(), req, func(start float64, win *WindowIndex) bool {
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

// The per-step copy+sort selection procedures: given the suitable candidates
// at one scan position, pick the n-slot sub-window that is best by the
// criterion, subject to the budget. Each returns the chosen candidates (a
// fresh slice) and whether a feasible choice exists. They are the executable
// specification of the incremental WindowIndex kernels (index.go).

// cheapestN returns the n candidates with the smallest cost. The returned
// slice is freshly allocated; cands is not modified.
func cheapestN(cands []Candidate, n int) []Candidate {
	sorted := append([]Candidate(nil), cands...)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.Cost != b.Cost {
			return a.Cost < b.Cost
		}
		// Tie-break on execution time then node ID for determinism.
		if a.Exec != b.Exec {
			return a.Exec < b.Exec
		}
		return a.Slot.Node.ID < b.Slot.Node.ID
	})
	return sorted[:n]
}

// selectMinCost picks the n cheapest candidates; that choice is by
// construction the minimum-total-cost sub-window at this scan position.
// ok is false when even the cheapest choice exceeds the budget.
func selectMinCost(cands []Candidate, n int, budget float64) (chosen []Candidate, cost float64, ok bool) {
	if len(cands) < n {
		return nil, 0, false
	}
	chosen = cheapestN(cands, n)
	for _, c := range chosen {
		cost += c.Cost
	}
	if budget > 0 && cost > budget {
		return nil, 0, false
	}
	return chosen, cost, true
}

// selectMinRuntimeGreedy implements the paper's §2.2 runtime-minimizing
// procedure: start from the n cheapest slots, then repeatedly try to
// substitute the longest slot of the forming window with the cheapest
// not-yet-considered slot, if it is shorter and the budget allows.
//
// literalBudget reproduces the paper's pseudocode condition verbatim —
// it charges the replacement cost WITHOUT refunding the replaced slot
// (resultWindow.cost + shortSlot.cost <= S), which is stricter than
// intended. The default (false) checks the cost after the swap.
//
// Because the initial choice is the n cheapest slots and extend slots are
// examined in non-decreasing cost order, every swap weakly increases cost,
// so an infeasible initial choice can never become feasible: ok is then
// false.
func selectMinRuntimeGreedy(cands []Candidate, n int, budget float64, literalBudget bool) (chosen []Candidate, runtime float64, ok bool) {
	if len(cands) < n {
		return nil, 0, false
	}
	sorted := cheapestN(cands, len(cands))
	result := append([]Candidate(nil), sorted[:n]...)
	extend := sorted[n:]

	cost := 0.0
	for _, c := range result {
		cost += c.Cost
	}
	if budget > 0 && cost > budget {
		return nil, 0, false
	}

	for _, short := range extend {
		longIdx := maxExecIndex(result)
		long := result[longIdx]
		if short.Exec >= long.Exec {
			continue
		}
		feasible := true
		if budget > 0 {
			if literalBudget {
				feasible = cost+short.Cost <= budget
			} else {
				feasible = cost-long.Cost+short.Cost <= budget
			}
		}
		if feasible {
			cost += short.Cost - long.Cost
			result[longIdx] = short
		}
	}
	return result, maxExec(result), true
}

// selectMinRuntimeExact finds the true minimum-runtime sub-window: sort the
// candidates by execution time, and for each prefix (i.e. each possible
// runtime bound) take the n cheapest slots inside the prefix; the first
// prefix whose cheapest choice fits the budget yields the optimum. This is
// an extension over the paper's greedy procedure and serves as its oracle
// in tests. O(m log m).
func selectMinRuntimeExact(cands []Candidate, n int, budget float64) (chosen []Candidate, runtime float64, ok bool) {
	if len(cands) < n {
		return nil, 0, false
	}
	byExec := append([]Candidate(nil), cands...)
	sort.Slice(byExec, func(i, j int) bool {
		a, b := byExec[i], byExec[j]
		if a.Exec != b.Exec {
			return a.Exec < b.Exec
		}
		if a.Cost != b.Cost {
			return a.Cost < b.Cost
		}
		return a.Slot.Node.ID < b.Slot.Node.ID
	})
	// Maintain the n cheapest of the prefix with a max-heap on cost.
	heap := make([]Candidate, 0, n)
	sum := 0.0
	for i, c := range byExec {
		if len(heap) < n {
			heapPush(&heap, c)
			sum += c.Cost
		} else if c.Cost < heap[0].Cost {
			sum += c.Cost - heap[0].Cost
			heapReplace(heap, c)
		}
		if len(heap) == n {
			// The prefix bound is byExec[i].Exec; don't finalize while the
			// next candidate has the identical exec (it may be cheaper).
			if i+1 < len(byExec) && byExec[i+1].Exec == byExec[i].Exec {
				continue
			}
			if budget <= 0 || sum <= budget {
				return append([]Candidate(nil), heap...), byExec[i].Exec, true
			}
		}
	}
	return nil, 0, false
}

func maxExecIndex(cs []Candidate) int {
	idx := 0
	for i, c := range cs {
		if c.Exec > cs[idx].Exec {
			idx = i
		}
	}
	return idx
}

func sumExec(cs []Candidate) float64 {
	s := 0.0
	for _, c := range cs {
		s += c.Exec
	}
	return s
}

// selectRandom picks a uniformly random n-subset; this is the paper's
// *simplified* MinProcTime step ("a random window is selected"). ok is
// false when the random choice violates the budget — the scan step then
// contributes no window, matching the no-optimization spirit of the scheme.
func selectRandom(cands []Candidate, n int, budget float64, rng *randx.Rand) (chosen []Candidate, ok bool) {
	if len(cands) < n {
		return nil, false
	}
	idx := rng.Sample(len(cands), n)
	chosen = make([]Candidate, 0, n)
	cost := 0.0
	for _, i := range idx {
		chosen = append(chosen, cands[i])
		cost += cands[i].Cost
	}
	if budget > 0 && cost > budget {
		return nil, false
	}
	return chosen, true
}

// selectMinAdditiveGreedy generalizes the runtime-minimizing substitution to
// any additive per-slot weight (total processor time, energy, ...): start
// from the n cheapest slots and substitute the heaviest slot with cheaper
// lighter ones while the budget allows. Swaps weakly increase cost and
// strictly decrease total weight, so the loop terminates with a feasible
// (not necessarily optimal) window.
func selectMinAdditiveGreedy(cands []Candidate, n int, budget float64, weight func(Candidate) float64) (chosen []Candidate, total float64, ok bool) {
	if len(cands) < n {
		return nil, 0, false
	}
	sorted := cheapestN(cands, len(cands))
	result := append([]Candidate(nil), sorted[:n]...)
	extend := sorted[n:]

	cost := 0.0
	for _, c := range result {
		cost += c.Cost
	}
	if budget > 0 && cost > budget {
		return nil, 0, false
	}
	for _, short := range extend {
		heavyIdx := 0
		for i := range result {
			if weight(result[i]) > weight(result[heavyIdx]) {
				heavyIdx = i
			}
		}
		heavy := result[heavyIdx]
		if weight(short) >= weight(heavy) {
			continue
		}
		if budget > 0 && cost-heavy.Cost+short.Cost > budget {
			continue
		}
		cost += short.Cost - heavy.Cost
		result[heavyIdx] = short
	}
	total = 0
	for _, c := range result {
		total += weight(c)
	}
	return result, total, true
}
