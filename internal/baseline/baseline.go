// Package baseline implements the comparison algorithms the paper positions
// AEP against, plus exact solvers used as test oracles:
//
//   - FirstFit: assigns the job to the first set of slots matching the
//     request without any optimization (the backtrack / NorduGrid family).
//   - EarliestStartQuadratic: a backfilling-style earliest-start search that
//     probes every node's availability at every slot start event — the
//     quadratic-in-slots approach AMP's linear scan replaces.
//   - BruteForce: exhaustive enumeration of all feasible windows, optimal by
//     any criterion (small instances only; used as the oracle for AMP,
//     MinCost, MinRunTime and MinFinish).
//   - MinWeightSubset: exact branch-and-bound for the 0-1 selection problem
//     of §2.1 (minimize an additive weight subject to the cost budget), the
//     IP-style formulation of the related work.
package baseline

import (
	"math"
	"sort"

	"slotsel/internal/core"
	"slotsel/internal/job"
	"slotsel/internal/obs"
	"slotsel/internal/slots"
)

// FirstFit scans the ordered slot list and accepts the first n suitable
// slots (in list order, no cost optimization among candidates) whose total
// cost fits the budget. It models the first-fit selection of backtrack-like
// and NorduGrid brokers.
type FirstFit struct{}

// Name implements core.Algorithm.
func (FirstFit) Name() string { return "FirstFit" }

// Find implements core.Algorithm.
func (a FirstFit) Find(list slots.List, req *job.Request) (*core.Window, error) {
	return a.FindObserved(list, req, nil)
}

// FindObserved implements core.ObservedFinder.
func (FirstFit) FindObserved(list slots.List, req *job.Request, col obs.Collector) (*core.Window, error) {
	var best *core.Window
	err := core.Scan(list, req, func(start float64, win *core.WindowIndex) bool {
		chosen := win.Cands()[:req.TaskCount]
		cost := 0.0
		for _, c := range chosen {
			cost += c.Cost
		}
		if req.MaxCost > 0 && cost > req.MaxCost {
			return false
		}
		best = core.NewWindow(start, chosen)
		return true
	}, col)
	return core.Found(best, err)
}

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
	starts := candidateStarts(list)
	for _, start := range starts {
		cands := suitableAt(list, req, start)
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

// candidateStarts returns the sorted distinct slot start times. Any optimal
// window start coincides with some slot start: sliding a window earlier is
// possible until one of its slots begins.
func candidateStarts(list slots.List) []float64 {
	starts := make([]float64, 0, len(list))
	for _, s := range list {
		starts = append(starts, s.Start)
	}
	sort.Float64s(starts)
	out := starts[:0]
	for i, v := range starts {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// suitableAt collects the candidates able to host one task starting exactly
// at start.
func suitableAt(list slots.List, req *job.Request, start float64) []core.Candidate {
	var cands []core.Candidate
	for _, s := range list {
		if !req.Matches(s.Node) {
			continue
		}
		exec := req.ExecTime(s.Node)
		if !s.FitsAt(start, req.Volume) {
			continue
		}
		if req.Deadline > 0 && start+exec > req.Deadline {
			continue
		}
		cands = append(cands, core.Candidate{Slot: s, Exec: exec, Cost: exec * s.Node.Price})
	}
	return cands
}

// Objective scores a window for BruteForce; smaller is better.
type Objective func(w *core.Window) float64

// Objectives matching the paper's criteria.
var (
	ObjStart    Objective = func(w *core.Window) float64 { return w.Start }
	ObjFinish   Objective = func(w *core.Window) float64 { return w.Finish() }
	ObjCost     Objective = func(w *core.Window) float64 { return w.Cost }
	ObjRuntime  Objective = func(w *core.Window) float64 { return w.Runtime }
	ObjProcTime Objective = func(w *core.Window) float64 { return w.ProcTime }
)

// BruteForce exhaustively enumerates all feasible windows (every candidate
// start x every n-subset of the slots suitable there) and returns the one
// minimizing the objective. Exponential; only for small instances and tests.
type BruteForce struct {
	Obj Objective
}

// Name implements core.Algorithm.
func (BruteForce) Name() string { return "BruteForce" }

// Find implements core.Algorithm.
func (b BruteForce) Find(list slots.List, req *job.Request) (*core.Window, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	obj := b.Obj
	if obj == nil {
		obj = ObjStart
	}
	var best *core.Window
	bestVal := math.Inf(1)
	for _, start := range candidateStarts(list) {
		cands := suitableAt(list, req, start)
		if len(cands) < req.TaskCount {
			continue
		}
		forEachSubset(cands, req.TaskCount, func(chosen []core.Candidate) {
			cost := 0.0
			for _, c := range chosen {
				cost += c.Cost
			}
			if req.MaxCost > 0 && cost > req.MaxCost {
				return
			}
			w := core.NewWindow(start, append([]core.Candidate(nil), chosen...))
			if v := obj(w); v < bestVal {
				best, bestVal = w, v
			}
		})
	}
	if best == nil {
		return nil, core.ErrNoWindow
	}
	return best, nil
}

// forEachSubset invokes fn for every k-subset of cands. fn must not retain
// the slice.
func forEachSubset(cands []core.Candidate, k int, fn func([]core.Candidate)) {
	n := len(cands)
	if k > n || k <= 0 {
		return
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	buf := make([]core.Candidate, k)
	for {
		for i, j := range idx {
			buf[i] = cands[j]
		}
		fn(buf)
		// advance combination
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// MinWeightSubset solves the §2.1 0-1 selection problem exactly: choose
// exactly k of the candidates minimizing the total weight subject to the
// total cost budget (<= 0 means unconstrained). It is a depth-first branch
// and bound over candidates sorted by weight, with optimistic weight bounds
// and a cheapest-completion feasibility bound. Exponential in the worst
// case; intended for moderate candidate counts and as a test oracle for the
// additive-criterion heuristics.
func MinWeightSubset(cands []core.Candidate, k int, budget float64, weight func(core.Candidate) float64) ([]core.Candidate, float64, bool) {
	n := len(cands)
	if k <= 0 || k > n {
		return nil, 0, false
	}
	order := append([]core.Candidate(nil), cands...)
	sort.Slice(order, func(i, j int) bool { return weight(order[i]) < weight(order[j]) })

	// suffixMinCost[i][j]: the minimum cost of choosing j items from
	// order[i:], used to prune branches that cannot fit the budget.
	// Computed as a rolling DP to keep memory at O(n x k).
	suffixMinCost := make([][]float64, n+1)
	for i := range suffixMinCost {
		suffixMinCost[i] = make([]float64, k+1)
	}
	for j := 1; j <= k; j++ {
		suffixMinCost[n][j] = math.Inf(1)
	}
	for i := n - 1; i >= 0; i-- {
		for j := 1; j <= k; j++ {
			skip := suffixMinCost[i+1][j]
			take := order[i].Cost + suffixMinCost[i+1][j-1]
			suffixMinCost[i][j] = math.Min(skip, take)
		}
	}

	bestWeight := math.Inf(1)
	var bestSet []core.Candidate
	cur := make([]core.Candidate, 0, k)

	var rec func(i, left int, curWeight, curCost float64)
	rec = func(i, left int, curWeight, curCost float64) {
		if left == 0 {
			if curWeight < bestWeight {
				bestWeight = curWeight
				bestSet = append(bestSet[:0], cur...)
			}
			return
		}
		if i >= n || n-i < left {
			return
		}
		// Optimistic weight bound: items are weight-sorted, so the best
		// possible completion uses the next `left` items.
		optimistic := curWeight
		for j := 0; j < left; j++ {
			optimistic += weight(order[i+j])
		}
		if optimistic >= bestWeight {
			return
		}
		// Feasibility bound: cheapest possible completion must fit budget.
		if budget > 0 && curCost+suffixMinCost[i][left] > budget {
			return
		}
		// Take order[i].
		if budget <= 0 || curCost+order[i].Cost+minCostAfter(suffixMinCost, i+1, left-1) <= budget {
			cur = append(cur, order[i])
			rec(i+1, left-1, curWeight+weight(order[i]), curCost+order[i].Cost)
			cur = cur[:len(cur)-1]
		}
		// Skip order[i].
		rec(i+1, left, curWeight, curCost)
	}
	rec(0, k, 0, 0)
	if bestSet == nil {
		return nil, 0, false
	}
	return bestSet, bestWeight, true
}

func minCostAfter(suffix [][]float64, i, j int) float64 {
	if j == 0 {
		return 0
	}
	return suffix[i][j]
}
