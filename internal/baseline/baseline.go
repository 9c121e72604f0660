// Package baseline implements the comparison algorithms the paper positions
// AEP against, plus an exact solver:
//
//   - FirstFit: assigns the job to the first set of slots matching the
//     request without any optimization (the backtrack / NorduGrid family).
//   - MinWeightSubset: exact branch-and-bound for the 0-1 selection problem
//     of §2.1 (minimize an additive weight subject to the cost budget), the
//     IP-style formulation of the related work.
//
// The test oracles live in test code: the exhaustive BruteForce in
// internal/testkit, and the quadratic earliest-start search in this
// package's tests.
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
	return a.FindObserved(list.Cursor(), req, nil)
}

// FindObserved implements core.ObservedFinder.
func (FirstFit) FindObserved(cur slots.Cursor, req *job.Request, col obs.Collector) (*core.Window, error) {
	var best *core.Window
	err := core.Scan(cur, req, func(start float64, win *core.WindowIndex) bool {
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
		if budget <= 0 || curCost+order[i].Cost+suffixMinCost[i+1][left-1] <= budget {
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
