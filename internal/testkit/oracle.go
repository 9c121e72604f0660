package testkit

import (
	"fmt"
	"math"
	"sort"

	"slotsel/internal/core"
	"slotsel/internal/job"
	"slotsel/internal/slots"
)

// ValidateWindow checks that w is a feasible answer for req on the
// environment it was built from: exactly n placements on matching, pairwise
// distinct nodes, each placement inside its slot, correct derived
// quantities, budget and deadline respected.
func ValidateWindow(w *core.Window, req *job.Request) error {
	if len(w.Placements) != req.TaskCount {
		return fmt.Errorf("window has %d placements, want %d", len(w.Placements), req.TaskCount)
	}
	seen := make(map[int]bool, len(w.Placements))
	var cost, proc, runtime float64
	for i, p := range w.Placements {
		n := p.Node()
		if n == nil {
			return fmt.Errorf("placement %d has nil node", i)
		}
		if seen[n.ID] {
			return fmt.Errorf("node %d used by two placements", n.ID)
		}
		seen[n.ID] = true
		if !req.Matches(n) {
			return fmt.Errorf("node %d does not match the request", n.ID)
		}
		if p.Start != w.Start {
			return fmt.Errorf("placement %d starts at %.4f, window at %.4f", i, p.Start, w.Start)
		}
		wantExec := req.ExecTime(n)
		if !approxEq(p.Exec, wantExec) {
			return fmt.Errorf("placement %d exec %.6f, want %.6f", i, p.Exec, wantExec)
		}
		if !(p.Slot.Start <= p.Start && p.Start+wantExec <= p.Slot.End) {
			return fmt.Errorf("placement %d does not fit its slot %v", i, p.Slot)
		}
		if !approxEq(p.Cost, p.Exec*n.Price) {
			return fmt.Errorf("placement %d cost %.6f, want %.6f", i, p.Cost, p.Exec*n.Price)
		}
		cost += p.Cost
		proc += p.Exec
		if p.Exec > runtime {
			runtime = p.Exec
		}
	}
	if !approxEq(cost, w.Cost) || !approxEq(proc, w.ProcTime) || !approxEq(runtime, w.Runtime) {
		return fmt.Errorf("window aggregates inconsistent: %v", w)
	}
	if req.MaxCost > 0 && w.Cost > req.MaxCost*(1+1e-9) {
		return fmt.Errorf("window cost %.4f exceeds budget %.4f", w.Cost, req.MaxCost)
	}
	if req.Deadline > 0 && w.Finish() > req.Deadline*(1+1e-9) {
		return fmt.Errorf("window finish %.4f exceeds deadline %.4f", w.Finish(), req.Deadline)
	}
	return nil
}

func approxEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := 1.0
	if a > scale {
		scale = a
	}
	if b > scale {
		scale = b
	}
	return d <= 1e-9*scale
}

// Disjoint reports whether the alternatives are pairwise non-overlapping in
// their node-time usage — the defining property of the CSA alternative set.
func Disjoint(alts []*core.Window) bool {
	type usage struct {
		node int
		iv   slots.Interval
	}
	var all []usage
	for _, w := range alts {
		for _, p := range w.Placements {
			u := usage{node: p.Node().ID, iv: p.Used()}
			for _, prev := range all {
				if prev.node == u.node && prev.iv.Overlaps(u.iv) {
					return false
				}
			}
			all = append(all, u)
		}
	}
	return true
}

// Objective scores a window for BruteForce; smaller is better.
type Objective func(w *core.Window) float64

// Objectives matching the paper's criteria.
var (
	ObjStart   Objective = func(w *core.Window) float64 { return w.Start }
	ObjFinish  Objective = func(w *core.Window) float64 { return w.Finish() }
	ObjCost    Objective = func(w *core.Window) float64 { return w.Cost }
	ObjRuntime Objective = func(w *core.Window) float64 { return w.Runtime }
)

// BruteForce exhaustively enumerates all feasible windows (every candidate
// start x every n-subset of the slots suitable there) and returns the one
// minimizing the objective. Exponential; the oracle for AMP, MinCost,
// MinRunTime and MinFinish on small instances.
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
	for _, start := range CandidateStarts(list) {
		cands := SuitableAt(list, req, start)
		if len(cands) < req.TaskCount {
			continue
		}
		ForEachSubset(cands, req.TaskCount, func(chosen []core.Candidate) {
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

// CandidateStarts returns the sorted distinct slot start times. Any optimal
// window start coincides with some slot start: sliding a window earlier is
// possible until one of its slots begins.
func CandidateStarts(list slots.List) []float64 {
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

// SuitableAt collects the candidates able to host one task starting exactly
// at start.
func SuitableAt(list slots.List, req *job.Request, start float64) []core.Candidate {
	var cands []core.Candidate
	for _, s := range list {
		if !req.Matches(s.Node) {
			continue
		}
		exec := req.ExecTime(s.Node)
		if !(s.Start <= start && start+exec <= s.End) {
			continue
		}
		if req.Deadline > 0 && start+exec > req.Deadline {
			continue
		}
		cands = append(cands, core.Candidate{Slot: s, Exec: exec, Cost: exec * s.Node.Price})
	}
	return cands
}

// ForEachSubset invokes fn for every k-subset of cands. fn must not retain
// the slice.
func ForEachSubset(cands []core.Candidate, k int, fn func([]core.Candidate)) {
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
