package core

import (
	"sort"

	"slotsel/internal/randx"
)

// WindowIndex is the incrementally maintained candidate index of one AEP
// scan: alongside the append-order window it keeps a cost-ordered mirror
// (the (Cost, Exec, NodeID) total order of cheapestN) with running
// prefix-cost sums, so the per-visit selection procedures read sorted
// candidates instead of copying and re-sorting the window at every scan
// position. The window changes by a handful of insertions and expiries per
// step, so maintenance is amortized O(w) per step (one binary search plus
// one memmove per insertion, one in-place compaction per expiry round)
// where the oracle kernels pay O(w log w) per visit.
//
// Both mirrors are activated lazily, by the first select of a scan that
// reads them (the cost mirror by every kernel but the random step, the
// execution-time-ordered one by the exact runtime kernel alone), so a visit
// that only reads Cands() — the random MinProcTime step, the baselines, the
// copy+sort oracle twins — never pays for an ordering it does not use.
//
// Lifetime: a WindowIndex handed to a VisitFunc is owned by the scan and
// reused between visits; the slices returned by Cands, ByCost and ByExec
// are live views, and the chosen slice a Select* method returns is the
// index's scratch buffer, valid until the next select on the same index:
// copy what you keep.
type WindowIndex struct {
	// cands is the window in scan append order (non-decreasing slot start).
	cands []Candidate

	// byCost mirrors cands in the (Cost, Exec, NodeID) order; empty until a
	// select that reads it activates tracking.
	byCost    []Candidate
	trackCost bool

	// prefix holds running cost sums over byCost: prefix[i] is the total
	// cost of the i cheapest candidates (prefix[0] = 0), always accumulated
	// left to right so it is bit-identical to summing byCost[:i] directly.
	prefix []float64

	// byExec mirrors cands in the (Exec, Cost, NodeID) order; empty until
	// the exact runtime kernel activates tracking.
	byExec    []Candidate
	trackExec bool

	// scratch is the chosen-slice buffer the Select* kernels return: one
	// buffer, recycled across visits, consumed by the caller before the
	// next selection. sample is SelectRandom's index scratch.
	scratch []Candidate
	sample  []int
}

// NewWindowIndex builds an index over a snapshot of the given candidates
// (the slice is copied) with the cost mirror already active. It is the
// entry point for tests and tools that want the incremental kernels outside
// a scan; inside a scan the index is maintained incrementally and this
// constructor is never on the hot path.
func NewWindowIndex(cands []Candidate) *WindowIndex {
	ix := &WindowIndex{cands: append([]Candidate(nil), cands...)}
	ix.activateCost()
	return ix
}

// costLess is the cheapestN total order: cost, then execution time, then
// node ID. Node IDs are unique within a scan window (per node, free slots
// are disjoint and every retained slot contains the current start), so the
// order is total and the mirror is deterministic.
func costLess(a, b Candidate) bool {
	if a.Cost != b.Cost {
		return a.Cost < b.Cost
	}
	if a.Exec != b.Exec {
		return a.Exec < b.Exec
	}
	return a.Slot.Node.ID < b.Slot.Node.ID
}

// execLess is the exact runtime kernel's total order: execution time, then
// cost, then node ID.
func execLess(a, b Candidate) bool {
	if a.Exec != b.Exec {
		return a.Exec < b.Exec
	}
	if a.Cost != b.Cost {
		return a.Cost < b.Cost
	}
	return a.Slot.Node.ID < b.Slot.Node.ID
}

// Len returns the current window size.
func (ix *WindowIndex) Len() int { return len(ix.cands) }

// Cands returns the window in scan append order. The slice is live scan
// state: copy what you keep.
func (ix *WindowIndex) Cands() []Candidate { return ix.cands }

// ByCost returns the cost-ordered mirror; it is empty until a select that
// reads it has run on this index. The slice is live scan state: copy what
// you keep.
func (ix *WindowIndex) ByCost() []Candidate { return ix.byCost }

// ByExec returns the execution-time-ordered mirror; it is empty unless the
// exact runtime kernel has run on this index. The slice is live scan
// state: copy what you keep.
func (ix *WindowIndex) ByExec() []Candidate { return ix.byExec }

// PrefixCost returns the total cost of the n cheapest candidates, an O(1)
// read of the running prefix sums. n must be within [0, len(ByCost())].
func (ix *WindowIndex) PrefixCost(n int) float64 {
	if n == 0 {
		return 0
	}
	return ix.prefix[n]
}

// add inserts a candidate: append-order window, and — for each mirror
// already activated — a binary-search insertion (the cost mirror's prefix
// sums recomputed from the insertion point).
func (ix *WindowIndex) add(c Candidate) {
	ix.cands = append(ix.cands, c)

	if ix.trackCost {
		pos := sort.Search(len(ix.byCost), func(i int) bool { return costLess(c, ix.byCost[i]) })
		ix.byCost = append(ix.byCost, Candidate{})
		copy(ix.byCost[pos+1:], ix.byCost[pos:])
		ix.byCost[pos] = c

		ix.prefix = append(ix.prefix, 0)
		for i := pos; i < len(ix.byCost); i++ {
			ix.prefix[i+1] = ix.prefix[i] + ix.byCost[i].Cost
		}
	}

	if ix.trackExec {
		pos := sort.Search(len(ix.byExec), func(i int) bool { return execLess(c, ix.byExec[i]) })
		ix.byExec = append(ix.byExec, Candidate{})
		copy(ix.byExec[pos+1:], ix.byExec[pos:])
		ix.byExec[pos] = c
	}
}

// expire drops every candidate for which keep is false, compacting the
// window and the activated mirrors in place (order preserved) and
// recomputing prefix sums from the first removal.
func (ix *WindowIndex) expire(keep func(Candidate) bool) {
	var first int
	if ix.cands, first = compact(ix.cands, keep); first < 0 {
		return // nothing expired; mirrors are untouched
	}
	if ix.trackCost {
		ix.byCost, first = compact(ix.byCost, keep)
		ix.prefix = ix.prefix[:len(ix.byCost)+1]
		for i := first; i < len(ix.byCost); i++ {
			ix.prefix[i+1] = ix.prefix[i] + ix.byCost[i].Cost
		}
	}
	if ix.trackExec {
		ix.byExec, _ = compact(ix.byExec, keep)
	}
}

// compact filters s in place, preserving order, and returns the index of
// the first element dropped (-1: none).
func compact(s []Candidate, keep func(Candidate) bool) (kept []Candidate, first int) {
	kept, first = s[:0], -1
	for i, c := range s {
		if keep(c) {
			kept = append(kept, c)
		} else if first < 0 {
			first = i
		}
	}
	return kept, first
}

// reset empties the index, retaining capacity, for reuse across scans.
func (ix *WindowIndex) reset() {
	ix.cands = ix.cands[:0]
	ix.byCost = ix.byCost[:0]
	ix.trackCost = false
	ix.prefix = ix.prefix[:0]
	ix.byExec = ix.byExec[:0]
	ix.trackExec = false
	ix.scratch = ix.scratch[:0]
	ix.sample = ix.sample[:0]
}

// activateCost lazily builds the cost-ordered mirror and its prefix sums;
// from then on add and expire maintain them incrementally. Mirror and sums
// are exactly what incremental maintenance from the first add would have
// left: costLess is a strict total order, so the sorted sequence is unique,
// and the sums are accumulated left to right either way.
func (ix *WindowIndex) activateCost() {
	if ix.trackCost {
		return
	}
	ix.trackCost = true
	ix.byCost = sortedInto(ix.byCost[:0], ix.cands, costLess)
	ix.prefix = append(ix.prefix[:0], 0)
	for i, c := range ix.byCost {
		ix.prefix = append(ix.prefix, ix.prefix[i]+c.Cost)
	}
}

// activateExec is activateCost for the exec-ordered mirror.
func (ix *WindowIndex) activateExec() {
	if ix.trackExec {
		return
	}
	ix.trackExec = true
	ix.byExec = sortedInto(ix.byExec[:0], ix.cands, execLess)
}

// sortedInto copies cands into dst and sorts them by a binary insertion
// sort rather than sort.Slice: less is a strict total order, so the result
// is identical, and the insertion sort works in place without sort.Slice's
// reflection allocation. It runs once per scan and mirror.
func sortedInto(dst, cands []Candidate, less func(a, b Candidate) bool) []Candidate {
	s := append(dst, cands...)
	for i := 1; i < len(s); i++ {
		c := s[i]
		pos := sort.Search(i, func(j int) bool { return less(c, s[j]) })
		copy(s[pos+1:i+1], s[pos:i])
		s[pos] = c
	}
	return s
}

// SelectMinCost is the incremental twin of the selectMinCost oracle: the n
// cheapest candidates are a prefix of the cost mirror and their total is a
// prefix-sum read, so the per-visit work is O(n) (the copy) instead of
// O(w log w). Like every Select*, it returns the index's scratch buffer —
// valid only until the next select on this index.
func (ix *WindowIndex) SelectMinCost(n int, budget float64) (chosen []Candidate, cost float64, ok bool) {
	ix.activateCost()
	if len(ix.byCost) < n {
		return nil, 0, false
	}
	cost = ix.PrefixCost(n)
	if budget > 0 && cost > budget {
		return nil, 0, false
	}
	s := append(ix.scratch[:0], ix.byCost[:n]...)
	ix.scratch = s
	return s, cost, true
}

// SelectMinRuntimeGreedy is the incremental twin of selectMinRuntimeGreedy:
// the initial window is the cost mirror's prefix (its cost a prefix-sum
// read) and the extend slots are the mirror's tail, already in
// non-decreasing cost order — no per-visit sort. The substitution loop is
// unchanged, so the output is candidate-for-candidate identical to the
// oracle's.
func (ix *WindowIndex) SelectMinRuntimeGreedy(n int, budget float64, literalBudget bool) (chosen []Candidate, runtime float64, ok bool) {
	result, cost, ok := ix.SelectMinCost(n, budget)
	if !ok {
		return nil, 0, false
	}
	for _, short := range ix.byCost[n:] {
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

// SelectMinAdditiveGreedy is the incremental twin of
// selectMinAdditiveGreedy for an arbitrary additive per-slot weight.
func (ix *WindowIndex) SelectMinAdditiveGreedy(n int, budget float64, weight func(Candidate) float64) (chosen []Candidate, total float64, ok bool) {
	result, cost, ok := ix.SelectMinCost(n, budget)
	if !ok {
		return nil, 0, false
	}
	for _, short := range ix.byCost[n:] {
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

// SelectMinRuntimeExact is the incremental entry path of the exact
// minimum-runtime oracle: the exec-ordered prefix walk and cost heap are
// unchanged, but the exec ordering comes from the incrementally maintained
// mirror instead of a per-visit sort. The first call of a scan sorts the
// current window once to activate the mirror; later visits reuse it. The
// cost heap lives in the scratch buffer.
func (ix *WindowIndex) SelectMinRuntimeExact(n int, budget float64) (chosen []Candidate, runtime float64, ok bool) {
	if len(ix.cands) < n {
		return nil, 0, false
	}
	ix.activateExec()
	heap := ix.scratch[:0]
	sum := 0.0
	for i, c := range ix.byExec {
		if len(heap) < n {
			heapPush(&heap, c)
			sum += c.Cost
		} else if c.Cost < heap[0].Cost {
			sum += c.Cost - heap[0].Cost
			heapReplace(heap, c)
		}
		if len(heap) == n {
			if i+1 < len(ix.byExec) && ix.byExec[i+1].Exec == ix.byExec[i].Exec {
				continue
			}
			if budget <= 0 || sum <= budget {
				ix.scratch = heap
				return heap, ix.byExec[i].Exec, true
			}
		}
	}
	ix.scratch = heap
	return nil, 0, false
}

// SelectRandom is the paper's simplified MinProcTime step: a uniformly
// random n-subset of the append-order window, rejected when over budget.
// It reads Cands alone — no mirror is activated — and the sample stream
// (drawn before the budget check) and the chosen order are identical to
// the allocating selectRandom oracle's.
func (ix *WindowIndex) SelectRandom(n int, budget float64, rng *randx.Rand) (chosen []Candidate, ok bool) {
	if len(ix.cands) < n {
		return nil, false
	}
	ix.sample = rng.SampleInto(ix.sample[:0], len(ix.cands), n)
	chosen = ix.scratch[:0]
	cost := 0.0
	for _, i := range ix.sample {
		chosen = append(chosen, ix.cands[i])
		cost += ix.cands[i].Cost
	}
	ix.scratch = chosen
	if budget > 0 && cost > budget {
		return nil, false
	}
	return chosen, true
}
