package core

import "fmt"

// SetVisitWrapForTest installs (or, with nil, removes) the scan's visit
// wrapper — the seam the aliasing regression tests use to interpose
// testkit.PoisonVisit between the scan loop and the algorithms' selection
// procedures. Tests must restore the previous wrapper when done and must
// not run in parallel with other tests while a wrapper is installed.
func SetVisitWrapForTest(w func(VisitFunc) VisitFunc) { visitWrap = w }

// SetOrderBlockCapForTest shrinks (or restores) the block capacity of the
// selection orders of every index reset from now on, so a window of a
// handful of candidates splits and merges blocks. It returns the previous
// capacity; tests restore it when done and do not run in parallel with
// other tests meanwhile.
func SetOrderBlockCapForTest(n int) (prev int) {
	prev, orderBlockCap = orderBlockCap, n
	return prev
}

// CostCutForTest reports the state of the index's cost order: whether a
// select has activated it, whether it is cut and at which bound, and how
// many candidates it holds.
func (ix *WindowIndex) CostCutForTest() (active, bounded bool, bound Candidate, held int) {
	return ix.cost.active, ix.cost.bounded, ix.cost.bound, ix.cost.n
}

// CheckCostOrderForTest holds the active cost order to its definition: it
// holds exactly the live candidates below its bound (all of them, unbounded),
// in cost order with equals in append order, in blocks within capacity, and
// its count is theirs. It returns the first violation, or nil.
func (ix *WindowIndex) CheckCostOrderForTest() error {
	s := &ix.cost
	if !s.active {
		return nil
	}
	var want []int32
	for _, h := range ix.seq {
		if h != none && s.holds(&ix.arena[h]) {
			want = append(want, h)
		}
	}
	// Insertion sort, stable: equals keep append order.
	for i := 1; i < len(want); i++ {
		for j := i; j > 0 && candLess(&ix.arena[want[j]], &ix.arena[want[j-1]], false); j-- {
			want[j], want[j-1] = want[j-1], want[j]
		}
	}
	var got []int32
	for b, blk := range s.dir {
		if blk.n < 1 || int(blk.n) > s.bcap {
			return fmt.Errorf("block %d holds %d handles, capacity %d", b, blk.n, s.bcap)
		}
		got = append(got, s.h[blk.off:blk.off+blk.n]...)
	}
	if len(got) != s.n || len(got) != len(want) {
		return fmt.Errorf("cost order holds %d handles and counts %d; %d live candidates are below its bound", len(got), s.n, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("cost order position %d holds handle %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}
