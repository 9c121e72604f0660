package core

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
