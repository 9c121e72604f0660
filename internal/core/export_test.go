package core

// SetVisitWrapForTest installs (or, with nil, removes) the scan's visit
// wrapper — the seam the aliasing regression tests use to interpose
// testkit.PoisonVisit between the scan loop and the algorithms' selection
// procedures. Tests must restore the previous wrapper when done and must
// not run in parallel with other tests while a wrapper is installed.
func SetVisitWrapForTest(w func(VisitFunc) VisitFunc) { visitWrap = w }
