package core

import (
	"slotsel/internal/job"
	"slotsel/internal/obs"
	"slotsel/internal/slots"
)

// ObservedFinder is implemented by algorithms whose search can thread an
// obs.Collector down into the scan layer, so scan-level counters (slots
// examined, window sizes, visits) are attributed to the search. Every
// algorithm shipped by this package implements it; third-party Algorithm
// implementations fall back to select-level instrumentation only (see
// FindObserved).
type ObservedFinder interface {
	Algorithm

	// FindObserved is Find with scan-level instrumentation delivered to
	// col. col == nil must behave exactly like Find.
	FindObserved(list slots.List, req *job.Request, col obs.Collector) (*Window, error)
}

// FindObserved runs one algorithm search with full instrumentation: a
// SelectDone event and a "select" span are emitted for the search itself,
// and — when the algorithm implements ObservedFinder — the collector is
// threaded into the scan for per-scan counters. col == nil runs the plain
// search with zero added work.
func FindObserved(alg Algorithm, list slots.List, req *job.Request, col obs.Collector) (*Window, error) {
	if col == nil {
		return alg.Find(list, req)
	}
	begin := obs.Now()
	var w *Window
	var err error
	if of, ok := alg.(ObservedFinder); ok {
		w, err = of.FindObserved(list, req, col)
	} else {
		w, err = alg.Find(list, req)
	}
	elapsed := obs.Now() - begin
	col.SelectDone(obs.SelectStats{Alg: alg.Name(), Found: w != nil, Elapsed: elapsed})
	col.Span(obs.Span{Name: alg.Name(), Cat: "select", Start: begin, Dur: elapsed})
	return w, err
}

// FindObservedScanner is FindObserved on a caller-provided Scanner: the
// same SelectDone/span emission, but the search runs on sc's recycled
// state, so a long-lived caller (a parallel worker, the inventory's
// retry loop) amortizes all search allocations to zero. The returned
// window is scanner-owned — valid until sc's next search — and must be
// Detached if kept.
func FindObservedScanner(sc *Scanner, alg Algorithm, list slots.List, req *job.Request, col obs.Collector) (*Window, error) {
	return FindCursor(sc, alg, list.Cursor(), req, col)
}

// FindCursor is FindObservedScanner over whatever the cursor walks: for a
// published sequence (seq.Cursor()) the same scan loop goes leaf by leaf,
// without the per-search order check a List needs (a Seq's leaves were
// verified when built) and without flattening. Same window, same ScanStats
// as a search over seq.Flatten().
func FindCursor(sc *Scanner, alg Algorithm, cur slots.Cursor, req *job.Request, col obs.Collector) (*Window, error) {
	if col == nil {
		return sc.find(alg, cur, req, nil)
	}
	begin := obs.Now()
	w, err := sc.find(alg, cur, req, col)
	elapsed := obs.Now() - begin
	col.SelectDone(obs.SelectStats{Alg: alg.Name(), Found: w != nil, Elapsed: elapsed})
	col.Span(obs.Span{Name: alg.Name(), Cat: "select", Start: begin, Dur: elapsed})
	return w, err
}

// Instrument wraps alg so that every Find reports to col, for call sites
// that accept a plain Algorithm and cannot thread a collector explicitly
// (e.g. batchsched.ScheduleDirected). Instrument(alg, nil) returns alg
// unchanged, preserving the nil-means-off convention.
func Instrument(alg Algorithm, col obs.Collector) Algorithm {
	if col == nil {
		return alg
	}
	return instrumented{alg: alg, col: col}
}

type instrumented struct {
	alg Algorithm
	col obs.Collector
}

// Name implements Algorithm.
func (ia instrumented) Name() string { return ia.alg.Name() }

// Find implements Algorithm.
func (ia instrumented) Find(list slots.List, req *job.Request) (*Window, error) {
	return FindObserved(ia.alg, list, req, ia.col)
}
