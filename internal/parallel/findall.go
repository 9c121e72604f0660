package parallel

import (
	"sync/atomic"

	"slotsel/internal/core"
	"slotsel/internal/job"
	"slotsel/internal/obs"
	"slotsel/internal/slots"
)

// Result is the outcome of one algorithm's search within FindAll, in the
// same position as the algorithm held in the input slice.
type Result struct {
	// Algorithm is the algorithm that produced this result.
	Algorithm core.Algorithm

	// Window is the found window; nil when Err is non-nil.
	Window *core.Window

	// Err is the search error: core.ErrNoWindow when no feasible window
	// exists, another error for invalid input.
	Err error
}

// FindAll runs every algorithm concurrently over one shared immutable slot
// list and returns the per-algorithm results merged in input order.
//
// Determinism: each algorithm's Find is a pure function of (list, req) —
// the list is never written during a search (see the slots.List contract)
// and every algorithm receives a private copy of the request — so out[i]
// does not depend on scheduling, and the merged slice is identical to the
// sequential loop
//
//	for i, a := range algs { out[i].Window, out[i].Err = a.Find(list, req) }
//
// for any worker count. workers <= 0 selects GOMAXPROCS.
//
// Every algorithm's search emits its selection stats, span and scan
// counters to col (nil = off). Because the same searches run regardless of
// the worker count, every counter delivered through this path is
// worker-count-invariant (the differential tests enforce this).
func FindAll(list slots.List, req *job.Request, algs []core.Algorithm, workers int, col obs.Collector) []Result {
	out := make([]Result, len(algs))
	workers = Workers(workers)
	if workers > len(algs) {
		workers = len(algs)
	}
	// One scanner per worker, never shared across goroutines. Workers draw
	// the next index from a shared counter, so unequal searches spread by
	// how long each takes; out[i] is still written by exactly one worker,
	// which keeps the merged slice position-identical to the sequential
	// loop.
	var next atomic.Int64
	ForEachWorker(workers, func(int) {
		sc := core.AcquireScanner()
		defer core.ReleaseScanner(sc)
		r := *req // private copy: keep concurrent searches free of shared request state
		for {
			i := int(next.Add(1)) - 1
			if i >= len(algs) {
				return
			}
			w, err := sc.Find(algs[i], list.Cursor(), &r, col)
			if w != nil {
				w = w.Detach() // scanner-owned result; out lives past the scanner
			}
			out[i] = Result{Algorithm: algs[i], Window: w, Err: err}
		}
	})
	return out
}
