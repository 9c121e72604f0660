// Package parallel holds the library's worker-pool primitives and the one
// search that fans out over them: FindAll, a deterministic multi-algorithm
// search over one shared slot list. The quality study shards its cycles on
// ForEachWorker.
//
// FindAll preserves the sequential semantics bit for bit: for any worker
// count the merged output is identical (by value) to the sequential loop.
// Parallelism changes wall-clock time only, never results — the property
// the differential test suite enforces seed by seed.
//
// It relies on the immutability contract documented on slots.List: slot
// lists and the slots and nodes they reference are never mutated during a
// search, so one list is free to share across goroutines.
package parallel

import (
	"runtime"
	"sync"
)

// Workers normalizes a worker-count option: values <= 0 select
// GOMAXPROCS(0), so "-workers 0" on the CLI means "use every core the
// runtime was given".
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEachWorker launches fn(wk) once per worker id in [0, workers) and
// waits. It is the sharded-accumulator shape: each worker owns private
// state keyed by its id, and the caller merges the shards after return in
// worker-id order so the merged result does not depend on scheduling.
// With workers <= 1 fn(0) runs inline.
func ForEachWorker(workers int, fn func(wk int)) {
	if workers <= 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			fn(wk)
		}(wk)
	}
	wg.Wait()
}
