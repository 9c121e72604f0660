package parallel_test

import (
	"errors"
	"sync"
	"testing"

	"slotsel/internal/core"
	"slotsel/internal/job"
	"slotsel/internal/parallel"
	"slotsel/internal/randx"
	"slotsel/internal/testkit"
)

// workerCounts is the sweep every differential test runs: the inline path,
// the smallest truly concurrent pool, and an oversubscribed pool (more
// workers than the single-CPU CI runner has cores — scheduling order is
// then maximally adversarial).
var workerCounts = []int{1, 2, 8}

// diffSeeds is the number of random instances per differential test. The
// ISSUE requires at least 100; failures print the seed so a divergence is
// reproducible with a one-line test filter.
const diffSeeds = 120

func TestWorkers(t *testing.T) {
	if got := parallel.Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
	if got := parallel.Workers(0); got < 1 {
		t.Fatalf("Workers(0) = %d, want >= 1 (GOMAXPROCS)", got)
	}
	if got := parallel.Workers(-7); got < 1 {
		t.Fatalf("Workers(-7) = %d, want >= 1 (GOMAXPROCS)", got)
	}
}

func TestForEachWorkerRunsEachID(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		var mu sync.Mutex
		seen := make(map[int]bool)
		parallel.ForEachWorker(workers, func(wk int) {
			mu.Lock()
			seen[wk] = true
			mu.Unlock()
		})
		if len(seen) != workers {
			t.Fatalf("workers=%d: saw ids %v", workers, seen)
		}
	}
}

// randomRequest draws a request with occasional budget, deadline and
// heterogeneity constraints so the differential sweep covers feasible,
// infeasible and partially-constrained searches.
func randomRequest(rng *randx.Rand) job.Request {
	req := job.Request{
		TaskCount: rng.IntRange(1, 5),
		Volume:    float64(rng.IntRange(30, 150)),
	}
	if rng.Intn(2) == 0 {
		req.MaxCost = float64(rng.IntRange(100, 1500))
	}
	if rng.Intn(3) == 0 {
		req.Deadline = rng.FloatRange(20, 180)
	}
	if rng.Intn(4) == 0 {
		req.MinPerf = float64(rng.IntRange(3, 8))
	}
	return req
}

// findAllAlgs is the full shipped-algorithm catalogue; MinProcTime's seed is
// fixed per instance so the randomized selection is deterministic per Find.
func findAllAlgs(seed uint64) []core.Algorithm {
	return []core.Algorithm{
		core.AMP{},
		core.MinCost{},
		core.MinRunTime{},
		core.MinRunTime{Exact: true},
		core.MinFinish{},
		core.MinFinish{Exact: true},
		core.MinProcTime{Seed: seed},
		core.MinProcTimeGreedy{},
		core.MinEnergy{},
	}
}

// TestFindAllMatchesSequential is the FindAll differential suite: for every
// seed and every worker count, the parallel multi-algorithm search must be
// value-identical to the plain sequential loop over the same algorithms.
func TestFindAllMatchesSequential(t *testing.T) {
	for seed := uint64(1); seed <= diffSeeds; seed++ {
		rng := randx.New(seed)
		list := testkit.HeteroList(rng, rng.IntRange(3, 10), 4, 200)
		req := randomRequest(rng)
		algs := findAllAlgs(seed)

		// Sequential reference: one Find per algorithm, in order.
		type ref struct {
			sig string
			err error
		}
		want := make([]ref, len(algs))
		for i, alg := range algs {
			r := req
			w, err := alg.Find(list, &r)
			want[i] = ref{sig: testkit.WindowSignature(w), err: err}
		}

		for _, workers := range workerCounts {
			got := parallel.FindAll(list, &req, algs, workers, nil)
			if len(got) != len(algs) {
				t.Fatalf("seed=%d workers=%d: FindAll returned %d results, want %d", seed, workers, len(got), len(algs))
			}
			for i, res := range got {
				if res.Algorithm.Name() != algs[i].Name() {
					t.Errorf("seed=%d workers=%d: result %d is %s, want %s", seed, workers, i, res.Algorithm.Name(), algs[i].Name())
				}
				if sig := testkit.WindowSignature(res.Window); sig != want[i].sig {
					t.Errorf("seed=%d workers=%d alg=%s: window diverged\n got: %s\nwant: %s",
						seed, workers, algs[i].Name(), sig, want[i].sig)
				}
				if !errors.Is(res.Err, want[i].err) && !errors.Is(want[i].err, res.Err) {
					t.Errorf("seed=%d workers=%d alg=%s: err = %v, want %v", seed, workers, algs[i].Name(), res.Err, want[i].err)
				}
			}
		}
	}
}

// TestFindAllIncrementalMatchesOracle holds FindAll, whose workers each run
// several algorithms on one reused scanner, to each algorithm's sequential
// core.FindObserved, run last to first so that every search follows a
// different one than it does in FindAll, for every seed and worker count.
// Concurrent scans share the slot list but each owns its index, so neither
// the worker count nor the search before must leak into a selected window.
// (The core differential suite holds each search to its copy+sort twin.)
func TestFindAllIncrementalMatchesOracle(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		rng := randx.New(seed)
		list := testkit.HeteroList(rng, rng.IntRange(3, 10), 4, 200)
		req := randomRequest(rng)
		algs := findAllAlgs(seed)

		want := make([]parallel.Result, len(algs))
		for i := len(algs) - 1; i >= 0; i-- {
			r := req
			w, err := core.FindObserved(algs[i], list, &r, nil)
			want[i] = parallel.Result{Algorithm: algs[i], Window: w, Err: err}
		}

		for _, workers := range workerCounts {
			got := parallel.FindAll(list, &req, algs, workers, nil)
			for i := range algs {
				if (got[i].Err == nil) != (want[i].Err == nil) {
					t.Fatalf("seed=%d workers=%d alg=%s: feasibility diverged: FindAll err=%v, sequential err=%v",
						seed, workers, algs[i].Name(), got[i].Err, want[i].Err)
				}
				gs, ws := testkit.WindowSignature(got[i].Window), testkit.WindowSignature(want[i].Window)
				if gs != ws {
					t.Errorf("seed=%d workers=%d alg=%s: FindAll and sequential windows diverged\nFindAll:    %s\nsequential: %s",
						seed, workers, algs[i].Name(), gs, ws)
				}
			}
		}
	}
}
