package parallel_test

import (
	"testing"

	"slotsel/internal/obs"
	"slotsel/internal/parallel"
	"slotsel/internal/randx"
	"slotsel/internal/testkit"
)

// TestFindAllCountersWorkerInvariant is the counter differential suite for
// the FindAll path: every algorithm runs exactly once against the shared
// list no matter how the work is pooled, so ALL scan counters and the
// per-algorithm search/found counts must be bit-identical across worker
// counts. (Only the timing fields may differ.)
func TestFindAllCountersWorkerInvariant(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		rng := randx.New(seed)
		list := testkit.HeteroList(rng, rng.IntRange(3, 10), 4, 200)
		req := randomRequest(rng)
		algs := findAllAlgs(seed)

		var refScan obs.ScanAgg
		refSel := make(map[string][2]int)
		for wi, workers := range workerCounts {
			var stats obs.Stats
			r := req
			results := parallel.FindAll(list, &r, algs, workers, &stats)
			snap := stats.Snapshot()

			// One SelectDone per algorithm, Found consistent with the result.
			for _, res := range results {
				a, ok := snap.Selects[res.Algorithm.Name()]
				if !ok || a.Searches == 0 {
					t.Fatalf("seed=%d workers=%d: no selection stats for %s", seed, workers, res.Algorithm.Name())
				}
				wantFound := 0
				if res.Window != nil {
					wantFound = 1
				}
				if a.Found != wantFound {
					t.Errorf("seed=%d workers=%d %s: Found=%d, result window %v",
						seed, workers, res.Algorithm.Name(), a.Found, res.Window != nil)
				}
			}

			sel := make(map[string][2]int)
			for name, a := range snap.Selects {
				sel[name] = [2]int{a.Searches, a.Found}
			}
			if wi == 0 {
				refScan, refSel = snap.Scan, sel
				continue
			}
			if snap.Scan != refScan {
				t.Errorf("seed=%d workers=%d: scan counters diverged\n got: %+v\nwant: %+v",
					seed, workers, snap.Scan, refScan)
			}
			if len(sel) != len(refSel) {
				t.Fatalf("seed=%d workers=%d: %d algorithms with stats, want %d", seed, workers, len(sel), len(refSel))
			}
			for name, want := range refSel {
				if sel[name] != want {
					t.Errorf("seed=%d workers=%d %s: searches/found = %v, want %v", seed, workers, name, sel[name], want)
				}
			}
		}
	}
}
