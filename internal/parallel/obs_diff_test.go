package parallel_test

import (
	"testing"

	"slotsel/internal/csa"
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

// TestAlternativesBatchCountersWorkerInvariant is the counter differential
// suite for the speculative engine. The committed quantities of BatchStats
// (Jobs, AltsFound, CutOps) describe the deterministic output and must be
// identical for every worker count; the speculation accounting describes
// work actually spent and is only required to satisfy its invariants:
// discards are impossible on the sequential path and non-negative on the
// speculative one, and executed = committed + discarded always.
func TestAlternativesBatchCountersWorkerInvariant(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		rng := randx.New(seed)
		list := testkit.HeteroList(rng, rng.IntRange(4, 12), 4, 300)
		batch := testkit.RandomBatch(rng, rng.IntRange(2, 8))
		ordered := batch.ByPriority()
		opts := csa.Options{MaxAlternatives: rng.Intn(4), MinSlotLength: 1}

		var ref obs.BatchAgg
		for wi, workers := range workerCounts {
			var stats obs.Stats
			if _, err := parallel.Alternatives(list, ordered, opts, workers, &stats); err != nil {
				t.Fatalf("seed=%d workers=%d: %v", seed, workers, err)
			}
			b := stats.Snapshot().Batch
			if b.Batches != 1 {
				t.Fatalf("seed=%d workers=%d: %d BatchDone events, want 1", seed, workers, b.Batches)
			}
			if b.Jobs != len(ordered) {
				t.Errorf("seed=%d workers=%d: Jobs=%d, want %d", seed, workers, b.Jobs, len(ordered))
			}
			if b.SpecRuns != b.SpecCommitted+b.SpecDiscarded {
				t.Errorf("seed=%d workers=%d: SpecRuns=%d != committed %d + discarded %d",
					seed, workers, b.SpecRuns, b.SpecCommitted, b.SpecDiscarded)
			}
			if b.SpecDiscarded < 0 || b.TasksCut < 0 {
				t.Errorf("seed=%d workers=%d: negative accounting: %+v", seed, workers, b)
			}
			if workers <= 1 {
				// Sequential path: one authoritative search per job, nothing
				// speculative to waste.
				if b.SpecDiscarded != 0 || b.Relaunches != 0 || b.InlineRecomputes != 0 || b.TasksCut != 0 {
					t.Errorf("seed=%d: sequential path reports speculative waste: %+v", seed, b)
				}
				if b.SpecRuns != len(ordered) {
					t.Errorf("seed=%d: sequential SpecRuns=%d, want %d", seed, b.SpecRuns, len(ordered))
				}
			} else if b.SpecCommitted != b.Jobs-b.InlineRecomputes {
				t.Errorf("seed=%d workers=%d: SpecCommitted=%d, want Jobs %d - inline %d",
					seed, workers, b.SpecCommitted, b.Jobs, b.InlineRecomputes)
			}
			if wi == 0 {
				ref = b
				continue
			}
			if b.Jobs != ref.Jobs || b.AltsFound != ref.AltsFound || b.CutOps != ref.CutOps {
				t.Errorf("seed=%d workers=%d: committed quantities diverged\n got: Jobs=%d Alts=%d Cuts=%d\nwant: Jobs=%d Alts=%d Cuts=%d",
					seed, workers, b.Jobs, b.AltsFound, b.CutOps, ref.Jobs, ref.AltsFound, ref.CutOps)
			}
		}
	}
}
