package core_test

import (
	"math"
	"testing"

	"slotsel/internal/core"
	"slotsel/internal/job"
	"slotsel/internal/randx"
	"slotsel/internal/testkit"
)

// FuzzScanWindow cross-checks the Scan-based AMP against the exhaustive
// enumerator of internal/testkit on small random instances: both must
// agree on feasibility, on the exact minimal window start, and every window
// AMP returns must validate against the request. The instance is derived
// from the fuzzed seed; the remaining arguments steer the request into the
// budget/deadline/heterogeneity corners.
func FuzzScanWindow(f *testing.F) {
	f.Add(uint64(1), 2, 60.0, 0.0, 0.0)
	f.Add(uint64(7), 1, 30.0, 50.0, 0.0)
	f.Add(uint64(42), 3, 120.0, 0.0, 400.0)
	f.Add(uint64(99), 4, 90.0, 80.0, 250.0)
	f.Fuzz(func(t *testing.T, seed uint64, taskCount int, volume, deadline, budget float64) {
		if math.IsNaN(volume) || math.IsInf(volume, 0) ||
			math.IsNaN(deadline) || math.IsInf(deadline, 0) ||
			math.IsNaN(budget) || math.IsInf(budget, 0) {
			t.Skip()
		}
		// Clamp into the small-instance regime the exponential oracle can
		// afford: at most 4 tasks over at most 4 nodes x 3 slots.
		taskCount = 1 + ((taskCount%4)+4)%4
		volume = 1 + math.Mod(math.Abs(volume), 200)
		deadline = math.Mod(math.Abs(deadline), 150) // 0 = unconstrained
		budget = math.Mod(math.Abs(budget), 1000)    // 0 = unconstrained

		rng := randx.New(seed)
		list := testkit.RandomList(rng, 4, 3, 100)
		req := job.Request{TaskCount: taskCount, Volume: volume, Deadline: deadline, MaxCost: budget}

		ampW, ampErr := core.AMP{}.Find(list, &req)
		bfW, bfErr := testkit.BruteForce{Obj: testkit.ObjStart}.Find(list, &req)

		if (ampErr == nil) != (bfErr == nil) {
			t.Fatalf("seed=%d req=%+v: feasibility diverged: AMP err=%v, brute force err=%v",
				seed, req, ampErr, bfErr)
		}
		if ampErr != nil {
			return
		}
		if ampW.Start != bfW.Start {
			t.Fatalf("seed=%d req=%+v: AMP start %x, brute-force minimal start %x",
				seed, req, ampW.Start, bfW.Start)
		}
		if err := testkit.ValidateWindow(ampW, &req); err != nil {
			t.Fatalf("seed=%d req=%+v: AMP window invalid: %v\n%s",
				seed, req, err, testkit.WindowSignature(ampW))
		}

		// Cross-check the incremental WindowIndex kernels against the
		// retained copy+sort oracle kernels on the same fuzzed instance:
		// every shipped algorithm must match its oracle twin signature-
		// for-signature (or agree the instance is infeasible).
		for _, alg := range catalogue(seed) {
			oracle, ok := core.Oracle(alg)
			if !ok {
				t.Fatalf("no oracle twin for %s", alg.Name())
			}
			r1, r2 := req, req
			incW, incErr := alg.Find(list, &r1)
			orcW, orcErr := oracle.Find(list, &r2)
			if (incErr == nil) != (orcErr == nil) {
				t.Fatalf("seed=%d req=%+v alg=%s: feasibility diverged: incremental err=%v, oracle err=%v",
					seed, req, alg.Name(), incErr, orcErr)
			}
			if incErr != nil {
				continue
			}
			is, os := testkit.WindowSignature(incW), testkit.WindowSignature(orcW)
			if is != os {
				t.Fatalf("seed=%d req=%+v alg=%s: incremental and oracle kernels diverged\nincremental: %s\noracle:      %s",
					seed, req, alg.Name(), is, os)
			}
		}
	})
}
