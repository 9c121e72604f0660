package core_test

import (
	"testing"

	"slotsel/internal/core"
	"slotsel/internal/job"
	"slotsel/internal/randx"
	"slotsel/internal/slots"
	"slotsel/internal/testkit"
)

// overlappingList is a list nothing rejects and the scan's "one candidate
// per node" remark does not cover: every node publishes its slots twice
// over, the second copy shifted, so a window holds several candidates of
// one node — equal in cost, execution time and node ID, different in slot.
func overlappingList(rng *randx.Rand, nodeCount int) slots.List {
	base := testkit.RandomList(rng, nodeCount, 2, 200)
	list := base.Clone()
	for _, s := range base {
		shift := float64(rng.IntRange(1, 15))
		list = append(list, testkit.Slot(s.Node, s.Start+shift, s.End+shift+float64(rng.IntRange(0, 30))))
	}
	list.SortByStart()
	return list
}

// TestOverlappingSlotsOnOneNode pins what the index does with candidates
// that compare equal under both selection orders: it keeps them in append
// order, which is what the copy+sort oracle kernels do at these window sizes
// (the sort is an insertion sort below a dozen elements) — so every
// algorithm still matches its oracle twin, slot for slot.
func TestOverlappingSlotsOnOneNode(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := randx.New(seed)
		list := overlappingList(rng, 4)
		req := job.Request{
			TaskCount: rng.IntRange(1, 4),
			Volume:    float64(rng.IntRange(40, 120)),
			MaxCost:   float64(rng.IntRange(100, 1200)),
		}
		peak := 0
		r := req
		if err := core.Scan(list, &r, func(_ float64, win *core.WindowIndex) bool {
			if win.Len() > peak {
				peak = win.Len()
			}
			return false
		}, nil); err != nil {
			t.Fatal(err)
		}
		if peak > 12 {
			t.Fatalf("seed=%d: window of %d candidates; the oracle's sort is only stable up to 12", seed, peak)
		}
		for _, alg := range catalogue(seed) {
			oracle, _ := core.Oracle(alg)
			r1, r2 := req, req
			incW, incErr := alg.Find(list, &r1)
			orcW, orcErr := oracle.Find(list, &r2)
			if (incErr == nil) != (orcErr == nil) {
				t.Fatalf("seed=%d alg=%s: feasibility diverged: incremental err=%v, oracle err=%v", seed, alg.Name(), incErr, orcErr)
			}
			if is, os := testkit.WindowSignature(incW), testkit.WindowSignature(orcW); is != os {
				t.Errorf("seed=%d alg=%s: incremental and oracle windows diverged\nincremental: %s\noracle:      %s", seed, alg.Name(), is, os)
			}
		}
	}
}
