package baseline

import (
	"errors"
	"testing"

	"slotsel/internal/core"
	"slotsel/internal/job"
	"slotsel/internal/testkit"
)

func TestALPReturnsValidWindows(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		e := testkit.SmallEnv(seed, 12, 300)
		req := smallRequest()
		w, err := (ALP{}).Find(e.Slots, &req)
		if errors.Is(err, core.ErrNoWindow) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if verr := testkit.ValidateWindow(w, &req); verr != nil {
			t.Fatalf("seed %d: invalid window: %v", seed, verr)
		}
		// The defining ALP constraint: every slot within the local share.
		share := req.MaxCost / float64(req.TaskCount)
		for _, p := range w.Placements {
			if p.Cost > share+1e-9 {
				t.Fatalf("seed %d: placement cost %g exceeds local share %g", seed, p.Cost, share)
			}
		}
	}
}

func TestALPNeverStartsBeforeAMP(t *testing.T) {
	// ALP's per-slot constraint implies the total constraint, so any
	// ALP-feasible position is AMP-feasible; AMP can only start earlier.
	for seed := uint64(1); seed <= 30; seed++ {
		e := testkit.SmallEnv(seed, 12, 300)
		req := smallRequest()
		alp, errL := (ALP{}).Find(e.Slots, &req)
		amp, errA := (core.AMP{}).Find(e.Slots, &req)
		if errors.Is(errL, core.ErrNoWindow) {
			continue
		}
		if errors.Is(errA, core.ErrNoWindow) {
			t.Fatalf("seed %d: ALP found a window AMP missed", seed)
		}
		if alp.Start < amp.Start-1e-9 {
			t.Fatalf("seed %d: ALP start %g before AMP start %g", seed, alp.Start, amp.Start)
		}
	}
}

func TestALPRejectsLocallyExpensiveMix(t *testing.T) {
	// One cheap and one expensive slot: the pair satisfies the total budget
	// (AMP accepts) but the expensive slot breaks the local share (ALP
	// must skip to a later all-affordable position, or fail).
	cheap := testkit.Node(1, 6, 0.2)  // exec 10, cost 2
	pricey := testkit.Node(2, 6, 5)   // exec 10, cost 50
	cheap2 := testkit.Node(3, 6, 0.3) // exec 10, cost 3, available later
	l := testkit.SlotList(
		testkit.Slot(cheap, 0, 100),
		testkit.Slot(pricey, 0, 100),
		testkit.Slot(cheap2, 40, 100),
	)
	req := job.Request{TaskCount: 2, Volume: 60, MaxCost: 60} // local share 30

	amp, err := (core.AMP{}).Find(l, &req)
	if err != nil {
		t.Fatal(err)
	}
	if amp.Start != 0 {
		t.Fatalf("AMP start %g, want 0 (total 52 <= 60)", amp.Start)
	}
	alp, err := (ALP{}).Find(l, &req)
	if err != nil {
		t.Fatal(err)
	}
	if alp.Start != 40 {
		t.Fatalf("ALP start %g, want 40 (waits for the second cheap slot)", alp.Start)
	}
}

func TestALPUnconstrained(t *testing.T) {
	e := testkit.SmallEnv(5, 10, 300)
	req := testkit.SmallRequest(3, 0) // no budget: ALP = plain first fit
	w, err := (ALP{}).Find(e.Slots, &req)
	if errors.Is(err, core.ErrNoWindow) {
		t.Skip("no window on this seed")
	}
	if err != nil {
		t.Fatal(err)
	}
	if verr := testkit.ValidateWindow(w, &req); verr != nil {
		t.Fatal(verr)
	}
}
