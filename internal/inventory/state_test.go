package inventory

import (
	"testing"
	"time"

	"slotsel/internal/core"
	"slotsel/internal/job"
	"slotsel/internal/randx"
	"slotsel/internal/testkit"
)

// churn drives a deterministic sequential workload and returns the live
// inventory with Record enabled.
func churn(t *testing.T, seed uint64, ops int) *Inventory {
	t.Helper()
	rng := randx.New(seed)
	list := testkit.RandomList(rng, 10, 3, 300)
	inv, err := New(list, Options{MinSlotLength: 1, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	var held []string
	for op := 0; op < ops; op++ {
		switch k := rng.Intn(10); {
		case k < 5:
			req := &job.Request{
				TaskCount: rng.IntRange(1, 3),
				Volume:    float64(rng.IntRange(20, 80)),
				MaxCost:   5000,
			}
			if res, err := inv.Reserve(req, core.AMP{}, time.Minute); err == nil {
				held = append(held, res.ID)
			}
		case k < 7:
			if len(held) > 0 {
				inv.Commit(held[rng.Intn(len(held))])
			}
		case k < 9:
			if len(held) > 0 {
				i := rng.Intn(len(held))
				inv.Release(held[i])
				held = append(held[:i], held[i+1:]...)
			}
		default:
			inv.Withdraw(rng.Intn(10))
		}
	}
	return inv
}

// assertSameState checks complete state equality: free list, holds,
// committed set, counters, snapshot version and sequence number.
func assertSameState(t *testing.T, got, want *Inventory) {
	t.Helper()
	if g, w := freeSignature(got.Snapshot().Slots), freeSignature(want.Snapshot().Slots); g != w {
		t.Errorf("free lists differ:\n got %s\nwant %s", g, w)
	}
	if g, w := holdsSignature(got), holdsSignature(want); g != w {
		t.Errorf("hold sets differ:\n got %s\nwant %s", g, w)
	}
	if g, w := committedSignature(got.Committed()), committedSignature(want.Committed()); g != w {
		t.Errorf("committed sets differ:\n got %s\nwant %s", g, w)
	}
	if g, w := got.Status().Counters, want.Status().Counters; g != w {
		t.Errorf("counters differ:\n got %+v\nwant %+v", g, w)
	}
	if g, w := got.Snapshot().Version, want.Snapshot().Version; g != w {
		t.Errorf("snapshot versions differ: got %d, want %d", g, w)
	}
	if g, w := got.ExportState().Seq, want.ExportState().Seq; g != w {
		t.Errorf("sequence numbers differ: got %d, want %d", g, w)
	}
}

func TestExportRestoreRoundTrip(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		inv := churn(t, seed, 60)
		re, err := Restore(inv.ExportState(), Options{MinSlotLength: 1})
		if err != nil {
			t.Fatal(err)
		}
		assertSameState(t, re, inv)

		// ID continuity: identical reserves on both sides must mint the
		// same IDs — a restored leader must never reissue a replayed ID.
		req := &job.Request{TaskCount: 1, Volume: 10, MaxCost: 5000}
		ra, errA := inv.Reserve(req, core.AMP{}, time.Minute)
		rb, errB := re.Reserve(req, core.AMP{}, time.Minute)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("post-restore reserve outcomes differ: %v vs %v", errA, errB)
		}
		if errA == nil && ra.ID != rb.ID {
			t.Fatalf("post-restore IDs diverge: live %s, restored %s", ra.ID, rb.ID)
		}
	}
}

// TestRestorePlusTailReplay is the recovery equation: state-at-snapshot +
// events-after-snapshot = final state. Exports are taken mid-run, the
// journal tail past State.Seq is applied on top, and the result must equal
// the live run — for every possible snapshot point.
func TestRestorePlusTailReplay(t *testing.T) {
	inv := churn(t, 42, 40)
	// Take a second churn segment to have a tail beyond the export.
	events := inv.Journal()
	for cut := 0; cut < len(events); cut += 7 {
		// Rebuild the prefix, export it, then replay the tail on top.
		pre, err := Replay(events[:cut], Options{MinSlotLength: 1})
		if err != nil {
			t.Fatal(err)
		}
		re, err := Restore(pre.ExportState(), Options{MinSlotLength: 1})
		if err != nil {
			t.Fatal(err)
		}
		// Restored replicas replay under a frozen clock like Replay does.
		re.opts.Clock = pre.opts.Clock
		for _, ev := range events[cut:] {
			if err := re.ApplyEvent(ev); err != nil {
				t.Fatalf("cut=%d: %v", cut, err)
			}
		}
		full, err := Replay(events, Options{MinSlotLength: 1})
		if err != nil {
			t.Fatal(err)
		}
		assertSameState(t, re, full)
	}
}

func TestRestoreRejectsCorruptState(t *testing.T) {
	inv := churn(t, 3, 30)
	st := inv.ExportState()
	if len(st.Holds) == 0 && len(st.Committed) == 0 {
		t.Skip("no allocations on this seed")
	}
	bad := *st
	if len(bad.Holds) > 0 {
		bad.Holds = append([]HoldRecord(nil), bad.Holds...)
		bad.Holds[0].Window = nil
	} else {
		bad.Committed = append([]CommitRecord(nil), bad.Committed...)
		bad.Committed[0].Window = nil
	}
	if _, err := Restore(&bad, Options{MinSlotLength: 1}); err == nil {
		t.Fatal("restore accepted a state with a nil window")
	}
}
