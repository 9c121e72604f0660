package inventory

import (
	"fmt"
	"testing"
	"time"

	"slotsel/internal/core"
	"slotsel/internal/csa"
	"slotsel/internal/job"
	"slotsel/internal/randx"
	"slotsel/internal/testkit"
)

// This file measures the allocation churn of the reservation lifecycle —
// the scanner-reuse across one Reserve's re-validation retries is measured
// here, not assumed. The Reserve→Release cycle is the steady-state shape
// (spans return to the pool, so state does not grow); Reserve→Commit
// accumulates committed spans by design and is benchmarked separately.

// benchInventory builds a roomy inventory for churn runs.
func benchInventory(b testing.TB) *Inventory {
	rng := randx.New(9)
	inv, err := New(testkit.RandomList(rng, 24, 4, 2000), Options{MinSlotLength: 1})
	if err != nil {
		b.Fatal(err)
	}
	return inv
}

// BenchmarkReserveReleaseChurn is the steady-state service cycle: search +
// hold + release, repeated on one inventory, over the book_deep pool at
// three depths (about 6 k, 48 k and 380 k free slots). Publication edits
// the leaves a hold touches, so ns/op and B/op are meant to stay flat from
// the first row to the last; slotbench gates the same three rows.
func BenchmarkReserveReleaseChurn(b *testing.B) {
	for _, horizon := range []float64{600, 6000, 48000} {
		b.Run(fmt.Sprintf("nodes=1024/horizon=%g", horizon), func(b *testing.B) {
			list, req := testkit.DeepPool(horizon)
			inv, err := New(list, Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(list)), "slots")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := inv.Reserve(&req, core.AMP{}, time.Hour)
				if err != nil {
					b.Fatalf("reserve: %v", err)
				}
				if err := inv.Release(res.ID); err != nil {
					b.Fatalf("release: %v", err)
				}
			}
		})
	}
}

// BenchmarkReserveCommitChurn measures the commit path. Committed spans
// accumulate (that is the point of a commit), so each iteration reserves
// on a shrinking pool (only the reserve half publishes: a commit keeps
// the spans the hold already took).
func BenchmarkReserveCommitChurn(b *testing.B) {
	req := job.Request{TaskCount: 2, Volume: 60, MaxCost: 5000}
	b.ReportAllocs()
	inv := benchInventory(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := inv.Reserve(&req, core.AMP{}, time.Hour)
		if err != nil {
			// Pool exhausted: restart on a fresh inventory, outside the
			// per-op story but inside the timer (rare at bench sizes).
			inv = benchInventory(b)
			i--
			continue
		}
		if _, err := inv.Commit(res.ID); err != nil {
			b.Fatalf("commit: %v", err)
		}
	}
}

// BenchmarkReserveBestChurn measures the CSA-backed reservation: the
// scanner-held working copy replaces the per-search slot list clone.
func BenchmarkReserveBestChurn(b *testing.B) {
	inv := benchInventory(b)
	req := job.Request{TaskCount: 2, Volume: 60, MaxCost: 5000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := inv.ReserveBest(&req, csa.ByCost, 4, time.Hour)
		if err != nil {
			b.Fatalf("reserve best: %v", err)
		}
		if err := inv.Release(res.ID); err != nil {
			b.Fatalf("release: %v", err)
		}
	}
}

// TestReserveCycleAllocs gates the full Reserve→Release cycle with an
// explicit allocation budget. The cycle can never be zero-alloc — the
// hold ID string, the journal-free hold entry, the detached window and the
// two publications (each: the re-cut slots, the leaves they land in, the
// spine) all allocate — but the budget pins the total so a regression
// that, say, reintroduces a per-search clone fails loudly.
func TestReserveCycleAllocs(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	inv := benchInventory(t)
	req := job.Request{TaskCount: 2, Volume: 60, MaxCost: 5000}
	// Warm up pool-level lazy state.
	res, err := inv.Reserve(&req, core.AMP{}, time.Hour)
	if err != nil {
		t.Fatalf("warm-up reserve: %v", err)
	}
	if err := inv.Release(res.ID); err != nil {
		t.Fatalf("warm-up release: %v", err)
	}
	got := testing.AllocsPerRun(30, func() {
		r, err := inv.Reserve(&req, core.AMP{}, time.Hour)
		if err != nil {
			t.Fatalf("reserve: %v", err)
		}
		if err := inv.Release(r.ID); err != nil {
			t.Fatalf("release: %v", err)
		}
	})
	// Measured 69: each publication re-cuts two base spans through
	// slots.Cut (a handful of slot structs and piece lists) and rebuilds the
	// leaf they sit in. The budget's headroom is well under the ~100-alloc
	// cost of reintroducing a per-search slot list clone, or of re-cutting
	// whole nodes.
	const budget = 90
	if got > budget {
		t.Errorf("Reserve→Release cycle: %v allocs/op, budget %v", got, budget)
	}
}

// TestReserveCommitCycleAllocs is the satellite's Reserve→Commit gate: a
// roomy budget over a few runs (committed spans accumulate, so this is
// deliberately not a steady-state measurement).
func TestReserveCommitCycleAllocs(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	inv := benchInventory(t)
	req := job.Request{TaskCount: 2, Volume: 60, MaxCost: 5000}
	got := testing.AllocsPerRun(5, func() {
		r, err := inv.Reserve(&req, core.AMP{}, time.Hour)
		if err != nil {
			t.Fatalf("reserve: %v", err)
		}
		if _, err := inv.Commit(r.ID); err != nil {
			t.Fatalf("commit: %v", err)
		}
	})
	const budget = 100
	if got > budget {
		t.Errorf("Reserve→Commit cycle: %v allocs/op, budget %v", got, budget)
	}
}
