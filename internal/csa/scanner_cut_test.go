package csa

import (
	"errors"
	"testing"

	"slotsel/internal/core"
	"slotsel/internal/job"
	"slotsel/internal/randx"
	"slotsel/internal/slots"
	"slotsel/internal/testkit"
)

// TestSearchScannerMatchesCloneCut is the in-place-cutting differential:
// the scanner path (one mutable working copy, in-place interval edits)
// must produce window-for-window identical alternatives to the reference
// clone-and-rebuild loop the pre-scanner implementation ran, across many
// random instances, budgets and minimum slot lengths.
func TestSearchScannerMatchesCloneCut(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		rng := randx.New(seed)
		list := testkit.RandomList(rng, 8, 4, 300)
		req := job.Request{
			TaskCount: rng.IntRange(1, 4),
			Volume:    float64(rng.IntRange(40, 120)),
			MaxCost:   float64(rng.IntRange(100, 900)),
		}
		opts := Options{
			MaxAlternatives: rng.Intn(4), // 0 = unbounded
			MinSlotLength:   float64(rng.Intn(3)) * 5,
		}

		// Reference: the pre-scanner semantics, spelled out.
		refAlts, refErr := func() ([]*core.Window, error) {
			work := list.Clone()
			amp := core.AMP{}
			var alts []*core.Window
			for opts.MaxAlternatives <= 0 || len(alts) < opts.MaxAlternatives {
				w, err := amp.Find(work, &req)
				if errors.Is(err, core.ErrNoWindow) {
					break
				}
				if err != nil {
					return nil, err
				}
				alts = append(alts, w)
				work = slots.Cut(work, w.UsedIntervals(), opts.MinSlotLength)
			}
			if len(alts) == 0 {
				return nil, core.ErrNoWindow
			}
			return alts, nil
		}()

		sc := core.AcquireScanner()
		gotAlts, gotErr := sc.Alternatives(list, &req, opts.MaxAlternatives, opts.MinSlotLength, nil)
		core.ReleaseScanner(sc)

		if (refErr == nil) != (gotErr == nil) || (refErr != nil && !errors.Is(gotErr, refErr)) {
			t.Fatalf("seed %d: errors diverged: ref=%v scanner=%v", seed, refErr, gotErr)
		}
		ref, got := testkit.WindowsSignature(refAlts), testkit.WindowsSignature(gotAlts)
		if ref != got {
			t.Errorf("seed %d: alternative sets diverged\nref:\n%s\nscanner:\n%s", seed, ref, got)
		}
	}
}

// TestSearchScannerRepeatedReuse runs many CSA searches on one scanner
// back to back and checks each against a throwaway-scanner run: the
// working copy, arena and result state must fully recycle between
// searches.
func TestSearchScannerRepeatedReuse(t *testing.T) {
	shared := core.AcquireScanner()
	defer core.ReleaseScanner(shared)
	for seed := uint64(1); seed <= 30; seed++ {
		rng := randx.New(seed)
		list := testkit.RandomList(rng, 8, 4, 300)
		req := job.Request{TaskCount: 2, Volume: 60, MaxCost: 500}
		opts := Options{MinSlotLength: 5}

		wantAlts, wantErr := Search(list, &req, opts, nil)
		gotAlts, gotErr := shared.Alternatives(list, &req, opts.MaxAlternatives, opts.MinSlotLength, nil)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("seed %d: errors diverged: %v vs %v", seed, wantErr, gotErr)
		}
		if w, g := testkit.WindowsSignature(wantAlts), testkit.WindowsSignature(gotAlts); w != g {
			t.Errorf("seed %d: reused scanner diverged\nwant:\n%s\ngot:\n%s", seed, w, g)
		}
	}
}

// TestSearchValidatesBeforeWork pins the validation hoist: an invalid
// request is rejected by every CSA entry point before any search state is
// touched — same error as the request's own Validate, no panic, no
// partial result.
func TestSearchValidatesBeforeWork(t *testing.T) {
	list := testkit.SmallEnv(1, 10, 300).Slots
	bad := []job.Request{
		{TaskCount: 0, Volume: 60},
		{TaskCount: -1, Volume: 60},
		{TaskCount: 2, Volume: 0},
		{TaskCount: 2, Volume: -5},
	}
	sc := core.AcquireScanner()
	defer core.ReleaseScanner(sc)
	for i, req := range bad {
		r := req
		wantErr := r.Validate()
		if wantErr == nil {
			t.Fatalf("case %d: fixture request unexpectedly valid", i)
		}
		if _, err := Search(list, &r, Options{}, nil); err == nil || err.Error() != wantErr.Error() {
			t.Errorf("case %d: Search error = %v, want %v", i, err, wantErr)
		}
		if _, err := sc.Alternatives(list, &r, 0, 0, nil); err == nil || err.Error() != wantErr.Error() {
			t.Errorf("case %d: Scanner.Alternatives error = %v, want %v", i, err, wantErr)
		}
	}
}

// TestSearchScannerAllocs gates the clone-free loop: on a warmed-up
// scanner the only steady-state allocations are the detached alternatives
// themselves (per alternative: a Window struct, its placements array and
// one slot struct per placement) plus the growth of the returned slice —
// the per-search O(m) list clone is gone.
func TestSearchScannerAllocs(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	rng := randx.New(5)
	list := testkit.RandomList(rng, 12, 4, 400)
	req := job.Request{TaskCount: 2, Volume: 60, MaxCost: 1000}
	opts := Options{MinSlotLength: 5}
	sc := core.AcquireScanner()
	defer core.ReleaseScanner(sc)
	r := req
	alts, err := sc.Alternatives(list, &r, opts.MaxAlternatives, opts.MinSlotLength, nil)
	if err != nil {
		t.Fatalf("warm-up search failed: %v", err)
	}
	nAlts := len(alts)
	// Per alternative: Window struct + placements array + TaskCount slot
	// structs (DetachDeep). Plus ~log2 slice growth for the result slice.
	budget := float64(nAlts*(2+req.TaskCount) + 8)
	got := testing.AllocsPerRun(30, func() {
		_, _ = sc.Alternatives(list, &r, opts.MaxAlternatives, opts.MinSlotLength, nil)
	})
	if got > budget {
		t.Errorf("Scanner.Alternatives: %v allocs/op for %d alternatives, budget %v", got, nAlts, budget)
	}
}
