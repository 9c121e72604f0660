package core

import (
	"testing"
	"time"

	"slotsel/internal/job"
	"slotsel/internal/obs"
)

// TestScanCounters checks the scan counters against a hand-computed
// workload: 4 slots, one filtered by MinPerf, the rest candidates, with
// visits starting once 2 suitable slots overlap.
func TestScanCounters(t *testing.T) {
	fast1, fast2 := testNode(1, 4, 1), testNode(2, 4, 1) // exec 15
	slow := testNode(3, 2, 1)                            // filtered by MinPerf 3
	l := sorted(slot(fast1, 0, 200), slot(slow, 10, 200), slot(fast2, 50, 200), slot(fast1, 210, 230))
	req := job.Request{TaskCount: 2, Volume: 60, MinPerf: 3}

	var stats obs.Stats
	if err := Scan(l, &req, func(float64, *WindowIndex) bool { return false }, &stats); err != nil {
		t.Fatal(err)
	}
	snap := stats.Snapshot()
	if snap.Scan.Scans != 1 {
		t.Fatalf("Scans = %d, want 1", snap.Scan.Scans)
	}
	if snap.Scan.Slots != 4 {
		t.Errorf("Slots = %d, want 4 (every slot examined)", snap.Scan.Slots)
	}
	if snap.Scan.Matched != 3 {
		t.Errorf("Matched = %d, want 3 (slow node filtered)", snap.Scan.Matched)
	}
	// [210,230) is long enough for exec 15, so all three matched slots
	// become candidates.
	if snap.Scan.Candidates != 3 {
		t.Errorf("Candidates = %d, want 3", snap.Scan.Candidates)
	}
	// Window peaks at 2: the two 200-end slots overlap; the late slot joins
	// alone after both expired.
	if snap.Scan.PeakWindow != 2 {
		t.Errorf("PeakWindow = %d, want 2", snap.Scan.PeakWindow)
	}
	// Only the position at start 50 holds 2 candidates simultaneously.
	if snap.Scan.Visits != 1 {
		t.Errorf("Visits = %d, want 1", snap.Scan.Visits)
	}
	if snap.Scan.EarlyStops != 0 {
		t.Errorf("EarlyStops = %d, want 0", snap.Scan.EarlyStops)
	}
}

func TestScanCountsEarlyStop(t *testing.T) {
	n1, n2 := testNode(1, 4, 1), testNode(2, 4, 1)
	l := sorted(slot(n1, 0, 100), slot(n2, 0, 100), slot(n1, 150, 300), slot(n2, 150, 300))
	req := job.Request{TaskCount: 1, Volume: 60}

	var stats obs.Stats
	if err := Scan(l, &req, func(float64, *WindowIndex) bool { return true }, &stats); err != nil {
		t.Fatal(err)
	}
	snap := stats.Snapshot()
	if snap.Scan.EarlyStops != 1 {
		t.Errorf("EarlyStops = %d, want 1", snap.Scan.EarlyStops)
	}
	if snap.Scan.Visits != 1 {
		t.Errorf("Visits = %d, want 1", snap.Scan.Visits)
	}
	// The scan stopped at the first visit. Both slots share start 0 and are
	// coalesced into that visit, so both were examined; the two slots at
	// start 150 were not.
	if snap.Scan.Slots != 2 {
		t.Errorf("Slots = %d, want 2 (stopped after the first coalesced visit)", snap.Scan.Slots)
	}
}

// TestScanCollectorDoesNotSteer verifies that observation is passive: a scan
// with a collector visits the same positions as one without.
func TestScanCollectorDoesNotSteer(t *testing.T) {
	n1, n2 := testNode(1, 4, 1), testNode(2, 2, 1)
	l := sorted(slot(n1, 0, 100), slot(n2, 10, 300), slot(n1, 150, 400))
	req := job.Request{TaskCount: 1, Volume: 60}

	var a, b []float64
	if err := Scan(l, &req, func(start float64, _ *WindowIndex) bool {
		a = append(a, start)
		return false
	}, nil); err != nil {
		t.Fatal(err)
	}
	if err := Scan(l, &req, func(start float64, _ *WindowIndex) bool {
		b = append(b, start)
		return false
	}, &obs.Stats{}); err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("visit counts differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("visit starts differ at %d: %v vs %v", i, a, b)
		}
	}
}

// TestFindObservedEmitsSelect checks the helper wraps any algorithm with
// selection stats and a span, and threads scan counters for ObservedFinders.
func TestFindObservedEmitsSelect(t *testing.T) {
	n1, n2 := testNode(1, 4, 1), testNode(2, 4, 1)
	l := sorted(slot(n1, 0, 100), slot(n2, 0, 100))
	req := job.Request{TaskCount: 2, Volume: 60}

	stats := &obs.Stats{}
	tr := obs.NewTrace(16)
	col := obs.Combine(stats, tr)

	w, err := FindObserved(MinCost{}, l, &req, col)
	if err != nil || w == nil {
		t.Fatalf("FindObserved: %v, %v", w, err)
	}
	snap := stats.Snapshot()
	sel, ok := snap.Selects["MinCost"]
	if !ok || sel.Searches != 1 || sel.Found != 1 {
		t.Errorf("selection stats = %+v", snap.Selects)
	}
	if snap.Scan.Scans != 1 {
		t.Errorf("scan counters not threaded: %+v", snap.Scan)
	}
	var haveSelect, haveScan bool
	for _, sp := range tr.Spans() {
		switch sp.Cat {
		case "select":
			haveSelect = sp.Name == "MinCost"
		case "scan":
			haveScan = true
		}
	}
	if !haveSelect || !haveScan {
		t.Errorf("spans missing: select=%v scan=%v (%v)", haveSelect, haveScan, tr.Spans())
	}
}

func TestFindObservedNotFound(t *testing.T) {
	n1 := testNode(1, 4, 1)
	l := sorted(slot(n1, 0, 10)) // too short for exec 15
	req := job.Request{TaskCount: 1, Volume: 60}

	stats := &obs.Stats{}
	if _, err := FindObserved(AMP{}, l, &req, stats); err != ErrNoWindow {
		t.Fatalf("err = %v, want ErrNoWindow", err)
	}
	sel := stats.Snapshot().Selects["AMP"]
	if sel.Searches != 1 || sel.Found != 0 {
		t.Errorf("selection stats = %+v", sel)
	}
}

// TestObservedSpanTimeline sanity-checks span timestamps: non-negative
// start, bounded duration.
func TestObservedSpanTimeline(t *testing.T) {
	n1 := testNode(1, 4, 1)
	l := sorted(slot(n1, 0, 100))
	req := job.Request{TaskCount: 1, Volume: 60}

	tr := obs.NewTrace(16)
	if _, err := FindObserved(AMP{}, l, &req, tr); err != nil {
		t.Fatal(err)
	}
	for _, sp := range tr.Spans() {
		if sp.Start < 0 {
			t.Errorf("span %q starts before process start: %v", sp.Name, sp.Start)
		}
		if sp.Dur < 0 || sp.Dur > time.Minute {
			t.Errorf("span %q has implausible duration %v", sp.Name, sp.Dur)
		}
	}
}
