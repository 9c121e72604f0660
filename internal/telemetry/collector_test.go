package telemetry_test

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"slotsel/internal/core"
	"slotsel/internal/job"
	"slotsel/internal/obs"
	"slotsel/internal/randx"
	"slotsel/internal/telemetry"
	"slotsel/internal/testkit"
)

func TestCollectorMapsEvents(t *testing.T) {
	reg := telemetry.NewRegistry()
	col := telemetry.NewCollector(reg)

	col.ScanDone(obs.ScanStats{Slots: 10, Matched: 6, Candidates: 4, PeakWindow: 3, Visits: 2, EarlyStop: true})
	col.ScanDone(obs.ScanStats{Slots: 5, Matched: 5, Candidates: 5, PeakWindow: 2, Visits: 1})
	col.SelectDone(obs.SelectStats{Alg: "amp", Found: true, Elapsed: 2 * time.Millisecond})
	col.SelectDone(obs.SelectStats{Alg: "amp", Found: false, Elapsed: time.Millisecond})
	col.BatchDone(obs.BatchStats{Jobs: 3, AltsFound: 7, CutOps: 7})
	col.Span(obs.Span{Cat: "http"})
	col.Span(obs.Span{Cat: "http"})

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	got, err := telemetry.ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("exposition malformed: %v", err)
	}
	for key, want := range map[string]float64{
		"slotsel_scans_total":                              2,
		"slotsel_scan_slots_total":                         15,
		"slotsel_scan_matched_total":                       11,
		"slotsel_scan_candidates_total":                    9,
		"slotsel_scan_visits_total":                        3,
		"slotsel_scan_early_stops_total":                   1,
		"slotsel_scan_peak_window":                         3, // high watermark, not last value
		`slotsel_select_total{alg="amp",found="true"}`:     1,
		`slotsel_select_total{alg="amp",found="false"}`:    1,
		`slotsel_select_duration_seconds_count{alg="amp"}`: 2,
		"slotsel_batches_total":                            1,
		"slotsel_batch_jobs_total":                         3,
		"slotsel_batch_alternatives_total":                 7,
		"slotsel_batch_cut_ops_total":                      7,
		`slotsel_spans_total{cat="http"}`:                  2,
	} {
		if got[key] != want {
			t.Errorf("%s: got %g want %g", key, got[key], want)
		}
	}
}

// TestCollectorIdempotentWiring proves two NewCollector calls on one
// registry are legal (identical shapes are idempotent), so independent
// subsystems can each build their adapter.
func TestCollectorIdempotentWiring(t *testing.T) {
	reg := telemetry.NewRegistry()
	a, b := telemetry.NewCollector(reg), telemetry.NewCollector(reg)
	a.ScanDone(obs.ScanStats{Slots: 1})
	b.ScanDone(obs.ScanStats{Slots: 2})
	var sb strings.Builder
	reg.WriteText(&sb)
	if !strings.Contains(sb.String(), "slotsel_scan_slots_total 3") {
		t.Fatalf("adapters did not share families:\n%s", sb.String())
	}
}

// TestFindWithCollectorAllocs is the tentpole's hot-path acceptance gate:
// enabling the metrics adapter must add ZERO allocations per Find on a
// warmed-up Scanner — the same budget the obs layer itself is held to.
func TestFindWithCollectorAllocs(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	reg := telemetry.NewRegistry()
	col := telemetry.NewCollector(reg)

	rng := randx.New(3)
	list := testkit.RandomList(rng, 16, 4, 400)
	req := job.Request{TaskCount: 3, Volume: 80, MaxCost: 5000}
	for _, alg := range []core.Algorithm{core.AMP{}, core.MinCost{}, core.MinFinish{}} {
		sc := core.NewScanner()
		r := req
		if _, err := sc.Find(alg, list.Cursor(), &r, col); err != nil {
			t.Fatalf("%s: warm-up find failed: %v", alg.Name(), err)
		}
		got := testing.AllocsPerRun(50, func() {
			_, _ = sc.Find(alg, list.Cursor(), &r, col)
		})
		if got > 0 {
			t.Errorf("%s: %v allocs/op on a warmed scanner with the telemetry collector, want 0", alg.Name(), got)
		}
	}
}

// BenchmarkFindWithCollector measures the steady-state overhead of the
// metrics adapter on the find hot path. Compare against
// BenchmarkFindNilCollector: the acceptance budget is <=2% at the
// production instance size (the same budget PR 2 set for the obs seam) —
// the adapter's cost is a fixed ~150ns of atomic adds per *search*, so
// its relative overhead shrinks with instance size. EXPERIMENTS.md
// records reference numbers for both sizes.
func BenchmarkFindWithCollector(b *testing.B) {
	reg := telemetry.NewRegistry()
	col := telemetry.NewCollector(reg)
	for _, n := range []int{64, 1024, 8192} {
		b.Run(benchSizeName(n), func(b *testing.B) { benchFind(b, n, col) })
	}
}

// BenchmarkFindNilCollector is the control: the identical search with the
// collector seam disabled.
func BenchmarkFindNilCollector(b *testing.B) {
	for _, n := range []int{64, 1024, 8192} {
		b.Run(benchSizeName(n), func(b *testing.B) { benchFind(b, n, nil) })
	}
}

func benchSizeName(n int) string {
	return "nodes=" + strconv.Itoa(n)
}

func benchFind(b *testing.B, nodes int, col obs.Collector) {
	rng := randx.New(3)
	list := testkit.RandomList(rng, nodes, 4, 400)
	req := job.Request{TaskCount: 3, Volume: 80, MaxCost: 5000}
	sc := core.NewScanner()
	r := req
	if _, err := sc.Find(core.AMP{}, list.Cursor(), &r, col); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = sc.Find(core.AMP{}, list.Cursor(), &r, col)
	}
}
