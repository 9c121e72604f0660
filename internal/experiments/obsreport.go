package experiments

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"slotsel/internal/metrics"
	"slotsel/internal/obs"
	"slotsel/internal/tablefmt"
)

// ObsAgg is an obs.Collector that aggregates instrumentation events into
// metrics.Accumulator distributions, so experiment runs can report not just
// the scheduling outcomes but the work the searches performed — per-scan
// slot/candidate/visit counts, per-algorithm search times, and the
// alternatives each batch found. The zero value is ready to use and safe
// for concurrent emitters (the parallel studies share one collector across
// workers).
type ObsAgg struct {
	mu sync.Mutex

	// Per-scan distributions (one observation per core.Scan pass).
	Slots      metrics.Accumulator
	Candidates metrics.Accumulator
	PeakWindow metrics.Accumulator
	Visits     metrics.Accumulator
	EarlyStops int

	// Per-search wall-clock time in milliseconds, keyed by algorithm name.
	SelectMS map[string]*metrics.Accumulator

	// AltsPerBatch has one observation per stage-1 search.
	AltsPerBatch metrics.Accumulator
}

// ScanDone implements obs.Collector.
func (o *ObsAgg) ScanDone(s obs.ScanStats) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.Slots.Add(float64(s.Slots))
	o.Candidates.Add(float64(s.Candidates))
	o.PeakWindow.Add(float64(s.PeakWindow))
	o.Visits.Add(float64(s.Visits))
	if s.EarlyStop {
		o.EarlyStops++
	}
}

// SelectDone implements obs.Collector.
func (o *ObsAgg) SelectDone(s obs.SelectStats) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.SelectMS == nil {
		o.SelectMS = make(map[string]*metrics.Accumulator)
	}
	acc := o.SelectMS[s.Alg]
	if acc == nil {
		acc = &metrics.Accumulator{}
		o.SelectMS[s.Alg] = acc
	}
	acc.Add(float64(s.Elapsed) / float64(time.Millisecond))
}

// BatchDone implements obs.Collector.
func (o *ObsAgg) BatchDone(s obs.BatchStats) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.AltsPerBatch.Add(float64(s.AltsFound))
}

// Span implements obs.Collector (ignored; pair with an obs.Trace when a
// timeline is wanted).
func (*ObsAgg) Span(obs.Span) {}

// obsRow is one line of the instrumentation report.
type obsRow struct {
	name string
	s    metrics.Summary
}

// rows flattens the aggregates into report order. Callers hold the lock.
func (o *ObsAgg) rows() []obsRow {
	out := []obsRow{
		{"scan_slots", o.Slots.Summary()},
		{"scan_candidates", o.Candidates.Summary()},
		{"scan_peak_window", o.PeakWindow.Summary()},
		{"scan_visits", o.Visits.Summary()},
	}
	names := make([]string, 0, len(o.SelectMS))
	for name := range o.SelectMS {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out = append(out, obsRow{"select_ms_" + name, o.SelectMS[name].Summary()})
	}
	if o.AltsPerBatch.Count() > 0 {
		out = append(out, obsRow{"batch_alternatives", o.AltsPerBatch.Summary()})
	}
	return out
}

// Render writes the aggregated instrumentation as a plain-text table.
func (o *ObsAgg) Render(w io.Writer) {
	o.mu.Lock()
	defer o.mu.Unlock()
	fmt.Fprintf(w, "observability: %d scans, %d early stops\n", o.Slots.Count(), o.EarlyStops)
	t := tablefmt.New("metric", "count", "mean", "stddev", "min", "max")
	for _, r := range o.rows() {
		t.AddRow(r.name,
			fmt.Sprintf("%d", r.s.Count),
			fmt.Sprintf("%.3f", r.s.Mean),
			fmt.Sprintf("%.3f", r.s.StdDev),
			fmt.Sprintf("%.3f", r.s.Min),
			fmt.Sprintf("%.3f", r.s.Max))
	}
	t.Render(w)
	fmt.Fprintln(w)
}
