package telemetry

import (
	"time"

	"slotsel/internal/obs"
)

// Collector adapts the obs event seam onto a metrics Registry: plug one
// into any Options.Collector field (inventory, server, the CLI obs flags)
// and the kernel counters the obs layer already emits — scan passes,
// per-algorithm searches, CSA/batch stage-1 accounting — surface as
// /metricsz series without the kernels changing at all.
//
// The event handlers are allocation-free and lock-free on the hot path
// (the per-algorithm children are resolved through the vector fast path:
// an RLock map hit keyed by a fixed-size array). That keeps the adapter
// inside the same overhead budget as the obs layer itself: enabling it
// adds a handful of atomic adds per *scan*, not per slot.
type Collector struct {
	scans          *Counter
	scanSlots      *Counter
	scanMatched    *Counter
	scanCandidates *Counter
	scanVisits     *Counter
	scanEarlyStops *Counter
	scanPeakWindow *Gauge

	selects    *CounterVec   // labels: alg, found
	selectSecs *HistogramVec // label: alg

	batches   *Counter
	batchJobs *Counter
	batchAlts *Counter
	batchCuts *Counter
	spans     *CounterVec // label: cat
}

// selectBucketsSeconds are the per-search latency bounds: searches run
// from sub-microsecond (small lists) to tens of milliseconds (the 8000-node
// flash-crowd environment), so the buckets are exponential.
func selectBucketsSeconds() []float64 {
	return []float64{
		1e-6, 1e-5, 1e-4, 2.5e-4,
		1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1, 1,
	}
}

// NewCollector registers the kernel metric families on reg and returns the
// adapter. Safe to call once per registry; the families carry the
// `slotsel_` prefix.
func NewCollector(reg *Registry) *Collector {
	return &Collector{
		scans:          reg.Counter("slotsel_scans_total", "Completed core.Scan passes."),
		scanSlots:      reg.Counter("slotsel_scan_slots_total", "Slots examined across all scan passes."),
		scanMatched:    reg.Counter("slotsel_scan_matched_total", "Slots passing the resource-requirement match."),
		scanCandidates: reg.Counter("slotsel_scan_candidates_total", "Slots retained as window candidates."),
		scanVisits:     reg.Counter("slotsel_scan_visits_total", "Scan positions where per-criterion selection ran."),
		scanEarlyStops: reg.Counter("slotsel_scan_early_stops_total", "Scans ended by the visitor before list exhaustion."),
		scanPeakWindow: reg.Gauge("slotsel_scan_peak_window", "Largest extended-window size seen by any scan (high watermark)."),

		selects: reg.CounterVec("slotsel_select_total",
			"Algorithm-level searches by algorithm and outcome.", "alg", "found"),
		selectSecs: reg.HistogramVec("slotsel_select_duration_seconds",
			"Algorithm-level search latency.", selectBucketsSeconds(), "alg"),

		batches:   reg.Counter("slotsel_batches_total", "Stage-1 batch alternative searches."),
		batchJobs: reg.Counter("slotsel_batch_jobs_total", "Jobs across all stage-1 batches."),
		batchAlts: reg.Counter("slotsel_batch_alternatives_total", "Alternatives across all stage-1 batches."),
		batchCuts: reg.Counter("slotsel_batch_cut_ops_total", "Slot-cut operations applied to stage-1 working copies."),
		spans:     reg.CounterVec("slotsel_spans_total", "Trace spans by category.", "cat"),
	}
}

// ScanDone implements obs.Collector.
func (c *Collector) ScanDone(s obs.ScanStats) {
	c.scans.Inc()
	c.scanSlots.Add(uint64(s.Slots))
	c.scanMatched.Add(uint64(s.Matched))
	c.scanCandidates.Add(uint64(s.Candidates))
	c.scanVisits.Add(uint64(s.Visits))
	if s.EarlyStop {
		c.scanEarlyStops.Inc()
	}
	c.scanPeakWindow.SetMax(int64(s.PeakWindow))
}

// SelectDone implements obs.Collector.
func (c *Collector) SelectDone(s obs.SelectStats) {
	found := "false"
	if s.Found {
		found = "true"
	}
	c.selects.With2(s.Alg, found).Inc()
	c.selectSecs.With1(s.Alg).Observe(float64(s.Elapsed) / float64(time.Second))
}

// BatchDone implements obs.Collector.
func (c *Collector) BatchDone(s obs.BatchStats) {
	c.batches.Inc()
	c.batchJobs.Add(uint64(s.Jobs))
	c.batchAlts.Add(uint64(s.AltsFound))
	c.batchCuts.Add(uint64(s.CutOps))
}

// Span implements obs.Collector: spans are counted per category (the
// timeline itself belongs to obs.Trace, not a metrics registry).
func (c *Collector) Span(sp obs.Span) {
	c.spans.With1(sp.Cat).Inc()
}
