// Package obs is the observability layer of the scheduler: counters,
// timers and trace events describing what a search actually did — how many
// slots a scan examined, how large the candidate window grew, how many
// alternatives a batch's stage 1 found and cut.
//
// The package is deliberately zero-dependency (stdlib only) and decoupled
// from the scheduling packages: it defines plain event structs and the
// Collector interface that receives them; internal/core, internal/csa and
// internal/batchsched emit events into whatever Collector the caller threads
// in. A nil Collector is valid everywhere and means "observability off" —
// emitters guard every event behind a single nil check, so the disabled
// hot path costs one predictable branch (benchmark-verified at well under
// 2 ns per event; see BenchmarkNilCollector and, for the end-to-end
// number, BenchmarkScanCollectorOverhead in internal/core).
//
// Three shipped Collector implementations cover the common needs:
//
//   - Stats accumulates counters (per-scan, per-algorithm, per-batch) and
//     renders a plain-text summary — the `-stats` flag of the CLIs;
//   - Trace records spans into a bounded ring buffer and exports Chrome
//     trace_event JSON (load in chrome://tracing or https://ui.perfetto.dev)
//     — the `-trace` flag;
//   - Multi fans events out to several collectors at once.
//
// All shipped collectors are safe for concurrent use, which the emitters
// require: parallel.FindAll and the server deliver events from many
// goroutines.
package obs

import "time"

// processStart anchors the monotonic clock every event timestamp is
// relative to. Using one process-wide origin keeps spans from different
// goroutines and packages on a single comparable timeline.
var processStart = time.Now()

// Now returns the monotonic time since process start. All Span timestamps
// are expressed on this clock.
func Now() time.Duration { return time.Since(processStart) }

// ScanStats are the counters of one core.Scan pass — the per-event cost
// the AEP scheme's linearity claim (§2.1 of the paper) is about. The scan
// accumulates them in locals and publishes the struct once per pass, so
// enabling a collector adds one interface call per scan, not per slot.
type ScanStats struct {
	// Slots counts the slots the pass examined: the whole list (each once —
	// the linear pass) unless the visitor stopped it early.
	Slots int

	// Matched counts slots that passed the request's resource-requirement
	// match (the properHardwareAndSoftware predicate).
	Matched int

	// Candidates counts slots retained as window candidates (long enough,
	// inside the deadline).
	Candidates int

	// PeakWindow is the largest extended-window size reached after
	// filtering — the empirical bound on the per-step subroutine cost.
	PeakWindow int

	// Visits counts scan positions where a full-size window existed and
	// the per-criterion selection ran.
	Visits int

	// EarlyStop reports that the visitor ended the scan before the list
	// was exhausted: AMP at its first window, MinRunTime and MinFinish once
	// the runtime floor shows no later window can be strictly better.
	EarlyStop bool
}

// SelectStats describe one algorithm-level search (one Algorithm.Find).
type SelectStats struct {
	// Alg is the algorithm name as reported by Algorithm.Name.
	Alg string

	// Found reports whether the search returned a window.
	Found bool

	// Elapsed is the wall-clock duration of the search.
	Elapsed time.Duration
}

// BatchStats describe one stage-1 batch alternative search
// (batchsched.FindAlternatives).
type BatchStats struct {
	// Jobs is the number of jobs in the batch.
	Jobs int

	// AltsFound is the total number of alternatives across all jobs.
	AltsFound int

	// CutOps is the number of slot-cut operations applied to the working
	// copy (one per alternative).
	CutOps int

	// Elapsed is the wall-clock duration of the whole stage-1 search.
	Elapsed time.Duration
}

// Span is one trace interval on the process-wide monotonic clock.
type Span struct {
	// Name labels the span (algorithm name, "scan", "csa.Search", ...).
	Name string

	// Cat is the span category ("scan", "select", "csa"); trace viewers
	// group and color by it.
	Cat string

	// Tid is the logical thread lane for trace rendering; 0 unless the
	// emitter sets one.
	Tid int

	// Start is the span start on the obs.Now clock.
	Start time.Duration

	// Dur is the span length.
	Dur time.Duration

	// Arg is an optional human-readable detail ("alts=7").
	Arg string

	// Trace is an optional correlation ID. The HTTP server stamps each
	// request span with the same trace ID it returns in the X-Trace-Id
	// response header and writes to the structured request log, so a span
	// in a trace export, a log line and a client-observed response are
	// joinable on one key. Empty for spans with no request context.
	Trace string
}

// Collector receives instrumentation events. Implementations must be safe
// for concurrent use: parallel.FindAll and the server emit from many
// goroutines.
//
// A nil Collector is the universal "off" value — emitting packages guard
// events with a nil check and never require a non-nil collector. Embed Nop
// to implement only the events a collector cares about.
type Collector interface {
	// ScanDone reports the counters of one completed core.Scan pass.
	ScanDone(ScanStats)

	// SelectDone reports one completed algorithm-level search.
	SelectDone(SelectStats)

	// BatchDone reports one completed stage-1 batch alternative search.
	BatchDone(BatchStats)

	// Span reports one trace interval.
	Span(Span)
}

// Nop is a Collector that ignores every event. Useful for embedding (to
// implement a subset of the interface) and as the benchmark baseline for
// the no-op dispatch cost.
type Nop struct{}

// ScanDone implements Collector.
func (Nop) ScanDone(ScanStats) {}

// SelectDone implements Collector.
func (Nop) SelectDone(SelectStats) {}

// BatchDone implements Collector.
func (Nop) BatchDone(BatchStats) {}

// Span implements Collector.
func (Nop) Span(Span) {}

// Multi fans every event out to each collector in order.
type Multi []Collector

// ScanDone implements Collector.
func (m Multi) ScanDone(s ScanStats) {
	for _, c := range m {
		c.ScanDone(s)
	}
}

// SelectDone implements Collector.
func (m Multi) SelectDone(s SelectStats) {
	for _, c := range m {
		c.SelectDone(s)
	}
}

// BatchDone implements Collector.
func (m Multi) BatchDone(s BatchStats) {
	for _, c := range m {
		c.BatchDone(s)
	}
}

// Span implements Collector.
func (m Multi) Span(s Span) {
	for _, c := range m {
		c.Span(s)
	}
}

// Combine builds a Collector fanning out to the given collectors, skipping
// nils. It returns nil when nothing remains (so the result plugs directly
// into the nil-means-off convention) and avoids the Multi indirection for
// a single collector.
func Combine(cs ...Collector) Collector {
	var kept Multi
	for _, c := range cs {
		if c != nil {
			kept = append(kept, c)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return kept
}
