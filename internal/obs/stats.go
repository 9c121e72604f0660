package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Stats is a Collector accumulating counters: per-scan totals, per-
// algorithm search statistics and batch stage-1 totals. The
// zero value is ready to use, and all methods are safe for concurrent use
// (events are pre-aggregated per scan/search/batch, so the mutex is far
// off the hot path).
//
// Stats ignores Span events; combine it with a Trace (obs.Combine) when
// both counters and a timeline are wanted.
type Stats struct {
	mu      sync.Mutex
	scan    ScanAgg
	selects map[string]*SelectAgg
	batch   BatchAgg
}

// ScanAgg aggregates ScanStats over many scans.
type ScanAgg struct {
	Scans      int
	Slots      int64
	Matched    int64
	Candidates int64
	Visits     int64
	PeakWindow int // maximum over all scans
	EarlyStops int
}

// SelectAgg aggregates SelectStats for one algorithm.
type SelectAgg struct {
	Searches int
	Found    int
	Total    time.Duration
	Min, Max time.Duration
}

// BatchAgg aggregates BatchStats over many stage-1 searches.
type BatchAgg struct {
	Batches   int
	Jobs      int
	AltsFound int
	CutOps    int
	Elapsed   time.Duration // summed wall-clock stage-1 time
}

// ScanDone implements Collector.
func (st *Stats) ScanDone(s ScanStats) {
	st.mu.Lock()
	defer st.mu.Unlock()
	a := &st.scan
	a.Scans++
	a.Slots += int64(s.Slots)
	a.Matched += int64(s.Matched)
	a.Candidates += int64(s.Candidates)
	a.Visits += int64(s.Visits)
	if s.PeakWindow > a.PeakWindow {
		a.PeakWindow = s.PeakWindow
	}
	if s.EarlyStop {
		a.EarlyStops++
	}
}

// SelectDone implements Collector.
func (st *Stats) SelectDone(s SelectStats) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.selects == nil {
		st.selects = make(map[string]*SelectAgg)
	}
	a := st.selects[s.Alg]
	if a == nil {
		a = &SelectAgg{Min: s.Elapsed, Max: s.Elapsed}
		st.selects[s.Alg] = a
	}
	a.Searches++
	if s.Found {
		a.Found++
	}
	a.Total += s.Elapsed
	if s.Elapsed < a.Min {
		a.Min = s.Elapsed
	}
	if s.Elapsed > a.Max {
		a.Max = s.Elapsed
	}
}

// BatchDone implements Collector.
func (st *Stats) BatchDone(s BatchStats) {
	st.mu.Lock()
	defer st.mu.Unlock()
	a := &st.batch
	a.Batches++
	a.Jobs += s.Jobs
	a.AltsFound += s.AltsFound
	a.CutOps += s.CutOps
	a.Elapsed += s.Elapsed
}

// Span implements Collector (ignored; see Trace).
func (*Stats) Span(Span) {}

// StatsSnapshot is a point-in-time copy of a Stats collector.
type StatsSnapshot struct {
	Scan    ScanAgg
	Selects map[string]SelectAgg
	Batch   BatchAgg
}

// Snapshot returns a consistent copy of the accumulated statistics.
func (st *Stats) Snapshot() StatsSnapshot {
	st.mu.Lock()
	defer st.mu.Unlock()
	snap := StatsSnapshot{Scan: st.scan, Batch: st.batch}
	if len(st.selects) > 0 {
		snap.Selects = make(map[string]SelectAgg, len(st.selects))
		for name, a := range st.selects {
			snap.Selects[name] = *a
		}
	}
	return snap
}

// WriteText renders the snapshot as a plain-text report. Counter lines are
// deterministic for deterministic workloads (they carry no timings); the
// selection section carries wall-clock times and is inherently run-to-run
// variable.
func (s StatsSnapshot) WriteText(w io.Writer) {
	fmt.Fprintln(w, "scan counters")
	fmt.Fprintf(w, "  scans:            %d\n", s.Scan.Scans)
	fmt.Fprintf(w, "  slots examined:   %d\n", s.Scan.Slots)
	fmt.Fprintf(w, "  slots matched:    %d\n", s.Scan.Matched)
	fmt.Fprintf(w, "  candidates kept:  %d\n", s.Scan.Candidates)
	fmt.Fprintf(w, "  peak window size: %d\n", s.Scan.PeakWindow)
	fmt.Fprintf(w, "  visits:           %d\n", s.Scan.Visits)
	fmt.Fprintf(w, "  early stops:      %d\n", s.Scan.EarlyStops)
	if len(s.Selects) > 0 {
		fmt.Fprintln(w, "selection")
		names := make([]string, 0, len(s.Selects))
		for name := range s.Selects {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			a := s.Selects[name]
			mean := time.Duration(0)
			if a.Searches > 0 {
				mean = a.Total / time.Duration(a.Searches)
			}
			fmt.Fprintf(w, "  %-18s searches=%d found=%d mean=%v min=%v max=%v\n",
				name, a.Searches, a.Found, mean, a.Min, a.Max)
		}
	}
	if s.Batch.Batches > 0 {
		b := s.Batch
		fmt.Fprintln(w, "batch stage-1")
		fmt.Fprintf(w, "  batches:            %d\n", b.Batches)
		fmt.Fprintf(w, "  jobs:               %d\n", b.Jobs)
		fmt.Fprintf(w, "  alternatives found: %d\n", b.AltsFound)
		fmt.Fprintf(w, "  cut operations:     %d\n", b.CutOps)
		fmt.Fprintf(w, "  wall time:          %v\n", b.Elapsed)
	}
}
