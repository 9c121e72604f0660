package core

import (
	"fmt"
	"testing"

	"slotsel/internal/job"
	"slotsel/internal/nodes"
	"slotsel/internal/obs"
	"slotsel/internal/slots"
)

// benchList builds a synthetic 50-node environment with several staggered
// slots per node — enough scan positions to exercise the window subroutine.
func benchList() (slots.List, job.Request) {
	l := make(slots.List, 0, 50*8)
	for i := 0; i < 50; i++ {
		n := &nodes.Node{
			ID: i, Perf: 2 + float64(i%9), Price: 1 + float64(i%5)/4,
			RAMMB: 4096, DiskGB: 100, OS: nodes.Linux, Arch: nodes.AMD64,
		}
		for s := 0; s < 8; s++ {
			start := float64(s*70 + i%13)
			l = append(l, &slots.Slot{Node: n, Interval: slots.Interval{Start: start, End: start + 60}})
		}
	}
	l.SortByStart()
	return l, job.Request{TaskCount: 5, Volume: 150, MaxCost: 1500}
}

// scanPlain is a verbatim copy of the pre-instrumentation Scan loop. It
// exists only as the benchmark control: comparing it against Scan WITHIN
// ONE BINARY factors out build-to-build code-layout variance, which on
// shared CI hardware swings microbenchmarks by far more than the ≤2% budget
// under test.
func scanPlain(list slots.List, req *job.Request, visit func(start float64, cands []Candidate) bool) error {
	if err := req.Validate(); err != nil {
		return err
	}
	if !list.IsSortedByStart() {
		return fmt.Errorf("core: slot list is not ordered by start time")
	}
	var window []Candidate
	for _, s := range list {
		if !req.Matches(s.Node) {
			continue
		}
		exec := req.ExecTime(s.Node)
		start := s.Start
		if effEnd(s, req) < start+exec {
			continue
		}
		if req.Deadline > 0 && start+exec > req.Deadline {
			continue
		}
		window = append(window, Candidate{Slot: s, Exec: exec, Cost: exec * s.Node.Price})
		kept := window[:0]
		for _, c := range window {
			if effEnd(c.Slot, req)-start >= c.Exec {
				kept = append(kept, c)
			}
		}
		window = kept
		if len(window) >= req.TaskCount {
			if visit(start, window) {
				return nil
			}
		}
	}
	return nil
}

// BenchmarkScanCollectorOverhead is the acceptance benchmark for the
// collector seam's hot-path budget: the disabled-collector path (nil) must
// stay within 2% of the pre-instrumentation Scan (the "baseline" control
// below), and the enabled variants show what turning observability on costs.
func BenchmarkScanCollectorOverhead(b *testing.B) {
	l, req := benchList()
	plain := func(float64, []Candidate) bool { return false }
	visit := func(float64, *WindowIndex) bool { return false }

	b.Run("baseline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := scanPlain(l, &req, plain); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("nil", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := Scan(l.Cursor(), &req, visit, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stats", func(b *testing.B) {
		var stats obs.Stats
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := Scan(l.Cursor(), &req, visit, &stats); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stats+trace", func(b *testing.B) {
		col := obs.Combine(&obs.Stats{}, obs.NewTrace(obs.DefaultTraceCapacity))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := Scan(l.Cursor(), &req, visit, col); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFindObservedDisabled measures the full algorithm path with a nil
// collector against the same selection logic driven by the pre-
// instrumentation scan loop (same-binary control, see scanPlain).
func BenchmarkFindObservedDisabled(b *testing.B) {
	l, req := benchList()

	// findPlain is MinCost.Find rebuilt on the uninstrumented scan loop.
	findPlain := func(req *job.Request) (*Window, error) {
		var best *Window
		err := scanPlain(l, req, func(start float64, cands []Candidate) bool {
			chosen, cost, ok := selectMinCost(cands, req.TaskCount, req.MaxCost)
			if !ok {
				return false
			}
			if best == nil || cost < best.Cost {
				best = NewWindow(start, chosen)
			}
			return false
		})
		if err != nil {
			return nil, err
		}
		if best == nil {
			return nil, ErrNoWindow
		}
		return best, nil
	}

	b.Run("baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := req
			if _, err := findPlain(&r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("nil", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := req
			if _, err := FindObserved(MinCost{}, l.Cursor(), &r, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
