// Package csa implements the "Common Stats, AMP" scheme (CSA): the search
// for multiple alternative windows for one job, obtained by repeated runs of
// the AMP earliest-start procedure, cutting every allocated window out of
// the slot list so that successive alternatives are pairwise disjoint by
// slots.
//
// The alternatives are the raw material of the two-stage batch scheduling
// scheme: optimization happens at the *selection* phase, by picking the
// alternative that is extreme by the criterion of interest.
package csa

import (
	"math"

	"slotsel/internal/core"
	"slotsel/internal/job"
	"slotsel/internal/obs"
	"slotsel/internal/slots"
)

// Options configures the CSA search.
type Options struct {
	// MaxAlternatives bounds the number of alternatives found; 0 means
	// unbounded (search until AMP finds no further window).
	MaxAlternatives int

	// MinSlotLength suppresses slot remainders shorter than this when
	// cutting allocated windows out of the list; it should match the
	// environment's published minimum slot length.
	MinSlotLength float64
}

// Search runs AMP repeatedly over a working copy of the slot list, cutting
// each found window's reserved spans before the next run, and returns all
// alternatives found in discovery order (non-decreasing start time). The
// input list is not modified. An empty result (no feasible window at all)
// is reported as core.ErrNoWindow to match the single-window algorithms.
//
// The repeated AMP runs emit their scan counters to col (nil = off) and the
// whole search is recorded as one "csa" span carrying the alternative
// count. The loop itself is (*core.Scanner).Alternatives, which callers
// that own a scanner call directly; Search borrows a pooled one.
func Search(list slots.List, req *job.Request, opts Options, col obs.Collector) ([]*core.Window, error) {
	sc := core.AcquireScanner()
	defer core.ReleaseScanner(sc)
	return sc.Alternatives(list.Cursor(), req, opts.MaxAlternatives, opts.MinSlotLength, col)
}

// Criterion identifies the window characteristic by which the best
// alternative is selected; the optimization takes place at the selection
// phase, not during the search.
type Criterion int

// The selection criteria of the paper's experimental study.
const (
	ByStart Criterion = iota
	ByFinish
	ByCost
	ByRuntime
	ByProcTime
)

// String implements fmt.Stringer.
func (c Criterion) String() string {
	switch c {
	case ByStart:
		return "start"
	case ByFinish:
		return "finish"
	case ByCost:
		return "cost"
	case ByRuntime:
		return "runtime"
	case ByProcTime:
		return "proctime"
	}
	return "unknown"
}

// Value extracts the criterion value from a window.
func (c Criterion) Value(w *core.Window) float64 {
	switch c {
	case ByStart:
		return w.Start
	case ByFinish:
		return w.Finish()
	case ByCost:
		return w.Cost
	case ByRuntime:
		return w.Runtime
	case ByProcTime:
		return w.ProcTime
	}
	return math.NaN()
}

// Best returns the alternative with the minimum criterion value, or nil for
// an empty set. Ties resolve to the earliest-found alternative, matching
// the sequential selection process.
func Best(alts []*core.Window, c Criterion) *core.Window {
	var best *core.Window
	bestVal := math.Inf(1)
	for _, w := range alts {
		if v := c.Value(w); v < bestVal {
			best, bestVal = w, v
		}
	}
	return best
}
