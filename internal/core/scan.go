package core

import (
	"fmt"
	"time"

	"slotsel/internal/job"
	"slotsel/internal/obs"
	"slotsel/internal/slots"
)

// Candidate is a slot considered for the current window position, with the
// request-specific execution time and reservation cost precomputed.
type Candidate struct {
	// Slot is the underlying availability window.
	Slot *slots.Slot

	// Exec is the execution time of one task of the request on the slot's
	// node.
	Exec float64

	// Cost is Exec x per-unit node price.
	Cost float64
}

// VisitFunc is invoked by Scan at every scan position where at least
// req.TaskCount suitable slots are available. start is the current window
// start time (the start of the most recently added slots); win is the
// scan's incrementally maintained WindowIndex over the suitable candidates
// — every candidate can host a task over [start, start+Exec] within its
// slot (and within the request deadline). Slots sharing a start time are
// coalesced into one visit: the window already contains every suitable
// slot starting at start.
//
// win.Cands() is the window in scan order; the Select* methods run the
// per-criterion selection procedures without re-sorting it. The index, the
// slices it exposes and the slice a Select* returns are reused between
// calls: implementations must copy whatever they keep (NewWindow does).
// Returning true stops the scan early.
//
// Candidate values may be copied freely — a Candidate aliases its *Slot,
// which is immutable for the duration of the search (see the slots.List
// contract) — but retaining one of the index's slices is an aliasing bug
// that the poisonVisit detector of the aliasing tests exists to catch.
type VisitFunc func(start float64, win *WindowIndex) (stop bool)

// visitWrap, when non-nil, wraps every visit function before the scan loop
// uses it. It is a test-only seam (set via SetVisitWrapForTest) that lets
// the aliasing regression tests interpose their poisonVisit between the
// scan and the per-algorithm selection procedures; production builds pay
// one nil check per scan.
var visitWrap func(VisitFunc) VisitFunc

// Scan is the AEP general scheme: a single pass over the slot list in order
// of non-decreasing start time, maintaining the set of slots that remain
// suitable for a window starting at the current position, and invoking
// visit whenever a window of the requested size could be formed.
//
// The slots arrive through a cursor: a caller's list (list.Cursor()) must
// be sorted by start time (slots.List.SortByStart), and Scan returns an
// error otherwise, because an unsorted list silently breaks the
// linear-scan correctness argument of §2.1; a published sequence
// (seq.Cursor()) is walked leaf by leaf, its order verified when built.
//
// The pass accumulates obs.ScanStats in locals and publishes them to col —
// together with a "scan" span — once it completes. col == nil means
// observability off: a handful of register increments, benchmark-verified
// (BenchmarkScanCollectorOverhead) to stay within the ≤2% hot-path budget.
//
// Concurrency (audited for the parallel engine): Scan only READS the list,
// its slots and their nodes — it never writes through a *slots.Slot — and
// all of its mutable state (the window index, the Candidate values) is
// local to the call. Any number of Scans may therefore run concurrently
// over one shared list, provided callers uphold the slots.List contract of
// not mutating a published list during searches.
func Scan(cur slots.Cursor, req *job.Request, visit VisitFunc, col obs.Collector) error {
	sc := AcquireScanner()
	defer ReleaseScanner(sc)
	sc.win.reset()
	return scanLoop(cur, req, col, &sc.win, visit)
}

// Found is the epilogue of a search built on Scan: a scan error passes
// through, and a scan whose visits kept no window is ErrNoWindow.
func Found(best *Window, err error) (*Window, error) {
	if err != nil {
		return nil, err
	}
	if best == nil {
		return nil, ErrNoWindow
	}
	return best, nil
}

// scanLoop is the single shared scan implementation. Slots sharing a start
// time are coalesced into one visit: every suitable slot at the current
// start joins the window before the selection runs, so a first-feasible
// algorithm (AMP) sees the complete candidate set at a tied start instead
// of a partially built window, and the other algorithms pay one selection
// call per distinct start rather than one per tied slot.
//
// The slots arrive through a cursor, leaf by leaf: a caller's slots.List is
// one leaf, a published slots.Seq many, and a run of equal starts carries
// on across a leaf boundary exactly as it does inside a leaf. Only a
// wrapped List is order-checked here (in full, every call); the leaves of a
// Seq were verified when they were built.
//
// win is caller-provided recycled state (a Scanner's index), reset by the
// caller, which may then lower its cost ceiling: a slot costing more is not
// admitted (MinCost's bound, see WindowIndex.costCeiling). The loop reuses
// the index's capacity, so a warmed-up scan allocates nothing for window
// maintenance. A step costs O(log w) in the window size w — one
// arena cell, one heap push, one insertion into each selection order a
// select has activated and that holds the candidate (MinCost's is cut; see
// WindowIndex) — plus the same for every candidate it expires, and
// a step that expires nothing looks at the heap's top and nothing else; so
// a scan is O(m log w) plus what its visits select (see WindowIndex). w is
// bounded by the node count when every node's free slots are disjoint
// (every retained slot contains the current start), which is where the
// paper's "quadratic in the node count" for its O(w)-per-step scheme comes
// from.
func scanLoop(cur slots.Cursor, req *job.Request, col obs.Collector, win *WindowIndex, visit VisitFunc) error {
	if err := req.Validate(); err != nil {
		return err
	}
	if !cur.Ordered() {
		return fmt.Errorf("core: slot list is not ordered by start time")
	}
	if visitWrap != nil {
		visit = visitWrap(visit)
	}
	var begin time.Duration
	if col != nil {
		begin = obs.Now()
	}
	var st obs.ScanStats

	for leaf, i := cur.Next(), 0; leaf != nil; {
		start := leaf[i].Start
		added := false
		// Coalesce: admit every suitable slot sharing this start time
		// before filtering and visiting once.
		for leaf != nil && leaf[i].Start == start {
			s := leaf[i]
			if i++; i == len(leaf) {
				leaf, i = cur.Next(), 0
			}
			st.Slots++
			if !req.Matches(s.Node) {
				continue // the slot does not meet the requirements
			}
			st.Matched++
			exec, ok := hosts(s, req)
			if !ok {
				continue
			}
			cost := exec * s.Node.Price
			if cost > win.costCeiling {
				continue // no window holding it can be accepted
			}
			st.Candidates++
			win.add(Candidate{Slot: s, Exec: exec, Cost: cost}, effEnd(s, req))
			added = true
		}
		if !added {
			continue
		}

		// Advance the window start to the newest slots' start and drop
		// every slot that no longer provides its minimum required length.
		win.expire(start, req)
		if win.Len() > st.PeakWindow {
			st.PeakWindow = win.Len()
		}

		if win.Len() >= req.TaskCount {
			st.Visits++
			if visit(start, win) {
				st.EarlyStop = true
				break
			}
		}
	}
	if col != nil {
		col.ScanDone(st)
		// No Arg on the scan span: formatting one would be the only heap
		// allocation on the observed steady-state path (the zero-alloc
		// gate in internal/telemetry pins this), and the per-scan counters
		// already travel in the ScanDone event above.
		col.Span(obs.Span{
			Name:  "scan",
			Cat:   "scan",
			Start: begin,
			Dur:   obs.Now() - begin,
		})
	}
	return nil
}

// effEnd returns the effective end of a slot under the request's deadline:
// a task must finish both within the slot and by the deadline.
func effEnd(s *slots.Slot, req *job.Request) float64 {
	if req.Deadline > 0 && req.Deadline < s.End {
		return req.Deadline
	}
	return s.End
}

// hosts is the scan's admission test for a slot whose node matches: the
// task's execution time there, and whether the slot can host it at all —
// starting at the slot's own beginning and finishing by its effective end,
// which holds the deadline. Windows only start later, so a slot that fails
// it never joins one. A NaN anywhere admits the slot: the comparison is
// false.
func hosts(s *slots.Slot, req *job.Request) (exec float64, ok bool) {
	exec = req.ExecTime(s.Node)
	return exec, !(effEnd(s, req) < s.Start+exec)
}
