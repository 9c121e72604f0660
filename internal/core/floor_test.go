package core

import (
	"math"
	"testing"

	"slotsel/internal/job"
	"slotsel/internal/nodes"
	"slotsel/internal/obs"
	"slotsel/internal/slots"
)

// runtimeCriteria are the searches the runtime floor prunes: both criteria
// under every per-visit kernel.
func runtimeCriteria() []Algorithm {
	return []Algorithm{
		MinRunTime{},
		MinRunTime{Exact: true},
		MinRunTime{LiteralBudget: true},
		MinFinish{},
		MinFinish{Exact: true},
	}
}

// scanRecorder keeps the counters of the last scan.
type scanRecorder struct {
	obs.Nop
	last obs.ScanStats
}

func (r *scanRecorder) ScanDone(s obs.ScanStats) { r.last = s }

// checkPruned runs alg on a fresh scanner and on its full-scan oracle twin,
// fails unless both return the same window bit for bit (or both none), and
// returns the scanner's scan counters.
func checkPruned(t *testing.T, who string, alg Algorithm, list slots.List, req job.Request) obs.ScanStats {
	t.Helper()
	var rec scanRecorder
	r1, r2 := req, req
	w, err := NewScanner().Find(alg, list.Cursor(), &r1, &rec)
	oracle, _ := Oracle(alg)
	ow, oerr := oracle.Find(list, &r2)
	if (err == nil) != (oerr == nil) {
		t.Fatalf("%s alg=%s: feasibility diverged: scanner err=%v, full scan err=%v", who, alg.Name(), err, oerr)
	}
	if got, want := sigWindow(w), sigWindow(ow); got != want {
		t.Errorf("%s alg=%s: pruned scan diverged from the full scan\npruned: %s\nfull:   %s", who, alg.Name(), got, want)
	}
	return rec.last
}

func floorOf(list slots.List, req job.Request) float64 {
	return NewScanner().runtimeFloor(list.Cursor(), &req)
}

// floorBase is the common fixture: nodes 1 and 2 (exec 15) from 0, nodes 3
// and 4 (exec 10) from 50. With two tasks the floor is 10, MinRunTime settles
// at start 50 and MinFinish (best finish 15 at start 0) at start 50 too, so
// the slots from extra, all starting later, are the ones a stop skips.
func floorBase(extra ...*slots.Slot) slots.List {
	return sorted(append([]*slots.Slot{
		slot(testNode(1, 4, 1), 0, 100), slot(testNode(2, 4, 1), 0, 100),
		slot(testNode(3, 6, 1), 50, 200), slot(testNode(4, 6, 1), 50, 200),
	}, extra...)...)
}

// TestRuntimeFloorAdversarial pins the floor on the inputs that could fool
// it, and on each one compares every pruned search with its full-scan
// oracle and checks whether the scan stopped early.
func TestRuntimeFloorAdversarial(t *testing.T) {
	req := job.Request{TaskCount: 2, Volume: 60}
	windows := func(id int) *nodes.Node {
		n := testNode(id, 20, 1) // exec 3: the fastest node of every case
		n.OS = nodes.Windows
		return n
	}
	fast, slow, slow2 := testNode(5, 20, 1), testNode(1, 4, 1), testNode(2, 4, 1)
	for _, tc := range []struct {
		name  string
		list  slots.List
		req   job.Request
		floor float64
		// stops: MinRunTime's scan must end before the list does; full: it
		// must examine every slot.
		stops, full bool
	}{
		{
			name:  "fastest nodes fail the match",
			list:  floorBase(slot(windows(5), 60, 200), slot(windows(6), 60, 200)),
			req:   job.Request{TaskCount: 2, Volume: 60, OS: []nodes.OS{nodes.Linux}},
			floor: 10, stops: true,
		},
		{
			// MinPerf can only remove slow nodes; with the fast pair gone
			// too, fewer than n nodes remain and no window exists.
			name:  "MinPerf leaves one node",
			list:  floorBase(slot(testNode(5, 20, 1), 60, 200)),
			req:   job.Request{TaskCount: 2, Volume: 60, MinPerf: 7},
			floor: math.Inf(1),
		},
		{
			name:  "fastest nodes miss the deadline",
			list:  floorBase(slot(testNode(5, 20, 1), 195, 400), slot(testNode(6, 20, 1), 196, 400)),
			req:   job.Request{TaskCount: 2, Volume: 60, Deadline: 197},
			floor: 10, stops: true,
		},
		{
			name:  "fastest nodes cut short by the deadline",
			list:  floorBase(slot(testNode(5, 20, 1), 100, 400), slot(testNode(6, 20, 1), 100, 400)),
			req:   job.Request{TaskCount: 2, Volume: 60, Deadline: 102},
			floor: 10, stops: true,
		},
		{
			name:  "fastest nodes' slots too short",
			list:  floorBase(slot(testNode(5, 20, 1), 60, 62), slot(testNode(6, 20, 1), 60, 62.9)),
			req:   req,
			floor: 10, stops: true,
		},
		{
			// Slots exactly one task long are admitted: the fast pair at 60
			// is the answer, and a floor without them would stop at 50.
			name:  "fastest nodes' slots fit exactly",
			list:  floorBase(slot(testNode(5, 20, 1), 60, 63), slot(testNode(6, 20, 1), 60, 63)),
			req:   req,
			floor: 3,
		},
		{
			// Many disjoint slots of one fast node are one node: the
			// second-fastest is still 10, and the window {5, 3} at 60 ties
			// the one at 50, which is kept.
			name:  "one fast node, many slots",
			list:  floorBase(slot(fast, 60, 70), slot(fast, 80, 90), slot(fast, 100, 110), slot(fast, 120, 130)),
			req:   req,
			floor: 10, stops: true,
		},
		{
			// Overlapping slots of one node can sit in a window together:
			// the node counts twice and the floor is its own exec.
			name:  "one fast node, overlapping slots",
			list:  floorBase(slot(fast, 60, 90), slot(fast, 70, 100)),
			req:   req,
			floor: 3,
		},
		{
			name:  "fewer than n suitable nodes",
			list:  sorted(slot(slow, 0, 100), slot(slow, 150, 300)),
			req:   req,
			floor: math.Inf(1),
		},
		{
			// A later window whose runtime equals the floor: the scan stops
			// on the first, and the first is the answer.
			name:  "later window equal to the floor",
			list:  sorted(slot(testNode(1, 6, 1), 0, 100), slot(testNode(2, 6, 1), 0, 100), slot(testNode(3, 6, 1), 50, 200), slot(testNode(4, 6, 1), 50, 200)),
			req:   req,
			floor: 10, stops: true,
		},
		{
			// Nothing validates Perf on input: a node with a negative one
			// gets a negative exec, the bound's argument fails, nothing is
			// pruned.
			name:  "non-positive performance",
			list:  floorBase(slot(testNode(5, -20, 1), 60, 200)),
			req:   req,
			floor: math.Inf(-1), full: true,
		},
		{
			// The fast pair costs 2*10*50 = 1000; a budget of 200 rules it
			// out, so no window reaches the floor and the scan runs in full.
			name: "budget rules out the fastest nodes",
			list: sorted(slot(slow, 0, 100), slot(slow2, 0, 100),
				slot(testNode(3, 6, 50), 50, 200), slot(testNode(4, 6, 50), 50, 200),
				slot(slow, 150, 300), slot(slow2, 150, 300)),
			req:   job.Request{TaskCount: 2, Volume: 60, MaxCost: 200},
			floor: 10, full: true,
		},
	} {
		if got := floorOf(tc.list, tc.req); got != tc.floor {
			t.Errorf("%s: floor %v, want %v", tc.name, got, tc.floor)
		}
		for _, alg := range runtimeCriteria() {
			st := checkPruned(t, tc.name, alg, tc.list, tc.req)
			if _, isRunTime := alg.(MinRunTime); !isRunTime {
				continue
			}
			if tc.stops && (!st.EarlyStop || st.Slots >= len(tc.list)) {
				t.Errorf("%s alg=%s: scan examined %d of %d slots (stopped early: %v), want a stop", tc.name, alg.Name(), st.Slots, len(tc.list), st.EarlyStop)
			}
			if tc.full && (st.EarlyStop || st.Slots != len(tc.list)) {
				t.Errorf("%s alg=%s: scan examined %d of %d slots (stopped early: %v), want the full list", tc.name, alg.Name(), st.Slots, len(tc.list), st.EarlyStop)
			}
		}
	}
}

// TestRuntimeFloorTies: among equally fast candidates the floor is their
// exec, whichever node is evicted from the buffer, and a pool where the n-th
// fastest shares its exec with many nodes keeps the bound exact.
func TestRuntimeFloorTies(t *testing.T) {
	var ss []*slots.Slot
	for id := 0; id < 12; id++ {
		perf := 6.0
		if id%3 == 0 {
			perf = 12 // exec 5 on nodes 0, 3, 6, 9
		}
		ss = append(ss, slot(testNode(id, perf, 1), float64(10*id), float64(10*id+300)))
	}
	list := sorted(ss...)
	for n, want := range map[int]float64{1: 5, 4: 5, 5: 10, 12: 10, 13: math.Inf(1)} {
		req := job.Request{TaskCount: n, Volume: 60}
		if got := floorOf(list, req); got != want {
			t.Errorf("n=%d: floor %v, want %v", n, got, want)
		}
		for _, alg := range runtimeCriteria() {
			checkPruned(t, "ties", alg, list, req)
		}
	}
}
