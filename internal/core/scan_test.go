package core

import (
	"testing"

	"slotsel/internal/job"
	"slotsel/internal/nodes"
	"slotsel/internal/obs"
	"slotsel/internal/slots"
)

func testNode(id int, perf, price float64) *nodes.Node {
	return &nodes.Node{
		ID: id, Perf: perf, Price: price,
		RAMMB: 4096, DiskGB: 100, OS: nodes.Linux, Arch: nodes.AMD64,
	}
}

func slot(n *nodes.Node, start, end float64) *slots.Slot {
	return &slots.Slot{Node: n, Interval: slots.Interval{Start: start, End: end}}
}

func sorted(ss ...*slots.Slot) slots.List {
	l := slots.List(ss)
	l.SortByStart()
	return l
}

func TestScanRejectsUnsortedList(t *testing.T) {
	n := testNode(1, 4, 1)
	l := slots.List{slot(n, 50, 100), slot(n, 0, 40)}
	req := job.Request{TaskCount: 1, Volume: 40}
	err := Scan(l.Cursor(), &req, func(float64, *WindowIndex) bool { return false }, nil)
	if err == nil {
		t.Fatal("unsorted list accepted")
	}
}

func TestScanRejectsInvalidRequest(t *testing.T) {
	req := job.Request{TaskCount: 0, Volume: 40}
	if err := Scan(slots.Cursor{}, &req, func(float64, *WindowIndex) bool { return false }, nil); err == nil {
		t.Fatal("invalid request accepted")
	}
}

func TestScanVisitsWithEnoughCandidates(t *testing.T) {
	// Two nodes with slots starting at different times; a 2-task request
	// can only be visited once both slots are in the window.
	n1, n2 := testNode(1, 4, 1), testNode(2, 4, 1)
	l := sorted(slot(n1, 0, 200), slot(n2, 50, 200))
	req := job.Request{TaskCount: 2, Volume: 60} // exec 15 on both
	var starts []float64
	if err := Scan(l.Cursor(), &req, func(start float64, win *WindowIndex) bool {
		cands := win.Cands()
		starts = append(starts, start)
		if len(cands) < 2 {
			t.Errorf("visited with %d candidates", len(cands))
		}
		return false
	}, nil); err != nil {
		t.Fatal(err)
	}
	if len(starts) != 1 || starts[0] != 50 {
		t.Fatalf("visited starts %v, want [50]", starts)
	}
}

func TestScanStartsNonDecreasing(t *testing.T) {
	n1, n2, n3 := testNode(1, 4, 1), testNode(2, 2, 1), testNode(3, 10, 1)
	l := sorted(
		slot(n1, 0, 100), slot(n2, 10, 300), slot(n3, 20, 80),
		slot(n1, 150, 400), slot(n3, 90, 500),
	)
	req := job.Request{TaskCount: 2, Volume: 60}
	prev := -1.0
	if err := Scan(l.Cursor(), &req, func(start float64, win *WindowIndex) bool {
		if start < prev {
			t.Errorf("starts decreased: %g after %g", start, prev)
		}
		prev = start
		return false
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScanCandidatesAlwaysFit(t *testing.T) {
	n1, n2, n3 := testNode(1, 2, 1), testNode(2, 5, 1), testNode(3, 10, 1)
	l := sorted(
		slot(n1, 0, 100), slot(n2, 5, 40), slot(n3, 12, 30),
		slot(n2, 60, 200), slot(n1, 140, 180),
	)
	req := job.Request{TaskCount: 2, Volume: 60}
	if err := Scan(l.Cursor(), &req, func(start float64, win *WindowIndex) bool {
		for _, c := range win.Cands() {
			if !(c.Slot.Start <= start && start+req.ExecTime(c.Slot.Node) <= c.Slot.End) {
				t.Errorf("candidate %v does not fit at %g", c.Slot, start)
			}
			if c.Exec != req.ExecTime(c.Slot.Node) {
				t.Errorf("candidate exec %g, want %g", c.Exec, req.ExecTime(c.Slot.Node))
			}
			if c.Cost != c.Exec*c.Slot.Node.Price {
				t.Errorf("candidate cost %g inconsistent", c.Cost)
			}
		}
		return false
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScanSkipsNonMatchingNodes(t *testing.T) {
	fast := testNode(1, 10, 1)
	slow := testNode(2, 2, 1)
	l := sorted(slot(fast, 0, 100), slot(slow, 0, 100))
	req := job.Request{TaskCount: 1, Volume: 60, MinPerf: 5}
	visited := false
	if err := Scan(l.Cursor(), &req, func(start float64, win *WindowIndex) bool {
		visited = true
		for _, c := range win.Cands() {
			if c.Slot.Node.Perf < 5 {
				t.Errorf("non-matching node %v offered", c.Slot.Node)
			}
		}
		return false
	}, nil); err != nil {
		t.Fatal(err)
	}
	if !visited {
		t.Fatal("matching node never visited")
	}
}

func TestScanDeadlineFiltering(t *testing.T) {
	n1, n2 := testNode(1, 4, 1), testNode(2, 4, 1) // exec 15
	l := sorted(slot(n1, 0, 200), slot(n2, 0, 200))
	req := job.Request{TaskCount: 2, Volume: 60, Deadline: 10}
	count := 0
	if err := Scan(l.Cursor(), &req, func(float64, *WindowIndex) bool {
		count++
		return false
	}, nil); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Fatalf("deadline 10 cannot host exec 15, but visited %d times", count)
	}

	req.Deadline = 15
	if err := Scan(l.Cursor(), &req, func(start float64, win *WindowIndex) bool {
		cands := win.Cands()
		count++
		if start != 0 {
			t.Errorf("only start 0 is deadline-feasible, got %g", start)
		}
		if len(cands) != 2 {
			t.Errorf("expected both slots as candidates, got %d", len(cands))
		}
		return false
	}, nil); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("expected 1 visit (window completes on the second slot), got %d", count)
	}
}

func TestScanStopEarly(t *testing.T) {
	n1, n2 := testNode(1, 4, 1), testNode(2, 4, 1)
	l := sorted(slot(n1, 0, 100), slot(n2, 0, 100), slot(n1, 150, 300), slot(n2, 150, 300))
	req := job.Request{TaskCount: 1, Volume: 60}
	visits := 0
	if err := Scan(l.Cursor(), &req, func(float64, *WindowIndex) bool {
		visits++
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
	if visits != 1 {
		t.Fatalf("stop=true did not stop the scan: %d visits", visits)
	}
}

func TestScanWindowDropsExpiredSlots(t *testing.T) {
	// Slot on n1 ends at 30; with exec 15, from start > 15 it must vanish.
	n1, n2, n3 := testNode(1, 4, 1), testNode(2, 4, 1), testNode(3, 4, 1)
	l := sorted(slot(n1, 0, 30), slot(n2, 20, 100), slot(n3, 40, 100))
	req := job.Request{TaskCount: 2, Volume: 60}
	if err := Scan(l.Cursor(), &req, func(start float64, win *WindowIndex) bool {
		if start == 40 {
			for _, c := range win.Cands() {
				if c.Slot.Node.ID == 1 {
					t.Error("expired slot on node 1 still in window at start 40")
				}
			}
		}
		return false
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// scanCounts keeps the counters of the last scan it saw.
type scanCounts struct {
	obs.Nop
	st obs.ScanStats
}

func (c *scanCounts) ScanDone(st obs.ScanStats) { c.st = st }

// TestHostsAdditionForm pins the form of the admission test: a slot hosts a
// task when end >= start + exec, which is not end − start >= exec in the
// last place. On this slot the subtraction form says no, and the scan
// admits the slot as a candidate.
func TestHostsAdditionForm(t *testing.T) {
	const start, end, exec = 80.61854646744074, 122.99023331430237, 42.37168684686164
	s := slot(testNode(1, 1, 1), start, end)
	req := job.Request{TaskCount: 1, Volume: exec}
	if end-start >= exec {
		t.Fatal("the fixture no longer separates the two forms")
	}
	if _, ok := hosts(s, &req); !ok {
		t.Fatal("hosts rejects a slot with end >= start+exec")
	}
	var counts scanCounts
	if err := Scan(sorted(s).Cursor(), &req, func(float64, *WindowIndex) bool { return false }, &counts); err != nil {
		t.Fatal(err)
	}
	if counts.st.Candidates != 1 {
		t.Fatalf("the scan admitted %d candidates, want the slot", counts.st.Candidates)
	}
}
