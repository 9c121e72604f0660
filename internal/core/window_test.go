package core_test

import (
	"errors"
	"strings"
	"testing"

	"slotsel/internal/core"
	"slotsel/internal/job"
	"slotsel/internal/randx"
	"slotsel/internal/testkit"
)

func buildTestWindow() (*core.Window, job.Request) {
	n1 := testkit.Node(1, 5, 2) // exec 30, cost 60
	n2 := testkit.Node(2, 3, 1) // exec 50, cost 50
	s1 := testkit.Slot(n1, 0, 100)
	s2 := testkit.Slot(n2, 0, 100)
	req := job.Request{TaskCount: 2, Volume: 150, MaxCost: 200}
	cands := []core.Candidate{
		{Slot: s1, Exec: 30, Cost: 60},
		{Slot: s2, Exec: 50, Cost: 50},
	}
	return core.NewWindow(10, cands), req
}

func TestNewWindowAggregates(t *testing.T) {
	w, _ := buildTestWindow()
	if w.Start != 10 {
		t.Errorf("start %g", w.Start)
	}
	if w.Runtime != 50 {
		t.Errorf("runtime %g, want 50", w.Runtime)
	}
	if w.Finish() != 60 {
		t.Errorf("finish %g, want 60", w.Finish())
	}
	if w.Cost != 110 {
		t.Errorf("cost %g, want 110", w.Cost)
	}
	if w.ProcTime != 80 {
		t.Errorf("proc time %g, want 80", w.ProcTime)
	}
	if w.Size() != 2 {
		t.Errorf("size %d", w.Size())
	}
}

func TestWindowValidateAccepts(t *testing.T) {
	w, req := buildTestWindow()
	if err := testkit.ValidateWindow(w, &req); err != nil {
		t.Fatal(err)
	}
}

func TestWindowValidateRejects(t *testing.T) {
	t.Run("wrong task count", func(t *testing.T) {
		w, req := buildTestWindow()
		req.TaskCount = 3
		if err := testkit.ValidateWindow(w, &req); err == nil {
			t.Error("accepted wrong task count")
		}
	})
	t.Run("duplicate node", func(t *testing.T) {
		w, req := buildTestWindow()
		w.Placements[1] = w.Placements[0]
		if err := testkit.ValidateWindow(w, &req); err == nil {
			t.Error("accepted duplicate node")
		}
	})
	t.Run("budget violation", func(t *testing.T) {
		w, req := buildTestWindow()
		req.MaxCost = 100
		if err := testkit.ValidateWindow(w, &req); err == nil {
			t.Error("accepted budget violation")
		}
	})
	t.Run("deadline violation", func(t *testing.T) {
		w, req := buildTestWindow()
		req.Deadline = 55
		if err := testkit.ValidateWindow(w, &req); err == nil {
			t.Error("accepted deadline violation")
		}
	})
	t.Run("requirement mismatch", func(t *testing.T) {
		w, req := buildTestWindow()
		req.MinPerf = 4 // node 2 has perf 3
		if err := testkit.ValidateWindow(w, &req); err == nil {
			t.Error("accepted non-matching node")
		}
	})
	t.Run("placement outside slot", func(t *testing.T) {
		w, req := buildTestWindow()
		w.Placements[0].Slot.End = 35 // task runs [10,40)
		if err := testkit.ValidateWindow(w, &req); err == nil {
			t.Error("accepted overhanging placement")
		}
	})
	t.Run("desynchronized start", func(t *testing.T) {
		w, req := buildTestWindow()
		w.Placements[0].Start = 12
		if err := testkit.ValidateWindow(w, &req); err == nil {
			t.Error("accepted desynchronized placement")
		}
	})
	t.Run("wrong exec", func(t *testing.T) {
		w, req := buildTestWindow()
		w.Placements[0].Exec = 31
		if err := testkit.ValidateWindow(w, &req); err == nil {
			t.Error("accepted wrong exec time")
		}
	})
}

func TestUsedIntervals(t *testing.T) {
	w, _ := buildTestWindow()
	used := w.UsedIntervals()
	if len(used) != 2 {
		t.Fatalf("%d used nodes", len(used))
	}
	for _, p := range w.Placements {
		ivs, ok := used[p.Node().ID]
		if !ok || len(ivs) != 1 {
			t.Fatalf("node %d missing from UsedIntervals: %v", p.Node().ID, used)
		}
		if ivs[0].Start != w.Start || ivs[0].End != w.Start+p.Exec {
			t.Errorf("used interval %v, want [%g,%g)", ivs[0], w.Start, w.Start+p.Exec)
		}
	}
}

func TestSortPlacementsByNode(t *testing.T) {
	w, _ := buildTestWindow()
	w.Placements[0], w.Placements[1] = w.Placements[1], w.Placements[0]
	w.SortPlacementsByNode()
	if w.Placements[0].Node().ID != 1 || w.Placements[1].Node().ID != 2 {
		t.Errorf("placements not sorted by node: %v", w.Placements)
	}
}

func TestWindowString(t *testing.T) {
	w, _ := buildTestWindow()
	s := w.String()
	if !strings.Contains(s, "start=10.00") || !strings.Contains(s, "n=2") {
		t.Errorf("String() = %q", s)
	}
}

func TestPlacementAccessors(t *testing.T) {
	w, _ := buildTestWindow()
	p := w.Placements[0]
	if p.Node().ID != 1 {
		t.Errorf("Node() = %v", p.Node())
	}
	if p.Finish() != 40 {
		t.Errorf("Finish() = %g, want 40", p.Finish())
	}
	if u := p.Used(); u.Start != 10 || u.End != 40 {
		t.Errorf("Used() = %v", u)
	}
}

func TestAllAlgorithmsReturnValidWindows(t *testing.T) {
	rng := randx.New(100)
	for trial := 0; trial < 50; trial++ {
		l := core.RandomSmallListForTest(rng, 8)
		req := job.Request{TaskCount: 3, Volume: 60, MaxCost: 200}
		for _, alg := range core.AllAlgorithmsForTest() {
			w, err := alg.Find(l, &req)
			if errors.Is(err, core.ErrNoWindow) {
				continue
			}
			if err != nil {
				t.Fatalf("trial %d, %s: %v", trial, alg.Name(), err)
			}
			if verr := testkit.ValidateWindow(w, &req); verr != nil {
				t.Fatalf("trial %d, %s returned invalid window: %v", trial, alg.Name(), verr)
			}
		}
	}
}
