package execsim

import (
	"errors"
	"strings"
	"testing"

	"slotsel/internal/batchsched"
	"slotsel/internal/core"
	"slotsel/internal/csa"
	"slotsel/internal/job"
	"slotsel/internal/testkit"
)

func TestReplaySingleWindow(t *testing.T) {
	e := testkit.SmallEnv(1, 15, 300)
	req := testkit.SmallRequest(3, 300)
	w, err := (core.AMP{}).Find(e.Slots, &req)
	if errors.Is(err, core.ErrNoWindow) {
		t.Skip("no window on this seed")
	}
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(e, []*core.Window{w})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Events) != 2*w.Size() {
		t.Fatalf("%d events, want %d", len(rep.Events), 2*w.Size())
	}
	if rep.Makespan != w.Finish() {
		t.Errorf("makespan %g, want %g", rep.Makespan, w.Finish())
	}
	if diff := rep.TotalProcTime - w.ProcTime; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("proc time %g, want %g", rep.TotalProcTime, w.ProcTime)
	}
	if rep.Utilization <= 0 || rep.Utilization > 1 {
		t.Errorf("utilization %g out of (0,1]", rep.Utilization)
	}
}

func TestReplayEventOrdering(t *testing.T) {
	e := testkit.SmallEnv(2, 15, 300)
	req := testkit.SmallRequest(3, 300)
	alts, err := csa.Search(e.Slots, &req, csa.Options{MinSlotLength: 10}, nil)
	if err != nil {
		t.Skip("no alternatives on this seed")
	}
	rep, err := Replay(e, alts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rep.Events); i++ {
		if rep.Events[i].Time < rep.Events[i-1].Time {
			t.Fatalf("events out of order at %d", i)
		}
	}
	starts, finishes := 0, 0
	for _, ev := range rep.Events {
		switch ev.Kind {
		case "start":
			starts++
		case "finish":
			finishes++
		default:
			t.Fatalf("unknown event kind %q", ev.Kind)
		}
	}
	if starts != finishes {
		t.Fatalf("%d starts, %d finishes", starts, finishes)
	}
}

func TestReplayCSAAlternativesNeverConflict(t *testing.T) {
	// CSA alternatives are disjoint by construction, so replaying all of
	// them must succeed — this exercises the double-booking detector
	// against a known-good schedule.
	for seed := uint64(1); seed <= 10; seed++ {
		e := testkit.SmallEnv(seed, 20, 400)
		req := testkit.SmallRequest(3, 300)
		alts, err := csa.Search(e.Slots, &req, csa.Options{MinSlotLength: 10}, nil)
		if errors.Is(err, core.ErrNoWindow) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Replay(e, alts); err != nil {
			t.Fatalf("seed %d: CSA alternatives failed replay: %v", seed, err)
		}
	}
}

func TestReplayDetectsDoubleBooking(t *testing.T) {
	n := testkit.Node(1, 5, 1)
	s := testkit.Slot(n, 0, 100)
	e := testkit.SmallEnv(3, 0, 100)
	e.Nodes = append(e.Nodes, n)
	e.Slots = append(e.Slots, s)
	w1 := core.NewWindow(0, []core.Candidate{{Slot: s, Exec: 30, Cost: 30}})
	w2 := core.NewWindow(20, []core.Candidate{{Slot: s, Exec: 30, Cost: 30}})
	_, err := Replay(e, []*core.Window{w1, w2})
	if err == nil || !strings.Contains(err.Error(), "double-booked") {
		t.Fatalf("double booking not detected: %v", err)
	}
}

func TestReplayDetectsTaskOutsideSlots(t *testing.T) {
	n := testkit.Node(1, 5, 1)
	s := testkit.Slot(n, 0, 100)
	e := testkit.SmallEnv(4, 0, 100)
	e.Nodes = append(e.Nodes, n)
	e.Slots = append(e.Slots, s)
	// A window claiming to run beyond the slot end.
	bad := core.NewWindow(90, []core.Candidate{{Slot: s, Exec: 30, Cost: 30}})
	if _, err := Replay(e, []*core.Window{bad}); err == nil {
		t.Fatal("task outside slots not detected")
	}
}

func TestReplayDetectsUnknownNode(t *testing.T) {
	foreign := testkit.Node(999, 5, 1)
	s := testkit.Slot(foreign, 0, 100)
	e := testkit.SmallEnv(5, 3, 100)
	w := core.NewWindow(0, []core.Candidate{{Slot: s, Exec: 10, Cost: 10}})
	if _, err := Replay(e, []*core.Window{w}); err == nil {
		t.Fatal("unknown node not detected")
	}
}

func TestReplayEmptySchedule(t *testing.T) {
	e := testkit.SmallEnv(6, 5, 100)
	rep, err := Replay(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan != 0 || rep.TotalProcTime != 0 || len(rep.Events) != 0 {
		t.Errorf("empty schedule produced non-empty report: %+v", rep)
	}
}

func TestReplayPlanEndToEnd(t *testing.T) {
	e := testkit.SmallEnv(7, 25, 500)
	batch := &job.Batch{}
	batch.Add(&job.Job{ID: 1, Priority: 2, Request: job.Request{TaskCount: 3, Volume: 60, MaxCost: 300}})
	batch.Add(&job.Job{ID: 2, Priority: 1, Request: job.Request{TaskCount: 2, Volume: 90, MaxCost: 250}})
	plan, err := batchsched.Schedule(e.Slots, batch,
		csa.Options{MinSlotLength: 10, MaxAlternatives: 8},
		batchsched.SelectConfig{Budget: 600, Criterion: csa.ByFinish})
	if err != nil {
		t.Fatal(err)
	}
	var chosen []*core.Window
	for _, a := range plan.Assignments {
		chosen = append(chosen, a.Chosen)
	}
	rep, err := ReplayPlan(e, chosen)
	if err != nil {
		t.Fatalf("scheduled plan failed replay: %v", err)
	}
	if plan.Scheduled > 0 && rep.Makespan == 0 {
		t.Error("scheduled plan replayed to empty execution")
	}
	if plan.Scheduled > 0 && rep.Makespan != plan.Makespan() {
		t.Errorf("replay makespan %g, plan makespan %g", rep.Makespan, plan.Makespan())
	}
}
