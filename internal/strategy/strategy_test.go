package strategy

import (
	"errors"
	"testing"

	"slotsel/internal/core"
	"slotsel/internal/job"
	"slotsel/internal/testkit"
)

func TestStrategyPicksBestScore(t *testing.T) {
	e := testkit.SmallEnv(1, 20, 400)
	req := testkit.SmallRequest(3, 300)

	// Pure-cost score must reproduce MinCost's window cost; pure-finish
	// score must reproduce MinFinish's finish.
	minCost, err := (core.MinCost{}).Find(e.Slots, &req)
	if err != nil {
		t.Skip("no window on this seed")
	}
	minFin, err := (core.MinFinish{}).Find(e.Slots, &req)
	if err != nil {
		t.Fatal(err)
	}

	components := []core.Algorithm{core.MinFinish{}, core.MinCost{}, core.MinRunTime{}}
	costOnly := Strategy{Algorithms: components, Score: Weights{Cost: 1}.Score}
	w, err := costOnly.Find(e.Slots, &req)
	if err != nil {
		t.Fatal(err)
	}
	if w.Cost != minCost.Cost {
		t.Errorf("cost-only strategy cost %g, want MinCost's %g", w.Cost, minCost.Cost)
	}

	finishOnly := Strategy{Algorithms: components, Score: Weights{Finish: 1}.Score}
	w, err = finishOnly.Find(e.Slots, &req)
	if err != nil {
		t.Fatal(err)
	}
	if w.Finish() != minFin.Finish() {
		t.Errorf("finish-only strategy finish %g, want MinFinish's %g", w.Finish(), minFin.Finish())
	}
}

func TestStrategyReturnsValidWindows(t *testing.T) {
	for seed := uint64(1); seed <= 15; seed++ {
		e := testkit.SmallEnv(seed, 15, 300)
		req := testkit.SmallRequest(3, 300)
		s := Balanced(300, req.MaxCost)
		w, err := s.Find(e.Slots, &req)
		if errors.Is(err, core.ErrNoWindow) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if verr := testkit.ValidateWindow(w, &req); verr != nil {
			t.Fatalf("seed %d: invalid window: %v", seed, verr)
		}
	}
}

func TestBalancedBetweenExtremes(t *testing.T) {
	// The balanced window can be neither cheaper than MinCost nor finish
	// earlier than MinFinish; it must land in the box they span.
	for seed := uint64(1); seed <= 15; seed++ {
		e := testkit.SmallEnv(seed, 20, 400)
		req := testkit.SmallRequest(3, 300)
		minCost, errC := (core.MinCost{}).Find(e.Slots, &req)
		minFin, errF := (core.MinFinish{}).Find(e.Slots, &req)
		if errC != nil || errF != nil {
			continue
		}
		w, err := Balanced(400, req.MaxCost).Find(e.Slots, &req)
		if err != nil {
			t.Fatal(err)
		}
		if w.Cost < minCost.Cost-1e-9 {
			t.Fatalf("seed %d: balanced cost %g below MinCost %g", seed, w.Cost, minCost.Cost)
		}
		if w.Finish() < minFin.Finish()-1e-9 {
			t.Fatalf("seed %d: balanced finish %g before MinFinish %g", seed, w.Finish(), minFin.Finish())
		}
	}
}

func TestStrategyErrors(t *testing.T) {
	req := testkit.SmallRequest(2, 100)
	if _, err := (Strategy{}).Find(nil, &req); err == nil || errors.Is(err, core.ErrNoWindow) {
		t.Error("empty strategy accepted")
	}
	s := Strategy{Algorithms: []core.Algorithm{core.AMP{}}}
	if _, err := s.Find(nil, &req); !errors.Is(err, core.ErrNoWindow) {
		t.Errorf("empty list: %v, want ErrNoWindow", err)
	}
	bad := job.Request{TaskCount: 0, Volume: 1}
	if _, err := s.Find(nil, &bad); err == nil || errors.Is(err, core.ErrNoWindow) {
		t.Error("invalid request accepted")
	}
}

func TestStrategyName(t *testing.T) {
	if (Strategy{}).Name() != "Strategy" {
		t.Error("default name wrong")
	}
	if (Strategy{Label: "x"}).Name() != "x" {
		t.Error("custom label lost")
	}
	if Balanced(1, 1).Name() != "Balanced" {
		t.Error("balanced label wrong")
	}
}

func TestWeightsScore(t *testing.T) {
	n := testkit.Node(1, 5, 2)
	w := core.NewWindow(10, []core.Candidate{{Slot: testkit.Slot(n, 0, 100), Exec: 30, Cost: 60}})
	// start 10, finish 40, runtime 30, proc 30, cost 60
	score := Weights{Start: 1, Finish: 2, Runtime: 3, ProcTime: 4, Cost: 5}.Score(w)
	want := 10.0 + 2*40 + 3*30 + 4*30 + 5*60
	if score != want {
		t.Errorf("score %g, want %g", score, want)
	}
}
