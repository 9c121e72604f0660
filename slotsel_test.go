package slotsel_test

import (
	"errors"
	"testing"

	"slotsel"
	"slotsel/internal/testkit"
)

// The facade tests double as end-to-end integration tests: they exercise the
// full pipeline (environment generation -> slot publication -> selection)
// through the public API only, and check each window with the test kit's
// validator.

func TestQuickstartFlow(t *testing.T) {
	rng := slotsel.NewRand(42)
	e := slotsel.GenerateEnvironment(slotsel.DefaultEnvConfig(), rng)
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	req := slotsel.DefaultRequest()
	for _, alg := range []slotsel.Algorithm{
		slotsel.AMP{},
		slotsel.MinFinish{},
		slotsel.MinCost{},
		slotsel.MinRunTime{},
		slotsel.MinProcTime{Seed: 1},
		slotsel.MinProcTimeGreedy{},
		slotsel.MinEnergy{},
		slotsel.FirstFit{},
	} {
		w, err := alg.Find(e.Slots, &req)
		if errors.Is(err, slotsel.ErrNoWindow) {
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if err := testkit.ValidateWindow(w, &req); err != nil {
			t.Fatalf("%s: invalid window: %v", alg.Name(), err)
		}
	}
}

func TestAlternativesFlow(t *testing.T) {
	rng := slotsel.NewRand(7)
	e := slotsel.GenerateEnvironment(slotsel.DefaultEnvConfig(), rng)
	req := slotsel.DefaultRequest()
	alts, err := slotsel.SearchAlternatives(e.Slots, &req, slotsel.CSAOptions{MinSlotLength: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(alts) < 2 {
		t.Fatalf("expected multiple alternatives, got %d", len(alts))
	}
	for _, c := range []slotsel.Criterion{
		slotsel.ByStart, slotsel.ByFinish, slotsel.ByCost, slotsel.ByRuntime, slotsel.ByProcTime,
	} {
		if w := slotsel.BestAlternative(alts, c); w == nil {
			t.Fatalf("no best alternative by %v", c)
		}
	}
}

func TestBatchFlow(t *testing.T) {
	rng := slotsel.NewRand(2013)
	e := slotsel.GenerateEnvironment(slotsel.DefaultEnvConfig(), rng)
	batch := &slotsel.Batch{}
	batch.Add(&slotsel.Job{ID: 1, Priority: 2, Request: slotsel.Request{TaskCount: 5, Volume: 150, MaxCost: 1500}})
	batch.Add(&slotsel.Job{ID: 2, Priority: 1, Request: slotsel.Request{TaskCount: 3, Volume: 100, MaxCost: 900}})
	plan, err := slotsel.ScheduleBatch(e.Slots, batch,
		slotsel.CSAOptions{MaxAlternatives: 10, MinSlotLength: 10},
		slotsel.SelectConfig{Budget: 2400, Criterion: slotsel.ByFinish})
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalCost > 2400 {
		t.Fatalf("plan cost %g exceeds VO budget", plan.TotalCost)
	}
	if plan.Scheduled == 0 {
		t.Fatal("nothing scheduled on a default environment")
	}
}

func TestAlgorithmByName(t *testing.T) {
	names := []string{
		"amp", "ALP", "MinFinish", "mincost", "minruntime",
		"minproctime", "minproctimegreedy", "minenergy", "FirstFit",
	}
	for _, name := range names {
		alg, err := slotsel.AlgorithmByName(name, 1)
		if err != nil {
			t.Errorf("%q: %v", name, err)
			continue
		}
		if alg.Name() == "" {
			t.Errorf("%q resolved to unnamed algorithm", name)
		}
	}
	if _, err := slotsel.AlgorithmByName("bogus", 1); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestReplayFlow(t *testing.T) {
	rng := slotsel.NewRand(11)
	e := slotsel.GenerateEnvironment(slotsel.DefaultEnvConfig(), rng)
	req := slotsel.DefaultRequest()
	alts, err := slotsel.SearchAlternatives(e.Slots, &req, slotsel.CSAOptions{MinSlotLength: 10})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := slotsel.Replay(e, alts)
	if err != nil {
		t.Fatalf("CSA alternatives failed replay: %v", err)
	}
	if rep.Makespan <= 0 || len(rep.Events) == 0 {
		t.Fatalf("empty replay report: %+v", rep)
	}
}

func TestGenericExtremeFlow(t *testing.T) {
	rng := slotsel.NewRand(17)
	e := slotsel.GenerateEnvironment(slotsel.DefaultEnvConfig(), rng)
	req := slotsel.DefaultRequest()
	alg := slotsel.Extreme{Label: "cost", Weight: slotsel.WeightCost}
	w, err := alg.Find(e.Slots, &req)
	if err != nil {
		t.Fatal(err)
	}
	if err := testkit.ValidateWindow(w, &req); err != nil {
		t.Fatal(err)
	}
}

func TestStrategyFlow(t *testing.T) {
	rng := slotsel.NewRand(19)
	e := slotsel.GenerateEnvironment(slotsel.DefaultEnvConfig(), rng)
	req := slotsel.DefaultRequest()
	s := slotsel.BalancedStrategy(e.Horizon, req.MaxCost)
	w, err := s.Find(e.Slots, &req)
	if err != nil {
		t.Fatal(err)
	}
	if err := testkit.ValidateWindow(w, &req); err != nil {
		t.Fatal(err)
	}
	// A custom weighted strategy through the facade types.
	custom := slotsel.Strategy{
		Label:      "cheap-and-fast",
		Algorithms: []slotsel.Algorithm{slotsel.MinCost{}, slotsel.MinRunTime{}},
		Score:      slotsel.StrategyWeights{Cost: 1 / req.MaxCost, Runtime: 0.01}.Score,
	}
	if _, err := custom.Find(e.Slots, &req); err != nil {
		t.Fatal(err)
	}
}

func TestVOSimulationFlow(t *testing.T) {
	cfg := slotsel.DefaultVOSimConfig()
	cfg.Cycles = 5
	cfg.Nodes.Count = 40
	res, err := slotsel.RunVOSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Submitted > 0 && res.Scheduled == 0 {
		t.Fatal("nothing scheduled")
	}
}

func TestRequirementFilteringFlow(t *testing.T) {
	rng := slotsel.NewRand(5)
	e := slotsel.GenerateEnvironment(slotsel.DefaultEnvConfig(), rng)
	req := slotsel.DefaultRequest()
	req.MinPerf = 7
	req.MaxCost = 4000 // fast nodes carry a market premium
	w, err := slotsel.MinRunTime{}.Find(e.Slots, &req)
	if errors.Is(err, slotsel.ErrNoWindow) {
		t.Skip("no fast window on this seed")
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range w.Placements {
		if p.Node().Perf < 7 {
			t.Fatalf("node %v below the performance floor", p.Node())
		}
	}
}
