package experiments

import (
	"errors"
	"fmt"
	"time"

	"slotsel/internal/core"
	"slotsel/internal/csa"
	"slotsel/internal/env"
	"slotsel/internal/job"
	"slotsel/internal/metrics"
	"slotsel/internal/randx"
)

// TimingConfig parametrizes the working-time studies of Tables 1-2 and
// Figs. 5-6: the algorithms' measured wall time as a function of the CPU
// node count (Table 1 / Fig. 5) or of the scheduling interval length
// (Table 2 / Fig. 6).
type TimingConfig struct {
	// Cycles is the number of measured experiments per sweep point
	// (paper: 1000).
	Cycles int

	// Seed drives all randomness.
	Seed uint64

	// Env is the base environment configuration; the sweep overrides the
	// node count or the horizon.
	Env env.Config

	// Request is the base job.
	Request job.Request

	// NodeCounts is the Table 1 sweep (paper: 50, 100, 200, 300, 400).
	NodeCounts []int

	// Horizons is the Table 2 sweep (paper: 600..3600 step 600).
	Horizons []float64
}

// DefaultTimingConfig returns the §3.2 timing setup.
func DefaultTimingConfig() TimingConfig {
	return TimingConfig{
		Cycles:     1000,
		Seed:       1,
		Env:        env.DefaultConfig(),
		Request:    job.DefaultRequest(),
		NodeCounts: []int{50, 100, 200, 300, 400},
		Horizons:   []float64{600, 1200, 1800, 2400, 3000, 3600},
	}
}

// TimedAlgoNames lists the measured algorithms in the paper's table order;
// CSA is measured separately because of its alternative bookkeeping.
var TimedAlgoNames = []string{"CSA", "AMP", "MinRunTime", "MinFinish", "MinProcTime", "MinCost"}

// TimingPoint aggregates one sweep point.
type TimingPoint struct {
	// Param is the sweep value: node count or interval length.
	Param float64

	// SlotCount is the published slot count distribution.
	SlotCount metrics.Accumulator

	// CSAAlternatives is the per-experiment alternatives count found by
	// CSA ("CSA: Alternatives Num" row).
	CSAAlternatives metrics.Accumulator

	// AlgoSeconds maps algorithm name to its measured working time in
	// seconds per experiment.
	AlgoSeconds map[string]*metrics.Accumulator
}

// CSAPerAlternative returns the average CSA working time divided by the
// average alternatives count ("CSA per Alt" row), in seconds.
func (p *TimingPoint) CSAPerAlternative() float64 {
	alts := p.CSAAlternatives.Mean()
	if alts == 0 {
		return 0
	}
	return p.AlgoSeconds["CSA"].Mean() / alts
}

// TimingResult is the outcome of one sweep.
type TimingResult struct {
	Config TimingConfig
	// SweepLabel names the swept parameter ("CPU nodes" or "interval").
	SweepLabel string
	Points     []*TimingPoint
}

// RunNodeSweep reproduces Table 1 / Fig. 5: working time vs CPU node count.
func RunNodeSweep(cfg TimingConfig) (*TimingResult, error) {
	res := &TimingResult{Config: cfg, SweepLabel: "CPU nodes"}
	for _, n := range cfg.NodeCounts {
		pt, err := runTimingPoint(cfg, cfg.Env.WithNodeCount(n), float64(n))
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// RunIntervalSweep reproduces Table 2 / Fig. 6: working time vs scheduling
// interval length.
func RunIntervalSweep(cfg TimingConfig) (*TimingResult, error) {
	res := &TimingResult{Config: cfg, SweepLabel: "interval length"}
	for _, h := range cfg.Horizons {
		pt, err := runTimingPoint(cfg, cfg.Env.WithHorizon(h), h)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

func runTimingPoint(cfg TimingConfig, envCfg env.Config, param float64) (*TimingPoint, error) {
	if cfg.Cycles <= 0 {
		return nil, fmt.Errorf("experiments: timing study needs positive cycles, got %d", cfg.Cycles)
	}
	pt := &TimingPoint{Param: param, AlgoSeconds: make(map[string]*metrics.Accumulator)}
	for _, name := range TimedAlgoNames {
		pt.AlgoSeconds[name] = &metrics.Accumulator{}
	}
	rng := randx.New(cfg.Seed ^ uint64(param)*0x9e3779b9)
	algs := standardAlgorithms(cfg.Seed ^ 0x7133)
	csaOpts := csa.Options{MinSlotLength: envCfg.MinSlotLength}

	for cycle := 0; cycle < cfg.Cycles; cycle++ {
		e := env.Generate(envCfg, rng)
		pt.SlotCount.Add(float64(len(e.Slots)))
		req := cfg.Request

		for _, a := range algs {
			start := time.Now()
			_, err := a.Find(e.Slots, &req)
			elapsed := time.Since(start).Seconds()
			if err != nil && !errors.Is(err, core.ErrNoWindow) {
				return nil, fmt.Errorf("experiments: timing %s: %w", a.Name(), err)
			}
			pt.AlgoSeconds[a.Name()].Add(elapsed)
		}

		start := time.Now()
		alts, err := csa.Search(e.Slots, &req, csaOpts, nil)
		elapsed := time.Since(start).Seconds()
		if err != nil && !errors.Is(err, core.ErrNoWindow) {
			return nil, fmt.Errorf("experiments: timing CSA: %w", err)
		}
		pt.AlgoSeconds["CSA"].Add(elapsed)
		pt.CSAAlternatives.Add(float64(len(alts)))
	}
	return pt, nil
}
