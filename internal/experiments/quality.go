// Package experiments reproduces every table and figure of the paper's
// evaluation (§3): the alternative-quality study behind Figs. 2-4 and the
// working-time study behind Tables 1-2 / Figs. 5-6, plus the ablations of
// the reproduction's documented design decisions.
//
// Each experiment is a pure function from a configuration (with an explicit
// seed) to a structured result; rendering to tables/charts is separate, so
// the same code backs the CLI, the benchmarks and the tests.
package experiments

import (
	"errors"
	"fmt"

	"slotsel/internal/core"
	"slotsel/internal/csa"
	"slotsel/internal/env"
	"slotsel/internal/job"
	"slotsel/internal/metrics"
	"slotsel/internal/obs"
	"slotsel/internal/randx"
)

// QualityConfig parametrizes the Figs. 2-4 study: repeated scheduling cycles
// over freshly generated environments, one predefined base job, all
// algorithms searching on the same slot list each cycle.
type QualityConfig struct {
	// Cycles is the number of simulated scheduling cycles (paper: 5000).
	Cycles int

	// Seed drives all randomness; equal seeds reproduce results exactly.
	Seed uint64

	// Env configures environment generation (paper defaults via
	// env.DefaultConfig: 100 nodes, interval [0,600]).
	Env env.Config

	// Request is the base job (paper defaults via job.DefaultRequest:
	// 5 slots x volume 150, budget 1500).
	Request job.Request

	// Collector receives instrumentation events from every search of the
	// study (scan counters, per-algorithm selection stats, spans). nil
	// means observability off. It must be safe for concurrent use when the
	// study runs on RunQualityParallel.
	Collector obs.Collector
}

// DefaultQualityConfig returns the §3.1 experimental setup.
func DefaultQualityConfig() QualityConfig {
	return QualityConfig{
		Cycles:  5000,
		Seed:    1,
		Env:     env.DefaultConfig(),
		Request: job.DefaultRequest(),
	}
}

// WindowStats aggregates the characteristics of the windows found by one
// algorithm across cycles.
type WindowStats struct {
	Name     string
	Found    int
	Missed   int
	Start    metrics.Accumulator
	Runtime  metrics.Accumulator
	Finish   metrics.Accumulator
	ProcTime metrics.Accumulator
	Cost     metrics.Accumulator
}

// Observe records one found window.
func (s *WindowStats) Observe(w *core.Window) {
	s.Found++
	s.Start.Add(w.Start)
	s.Runtime.Add(w.Runtime)
	s.Finish.Add(w.Finish())
	s.ProcTime.Add(w.ProcTime)
	s.Cost.Add(w.Cost)
}

// CSAStats aggregates the CSA scheme's results: the alternative counts and,
// per selection criterion, the criterion value of the best alternative —
// the paper's CSA bars pick the extreme alternative by the figure's own
// criterion, since with CSA the optimization happens at the selection phase.
type CSAStats struct {
	Alternatives metrics.Accumulator
	Best         map[csa.Criterion]*metrics.Accumulator
	// BestWindows aggregates, for each criterion, the full characteristics
	// of the criterion-selected alternative (used by tests and extensions;
	// the paper only reports the criterion's own value).
	BestWindows map[csa.Criterion]*WindowStats
	Missed      int
}

func newCSAStats() *CSAStats {
	s := &CSAStats{
		Best:        make(map[csa.Criterion]*metrics.Accumulator),
		BestWindows: make(map[csa.Criterion]*WindowStats),
	}
	for _, c := range AllCriteria {
		s.Best[c] = &metrics.Accumulator{}
		s.BestWindows[c] = &WindowStats{Name: "CSA/" + c.String()}
	}
	return s
}

// AllCriteria lists the selection criteria of the study in presentation
// order.
var AllCriteria = []csa.Criterion{csa.ByStart, csa.ByFinish, csa.ByCost, csa.ByRuntime, csa.ByProcTime}

// QualityResult is the aggregated outcome of the quality study.
type QualityResult struct {
	Config QualityConfig
	Algos  []*WindowStats // AMP, MinFinish, MinCost, MinRunTime, MinProcTime
	CSA    *CSAStats
}

// AlgoNames lists the single-alternative algorithms of the study in the
// paper's presentation order.
var AlgoNames = []string{"AMP", "MinFinish", "MinCost", "MinRunTime", "MinProcTime"}

// standardAlgorithms instantiates the §3.1 algorithm set; the MinProcTime
// random stream is derived from seed so whole runs stay reproducible.
func standardAlgorithms(seed uint64) []core.Algorithm {
	return []core.Algorithm{
		core.AMP{},
		core.MinFinish{},
		core.MinCost{},
		core.MinRunTime{},
		core.MinProcTime{Seed: seed},
	}
}

// RunQuality executes the quality study and returns the aggregates.
func RunQuality(cfg QualityConfig) (*QualityResult, error) {
	if cfg.Cycles <= 0 {
		return nil, fmt.Errorf("experiments: quality study needs positive cycles, got %d", cfg.Cycles)
	}
	if err := cfg.Request.Validate(); err != nil {
		return nil, err
	}
	rng := randx.New(cfg.Seed)
	res := &QualityResult{Config: cfg, CSA: newCSAStats()}
	stats := make(map[string]*WindowStats)
	algs := standardAlgorithms(cfg.Seed ^ 0x5eed)
	for _, a := range algs {
		st := &WindowStats{Name: a.Name()}
		stats[a.Name()] = st
		res.Algos = append(res.Algos, st)
	}

	csaOpts := csa.Options{MinSlotLength: cfg.Env.MinSlotLength}
	for cycle := 0; cycle < cfg.Cycles; cycle++ {
		e := env.Generate(cfg.Env, rng)
		req := cfg.Request // copy: algorithms must not mutate the request
		for _, a := range algs {
			w, err := core.FindObserved(a, e.Slots, &req, cfg.Collector)
			if errors.Is(err, core.ErrNoWindow) {
				stats[a.Name()].Missed++
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", a.Name(), err)
			}
			stats[a.Name()].Observe(w)
		}
		alts, err := csa.Search(e.Slots, &req, csaOpts, cfg.Collector)
		if errors.Is(err, core.ErrNoWindow) {
			res.CSA.Missed++
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("experiments: CSA: %w", err)
		}
		res.CSA.Alternatives.Add(float64(len(alts)))
		for _, c := range AllCriteria {
			best := csa.Best(alts, c)
			res.CSA.Best[c].Add(c.Value(best))
			res.CSA.BestWindows[c].Observe(best)
		}
	}
	return res, nil
}

// FigureMetric identifies which characteristic a figure reports.
type FigureMetric int

// The five reported characteristics, in figure order.
const (
	MetricStart    FigureMetric = iota // Fig. 2 (a)
	MetricRuntime                      // Fig. 2 (b)
	MetricFinish                       // Fig. 3 (a)
	MetricProcTime                     // Fig. 3 (b)
	MetricCost                         // Fig. 4
)

// String implements fmt.Stringer.
func (m FigureMetric) String() string {
	switch m {
	case MetricStart:
		return "average start time"
	case MetricRuntime:
		return "average runtime"
	case MetricFinish:
		return "average finish time"
	case MetricProcTime:
		return "average CPU usage time"
	case MetricCost:
		return "average job execution cost"
	}
	return "unknown"
}

// Criterion returns the CSA selection criterion matching the metric.
func (m FigureMetric) Criterion() csa.Criterion {
	switch m {
	case MetricStart:
		return csa.ByStart
	case MetricRuntime:
		return csa.ByRuntime
	case MetricFinish:
		return csa.ByFinish
	case MetricProcTime:
		return csa.ByProcTime
	case MetricCost:
		return csa.ByCost
	}
	return csa.ByStart
}

// accumulator returns the per-algorithm accumulator for the metric.
func (m FigureMetric) accumulator(s *WindowStats) *metrics.Accumulator {
	switch m {
	case MetricStart:
		return &s.Start
	case MetricRuntime:
		return &s.Runtime
	case MetricFinish:
		return &s.Finish
	case MetricProcTime:
		return &s.ProcTime
	case MetricCost:
		return &s.Cost
	}
	return nil
}

// FigureValue is one bar of a figure.
type FigureValue struct {
	Algorithm string
	Mean      float64
	StdDev    float64
	Count     int
}

// Figure extracts the bars of one figure from the quality result: the five
// single-alternative algorithms plus the CSA criterion-selected value.
func (r *QualityResult) Figure(m FigureMetric) []FigureValue {
	out := make([]FigureValue, 0, len(r.Algos)+1)
	for _, s := range r.Algos {
		acc := m.accumulator(s)
		out = append(out, FigureValue{Algorithm: s.Name, Mean: acc.Mean(), StdDev: acc.StdDev(), Count: acc.Count()})
	}
	c := m.Criterion()
	acc := r.CSA.Best[c]
	out = append(out, FigureValue{Algorithm: "CSA", Mean: acc.Mean(), StdDev: acc.StdDev(), Count: acc.Count()})
	return out
}
