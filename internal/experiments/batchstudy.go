package experiments

import (
	"fmt"
	"io"

	"slotsel/internal/batchsched"
	"slotsel/internal/core"
	"slotsel/internal/csa"
	"slotsel/internal/env"
	"slotsel/internal/execsim"
	"slotsel/internal/metrics"
	"slotsel/internal/obs"
	"slotsel/internal/randx"
	"slotsel/internal/tablefmt"
	"slotsel/internal/workload"
)

// The batch study exercises the complete two-stage scheduling scheme the
// paper's algorithms were designed for ([6, 7] of the paper): stage-1
// alternative search (CSA) followed by stage-2 combination selection under a
// VO budget, compared against a directed single-alternative pipeline. Every
// resulting plan is verified executable by replaying it on the environment.

// BatchStudyConfig parametrizes the batch study.
type BatchStudyConfig struct {
	Cycles int
	Seed   uint64
	Env    env.Config

	// Jobs is the number of jobs per batch.
	Jobs int

	// VOBudget is the whole-batch budget for stage 2.
	VOBudget float64

	// MaxAlternatives bounds the per-job CSA search.
	MaxAlternatives int

	// Collector receives instrumentation events from all three pipelines
	// (scan counters, batch stats, spans). nil means observability off.
	Collector obs.Collector
}

// DefaultBatchStudyConfig returns a medium batch workload on the §3.1
// environment.
func DefaultBatchStudyConfig() BatchStudyConfig {
	return BatchStudyConfig{
		Cycles:          200,
		Seed:            1,
		Env:             env.DefaultConfig(),
		Jobs:            6,
		VOBudget:        6000,
		MaxAlternatives: 15,
	}
}

// BatchPipelineStats aggregates one scheduling pipeline's outcomes.
type BatchPipelineStats struct {
	Name       string
	Scheduled  metrics.Accumulator // jobs scheduled per cycle
	TotalCost  metrics.Accumulator
	Makespan   metrics.Accumulator
	ReplayFail int // plans that failed execution replay (must stay 0)
}

// BatchStudyResult is the outcome of the batch study.
type BatchStudyResult struct {
	Config    BatchStudyConfig
	Pipelines []*BatchPipelineStats
}

// RunBatchStudy compares the CSA-based two-stage pipeline against two
// directed single-alternative pipelines: stage 1 = one MinCost window per
// job (economy-directed), and stage 1 = one AMP earliest-start window per
// job — the backfilling-like FCFS policy of classic schedulers the paper's
// related work discusses. Per the paper's conclusion, the directed
// alternative search at the first stage visibly shifts the final
// distribution.
func RunBatchStudy(cfg BatchStudyConfig) (*BatchStudyResult, error) {
	if cfg.Cycles <= 0 {
		return nil, fmt.Errorf("experiments: batch study needs positive cycles")
	}
	csaPipe := &BatchPipelineStats{Name: "CSA alternatives + DP selection"}
	directed := &BatchPipelineStats{Name: "directed MinCost single alternative"}
	fcfs := &BatchPipelineStats{Name: "FCFS earliest-start (backfilling-like)"}
	res := &BatchStudyResult{Config: cfg, Pipelines: []*BatchPipelineStats{csaPipe, directed, fcfs}}

	mix := workload.DefaultMix()
	rng := randx.New(cfg.Seed)
	for cycle := 0; cycle < cfg.Cycles; cycle++ {
		e := env.Generate(cfg.Env, rng)
		batch := mix.Batch(rng, cfg.Jobs)

		// Pipeline A: the full two-stage scheme.
		plan, err := batchsched.ScheduleOpts(e.Slots, batch,
			batchsched.Options{
				CSA:       csa.Options{MinSlotLength: cfg.Env.MinSlotLength, MaxAlternatives: cfg.MaxAlternatives},
				Collector: cfg.Collector,
			},
			batchsched.SelectConfig{Budget: cfg.VOBudget, Criterion: csa.ByFinish})
		if err != nil {
			return nil, fmt.Errorf("experiments: batch study CSA pipeline: %w", err)
		}
		observeBatchPlan(csaPipe, e, plan)

		// Pipeline B: directed search — one MinCost window per job in
		// priority order, cutting each allocation, then the same VO budget
		// applied greedily in priority order.
		dPlan, err := batchsched.ScheduleDirected(e.Slots, batch, cfg.VOBudget,
			core.MinCost{}, cfg.Env.MinSlotLength, cfg.Collector)
		if err != nil {
			return nil, fmt.Errorf("experiments: batch study directed pipeline: %w", err)
		}
		observeBatchPlan(directed, e, dPlan)

		// Pipeline C: FCFS earliest-start, the backfilling-like policy.
		fPlan, err := batchsched.ScheduleDirected(e.Slots, batch, cfg.VOBudget,
			core.AMP{}, cfg.Env.MinSlotLength, cfg.Collector)
		if err != nil {
			return nil, fmt.Errorf("experiments: batch study FCFS pipeline: %w", err)
		}
		observeBatchPlan(fcfs, e, fPlan)
	}
	return res, nil
}

func observeBatchPlan(stats *BatchPipelineStats, e *env.Environment, plan *batchsched.Plan) {
	stats.Scheduled.Add(float64(plan.Scheduled))
	if plan.Scheduled > 0 {
		stats.TotalCost.Add(plan.TotalCost)
		stats.Makespan.Add(plan.Makespan())
	}
	var chosen []*core.Window
	for _, a := range plan.Assignments {
		chosen = append(chosen, a.Chosen)
	}
	if _, err := execsim.ReplayPlan(e, chosen); err != nil {
		stats.ReplayFail++
	}
}

// RenderBatchStudy writes the study's comparison table.
func (r *BatchStudyResult) Render(w io.Writer) {
	fmt.Fprintf(w, "batch study: %d cycles, %d jobs/batch, VO budget %.0f\n",
		r.Config.Cycles, r.Config.Jobs, r.Config.VOBudget)
	t := tablefmt.New("pipeline", "scheduled", "total cost", "makespan", "replay failures")
	for _, p := range r.Pipelines {
		t.AddRow(p.Name,
			fmt.Sprintf("%.2f", p.Scheduled.Mean()),
			fmt.Sprintf("%.1f", p.TotalCost.Mean()),
			fmt.Sprintf("%.1f", p.Makespan.Mean()),
			fmt.Sprintf("%d", p.ReplayFail))
	}
	t.Render(w)
	fmt.Fprintln(w)
}
