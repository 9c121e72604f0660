// Package batchsched completes the two-stage scheduling scheme the paper's
// slot selection algorithms plug into (references [6, 7] of the paper):
//
//	stage 1 — for every job of the batch, in priority order, find a set of
//	          alternative windows (CSA over a shared slot list, cutting each
//	          found alternative so ALL alternatives of ALL jobs are pairwise
//	          disjoint by slots);
//	stage 2 — choose one alternative per job so that the whole-batch
//	          criterion is optimized under the VO budget (dynamic
//	          programming over a discretized budget).
//
// Disjointness established at stage 1 means any stage-2 combination is
// conflict-free, which is what makes the combination selection a clean
// knapsack-style problem.
package batchsched

import (
	"errors"
	"fmt"
	"math"
	"time"

	"slotsel/internal/core"
	"slotsel/internal/csa"
	"slotsel/internal/job"
	"slotsel/internal/obs"
	"slotsel/internal/slots"
)

// JobAlternatives is the stage-1 output for one job.
type JobAlternatives struct {
	Job  *job.Job
	Alts []*core.Window
}

// Options configures the stage-1 alternative search.
type Options struct {
	// CSA configures the per-job CSA searches (alternative bound, minimum
	// slot length for remainder suppression when cutting).
	CSA csa.Options

	// Collector receives instrumentation events from the stage-1 search
	// (scan counters, spans, one BatchDone). nil means observability off,
	// at no cost.
	Collector obs.Collector
}

// FindAlternatives runs stage 1: CSA per job in priority order over one
// working copy of the list, cutting every found alternative so all
// alternatives of all jobs are pairwise disjoint by slots. Jobs for which no
// window exists get an empty alternative set (the caller decides whether
// that is an error); the first job, in priority order, whose search fails
// otherwise is the error.
//
// The list is copied once, into a scanner, and every alternative is cut out
// of that copy exactly once, in place: a job's search starts from what the
// jobs before it left. The input list is not modified.
func FindAlternatives(list slots.List, batch *job.Batch, opts Options) ([]JobAlternatives, error) {
	col := opts.Collector
	var begin time.Duration
	if col != nil {
		begin = obs.Now()
	}
	ordered := batch.ByPriority()
	st := obs.BatchStats{Jobs: len(ordered)}
	sc := core.AcquireScanner()
	defer core.ReleaseScanner(sc)
	sc.LoadWork(list.Cursor())
	out := make([]JobAlternatives, len(ordered))
	for i, j := range ordered {
		alts, err := sc.WorkAlternatives(&j.Request, opts.CSA.MaxAlternatives, opts.CSA.MinSlotLength, col)
		if err != nil && !errors.Is(err, core.ErrNoWindow) {
			return nil, fmt.Errorf("batchsched: job %v: %w", j, err)
		}
		out[i] = JobAlternatives{Job: j, Alts: alts}
		st.AltsFound += len(alts)
	}
	if col != nil {
		st.CutOps = st.AltsFound // every alternative found was cut, once
		st.Elapsed = obs.Now() - begin
		col.BatchDone(st)
	}
	return out, nil
}

// Assignment is a stage-2 result: the chosen alternative per job (nil when
// the job was left unscheduled).
type Assignment struct {
	Job    *job.Job
	Chosen *core.Window
}

// Plan is the complete batch schedule.
type Plan struct {
	Assignments []Assignment

	// TotalCost is the summed cost of the chosen alternatives.
	TotalCost float64

	// TotalValue is the summed criterion value of the chosen alternatives
	// plus the rejection penalties of unscheduled jobs.
	TotalValue float64

	// Scheduled is the number of jobs that received a window.
	Scheduled int
}

// Makespan returns the latest finish among the scheduled jobs (0 when none).
func (p *Plan) Makespan() float64 {
	m := 0.0
	for _, a := range p.Assignments {
		if a.Chosen != nil && a.Chosen.Finish() > m {
			m = a.Chosen.Finish()
		}
	}
	return m
}

// SelectConfig parametrizes the stage-2 combination selection.
type SelectConfig struct {
	// Budget is the VO budget over the whole batch; <= 0 means
	// unconstrained.
	Budget float64

	// Criterion is the per-window value to minimize across the batch.
	Criterion csa.Criterion

	// RejectPenalty is added to the objective for every unscheduled job; it
	// must exceed any realistic window value so that scheduling a job is
	// always preferred when the budget allows.
	RejectPenalty float64

	// BudgetSteps discretizes the budget axis of the DP (default 1000).
	// Costs are rounded UP to the grid, so the budget is never exceeded.
	BudgetSteps int
}

// SelectCombination runs stage 2: a dynamic program over (job index, budget
// grid) choosing at most one alternative per job, minimizing the total
// criterion value plus rejection penalties, subject to the VO budget.
//
// Complexity O(jobs x alternatives x BudgetSteps).
func SelectCombination(alts []JobAlternatives, cfg SelectConfig) (*Plan, error) {
	if cfg.RejectPenalty <= 0 {
		cfg.RejectPenalty = 1e9
	}
	steps := cfg.BudgetSteps
	if steps <= 0 {
		steps = 1000
	}
	if cfg.Budget <= 0 {
		return selectUnconstrained(alts, cfg), nil
	}
	unit := cfg.Budget / float64(steps)

	// costGrid rounds a cost up to grid units so a feasible DP path never
	// exceeds the real budget.
	costGrid := func(c float64) int {
		return int(math.Ceil(c/unit - 1e-12))
	}

	const inf = math.MaxFloat64 / 4
	nJobs := len(alts)
	// dp[b] = minimal objective using the jobs processed so far with total
	// grid cost exactly <= b. choice[i][b] records the alternative index
	// taken for job i at budget b (-1 = rejected).
	dp := make([]float64, steps+1)
	next := make([]float64, steps+1)
	choice := make([][]int, nJobs)

	for i := range dp {
		dp[i] = 0
	}
	for i, ja := range alts {
		choice[i] = make([]int, steps+1)
		for b := 0; b <= steps; b++ {
			// Option: reject the job.
			best := dp[b] + cfg.RejectPenalty
			bestChoice := -1
			for ai, w := range ja.Alts {
				gc := costGrid(w.Cost)
				if gc > b {
					continue
				}
				v := dp[b-gc] + cfg.Criterion.Value(w)
				if v < best {
					best = v
					bestChoice = ai
				}
			}
			next[b] = best
			choice[i][b] = bestChoice
		}
		dp, next = next, dp
	}

	// Trace back from the full budget.
	plan := &Plan{Assignments: make([]Assignment, nJobs)}
	b := steps
	for i := nJobs - 1; i >= 0; i-- {
		ai := choice[i][b]
		plan.Assignments[i] = Assignment{Job: alts[i].Job}
		if ai >= 0 {
			w := alts[i].Alts[ai]
			plan.Assignments[i].Chosen = w
			plan.TotalCost += w.Cost
			plan.TotalValue += cfg.Criterion.Value(w)
			plan.Scheduled++
			b -= costGrid(w.Cost)
		} else {
			plan.TotalValue += cfg.RejectPenalty
		}
	}
	if plan.TotalCost > cfg.Budget*(1+1e-9) {
		return nil, fmt.Errorf("batchsched: internal error: plan cost %.4f exceeds budget %.4f", plan.TotalCost, cfg.Budget)
	}
	return plan, nil
}

// selectUnconstrained picks the per-job minimum-criterion alternative when
// no VO budget applies.
func selectUnconstrained(alts []JobAlternatives, cfg SelectConfig) *Plan {
	plan := &Plan{Assignments: make([]Assignment, len(alts))}
	for i, ja := range alts {
		plan.Assignments[i] = Assignment{Job: ja.Job}
		if best := csa.Best(ja.Alts, cfg.Criterion); best != nil {
			plan.Assignments[i].Chosen = best
			plan.TotalCost += best.Cost
			plan.TotalValue += cfg.Criterion.Value(best)
			plan.Scheduled++
		} else {
			plan.TotalValue += cfg.RejectPenalty
		}
	}
	return plan
}

// Schedule runs both stages with the given CSA options and returns the
// plan: ScheduleOpts without a collector.
func Schedule(list slots.List, batch *job.Batch, csaOpts csa.Options, sel SelectConfig) (*Plan, error) {
	return ScheduleOpts(list, batch, Options{CSA: csaOpts}, sel)
}

// ScheduleOpts runs both stages with full stage-1 options and returns the
// plan.
func ScheduleOpts(list slots.List, batch *job.Batch, opts Options, sel SelectConfig) (*Plan, error) {
	alts, err := FindAlternatives(list, batch, opts)
	if err != nil {
		return nil, err
	}
	return SelectCombination(alts, sel)
}

// ScheduleDirected is the single-alternative pipeline: each job (priority
// order) gets one window found by alg on the remaining slots, accepted
// while the VO budget lasts, with its allocation cut before the next job.
// With core.AMP it is the FCFS earliest-start (backfilling-like) policy;
// with core.MinCost the economy-directed one. minSlotLength controls
// remainder suppression when cutting. Every job's search reports to col
// (nil = off).
//
// Like FindAlternatives it searches and cuts one scanner working copy of
// the list. alg must place its windows on slots of the list it is handed
// (every Algorithm of this module does): that is how the cut finds them.
func ScheduleDirected(list slots.List, batch *job.Batch, voBudget float64, alg core.Algorithm, minSlotLength float64, col obs.Collector) (*Plan, error) {
	sc := core.AcquireScanner()
	defer core.ReleaseScanner(sc)
	sc.LoadWork(list.Cursor())
	plan := &Plan{}
	remaining := voBudget
	for _, j := range batch.ByPriority() {
		req := j.Request
		if voBudget > 0 && (req.MaxCost <= 0 || req.MaxCost > remaining) {
			req.MaxCost = remaining
		}
		a := Assignment{Job: j}
		w, err := sc.Find(alg, sc.WorkCursor(), &req, col)
		if err != nil && !errors.Is(err, core.ErrNoWindow) {
			return nil, fmt.Errorf("batchsched: directed pipeline, job %v: %w", j, err)
		}
		if err == nil && (voBudget <= 0 || w.Cost <= remaining) {
			// Detach before cutting: the window aliases the working slots
			// the cut edits.
			a.Chosen = w.DetachDeep()
			plan.TotalCost += w.Cost
			plan.Scheduled++
			remaining -= w.Cost
			sc.CutWork(w, minSlotLength)
		}
		plan.Assignments = append(plan.Assignments, a)
	}
	return plan, nil
}
