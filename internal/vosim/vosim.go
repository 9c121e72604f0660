// Package vosim simulates a virtual organization's metascheduler operating
// over many consecutive scheduling cycles — the operational context the
// paper's slot selection algorithms are designed for: during every cycle
// the set of available slots is updated from the local resource managers,
// the batch of pending jobs is scheduled (two-stage scheme), and accepted
// co-allocations become reservations that constrain the following cycles.
//
// The simulation uses a rolling horizon: each cycle looks ahead a fixed
// window, jobs arrive continuously (Poisson), rejected jobs stay in the
// queue and retry, and reservations that extend past the cycle boundary are
// carried into the next cycle's busy timetable.
package vosim

import (
	"fmt"

	"slotsel/internal/batchsched"
	"slotsel/internal/core"
	"slotsel/internal/csa"
	"slotsel/internal/job"
	"slotsel/internal/load"
	"slotsel/internal/metrics"
	"slotsel/internal/nodes"
	"slotsel/internal/randx"
	"slotsel/internal/slots"
	"slotsel/internal/workload"
)

// Config parametrizes the long-run simulation.
type Config struct {
	// Seed drives all randomness.
	Seed uint64

	// Nodes configures the fixed node population.
	Nodes nodes.GenConfig

	// Load configures the local (non-broker) load; local busy intervals are
	// drawn once over the whole simulated timeline.
	Load load.Config

	// Cycles is the number of scheduling cycles to simulate.
	Cycles int

	// CycleAdvance is the wall-clock distance between consecutive cycles.
	CycleAdvance float64

	// Horizon is the lookahead window of each cycle; must be >= CycleAdvance.
	Horizon float64

	// MinSlotLength suppresses uselessly short published slots.
	MinSlotLength float64

	// ArrivalRate is the mean number of jobs arriving per cycle (Poisson).
	ArrivalRate float64

	// MaxRetries drops a job after this many unsuccessful cycles (0 = drop
	// immediately after the first failure).
	MaxRetries int

	// VOBudgetPerCycle caps the total cost of windows accepted in one
	// cycle; <= 0 means unconstrained.
	VOBudgetPerCycle float64

	// MaxAlternatives bounds the per-job CSA search of stage 1.
	MaxAlternatives int

	// Criterion drives the stage-2 combination selection.
	Criterion csa.Criterion

	// Policy selects the per-cycle scheduling pipeline.
	Policy Policy
}

// Policy is the per-cycle scheduling pipeline of the metascheduler.
type Policy int

// The available policies.
const (
	// PolicyTwoStage is the paper's context: CSA alternatives per job plus
	// combination selection by dynamic programming (default).
	PolicyTwoStage Policy = iota

	// PolicyFCFS schedules each job's earliest-start window in priority
	// order — the backfilling-like policy of classic schedulers.
	PolicyFCFS

	// PolicyMinCost schedules each job's cheapest window in priority order.
	PolicyMinCost
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyTwoStage:
		return "two-stage"
	case PolicyFCFS:
		return "fcfs"
	case PolicyMinCost:
		return "mincost"
	}
	return "unknown"
}

// DefaultConfig returns a medium long-run workload on the §3.1 node
// population.
func DefaultConfig() Config {
	return Config{
		Seed:             1,
		Nodes:            nodes.DefaultGenConfig(),
		Load:             load.DefaultConfig(),
		Cycles:           20,
		CycleAdvance:     300,
		Horizon:          600,
		MinSlotLength:    10,
		ArrivalRate:      4,
		MaxRetries:       3,
		VOBudgetPerCycle: 5000,
		MaxAlternatives:  10,
		Criterion:        csa.ByFinish,
	}
}

func (c Config) validate() error {
	if c.Cycles <= 0 {
		return fmt.Errorf("vosim: need positive cycles, got %d", c.Cycles)
	}
	if c.CycleAdvance <= 0 || c.Horizon < c.CycleAdvance {
		return fmt.Errorf("vosim: need 0 < CycleAdvance <= Horizon, got %g / %g", c.CycleAdvance, c.Horizon)
	}
	if c.ArrivalRate < 0 {
		return fmt.Errorf("vosim: negative arrival rate %g", c.ArrivalRate)
	}
	return nil
}

// pendingJob is a queued job with its arrival bookkeeping.
type pendingJob struct {
	job          *job.Job
	arrivalCycle int
	attempts     int
}

// Result aggregates the long-run outcomes.
type Result struct {
	Config Config

	// Submitted, Scheduled and Dropped count jobs over the whole run.
	Submitted, Scheduled, Dropped int

	// QueueLength samples the pending-queue length at each cycle start.
	QueueLength metrics.Accumulator

	// WaitCycles samples, per scheduled job, the number of cycles between
	// arrival and scheduling.
	WaitCycles metrics.Accumulator

	// WindowCost and WindowFinish sample the accepted windows (finish
	// relative to the cycle start).
	WindowCost   metrics.Accumulator
	WindowFinish metrics.Accumulator

	// BrokerUtilization is the fraction of total node-time occupied by
	// broker reservations over the simulated timeline.
	BrokerUtilization float64
}

// AcceptanceRate returns scheduled/submitted (1 for an idle run).
func (r *Result) AcceptanceRate() float64 {
	if r.Submitted == 0 {
		return 1
	}
	return float64(r.Scheduled) / float64(r.Submitted)
}

// Run executes the long-run simulation.
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := randx.New(cfg.Seed)
	ns := nodes.Generate(cfg.Nodes, rng)
	totalSpan := float64(cfg.Cycles)*cfg.CycleAdvance + cfg.Horizon

	// One timetable carries both the local load (drawn once over the whole
	// timeline) and the broker reservations committed cycle by cycle.
	timetable := slots.NewTimetable()
	for _, n := range ns {
		for _, iv := range cfg.Load.BusyIntervals(totalSpan, rng) {
			timetable.Reserve(n.ID, iv)
		}
	}
	brokerTime := 0.0

	res := &Result{Config: cfg}
	mix := workload.DefaultMix()
	var queue []*pendingJob
	nextID := 1

	for cycle := 0; cycle < cfg.Cycles; cycle++ {
		t0 := float64(cycle) * cfg.CycleAdvance
		t1 := t0 + cfg.Horizon

		// Job arrivals for this cycle.
		for i := rng.Poisson(cfg.ArrivalRate); i > 0; i-- {
			queue = append(queue, &pendingJob{job: mix.Job(rng, nextID), arrivalCycle: cycle})
			nextID++
			res.Submitted++
		}
		res.QueueLength.Add(float64(len(queue)))
		if len(queue) == 0 {
			continue
		}

		// Publish the cycle's slot list: free time within [t0, t1) after
		// local load and broker reservations.
		list := timetable.FreeSlots(ns, t0, t1, cfg.MinSlotLength)

		// Schedule the pending batch with the two-stage scheme.
		batch := &job.Batch{}
		byID := make(map[int]*pendingJob, len(queue))
		for _, p := range queue {
			batch.Add(p.job)
			byID[p.job.ID] = p
		}
		var plan *batchsched.Plan
		var err error
		switch cfg.Policy {
		case PolicyFCFS:
			plan, err = batchsched.ScheduleDirected(list, batch, cfg.VOBudgetPerCycle, core.AMP{}, cfg.MinSlotLength, nil)
		case PolicyMinCost:
			plan, err = batchsched.ScheduleDirected(list, batch, cfg.VOBudgetPerCycle, core.MinCost{}, cfg.MinSlotLength, nil)
		default:
			plan, err = batchsched.Schedule(list, batch,
				csa.Options{MinSlotLength: cfg.MinSlotLength, MaxAlternatives: cfg.MaxAlternatives},
				batchsched.SelectConfig{Budget: cfg.VOBudgetPerCycle, Criterion: cfg.Criterion})
		}
		if err != nil {
			return nil, fmt.Errorf("vosim: cycle %d (%s policy): %w", cycle, cfg.Policy, err)
		}

		// Commit accepted windows; retry or drop the rest.
		scheduled := make(map[int]bool)
		for _, a := range plan.Assignments {
			if a.Chosen == nil {
				continue
			}
			scheduled[a.Job.ID] = true
			res.Scheduled++
			res.WaitCycles.Add(float64(cycle - byID[a.Job.ID].arrivalCycle))
			res.WindowCost.Add(a.Chosen.Cost)
			res.WindowFinish.Add(a.Chosen.Finish() - t0)
			used := a.Chosen.UsedIntervals()
			timetable.ReserveAll(used)
			for _, ivs := range used {
				for _, iv := range ivs {
					brokerTime += iv.Length()
				}
			}
		}
		var remaining []*pendingJob
		for _, p := range queue {
			if scheduled[p.job.ID] {
				continue
			}
			p.attempts++
			if p.attempts > cfg.MaxRetries {
				res.Dropped++
				continue
			}
			remaining = append(remaining, p)
		}
		queue = remaining
	}
	res.Dropped += len(queue) // still pending at shutdown
	if capacity := float64(len(ns)) * totalSpan; capacity > 0 {
		res.BrokerUtilization = brokerTime / capacity
	}
	return res, nil
}
