// Package workload generates mixed job workloads for batch- and long-run
// experiments: jobs with varied parallelism, volume and priority, budgeted
// through the paper's S = F*t*n formula with a per-unit price cap drawn
// around the market level of the default pricing model.
package workload

import (
	"slotsel/internal/job"
	"slotsel/internal/randx"
)

// JobMix describes the distribution jobs are drawn from.
type JobMix struct {
	// TasksMin and TasksMax bound the parallel slot count (uniform).
	TasksMin, TasksMax int

	// VolumeMin and VolumeMax bound the per-task volume (uniform integer).
	VolumeMin, VolumeMax int

	// PriceCapMin and PriceCapMax bound the per-unit price cap F in
	// S = F*t*n. The default pricing model prices a mid-market node
	// (perf 4) at about 7 per unit, so the default range [6, 10] spans
	// tight-to-comfortable budgets.
	PriceCapMin, PriceCapMax float64

	// ReservationPerf is the node performance at which the reservation
	// time t of the budget formula is estimated: t = volume /
	// ReservationPerf.
	ReservationPerf float64

	// PriorityMin and PriorityMax bound the job priority (uniform).
	PriorityMin, PriorityMax int
}

// DefaultMix returns the mixed workload used by the batch and long-run
// studies.
func DefaultMix() JobMix {
	return JobMix{
		TasksMin: 2, TasksMax: 7,
		VolumeMin: 60, VolumeMax: 200,
		PriceCapMin: 6, PriceCapMax: 10,
		ReservationPerf: 4,
		PriorityMin:     1, PriorityMax: 3,
	}
}

// Job draws one job with the given ID.
func (m JobMix) Job(rng *randx.Rand, id int) *job.Job {
	tasks := rng.IntRange(m.TasksMin, m.TasksMax)
	volume := float64(rng.IntRange(m.VolumeMin, m.VolumeMax))
	cap := rng.FloatRange(m.PriceCapMin, m.PriceCapMax)
	prio := m.PriorityMin
	if m.PriorityMax > m.PriorityMin {
		prio = rng.IntRange(m.PriorityMin, m.PriorityMax)
	}
	return &job.Job{
		ID:       id,
		Priority: prio,
		Request: job.Request{
			TaskCount: tasks,
			Volume:    volume,
			MaxCost:   job.BudgetFromPrice(cap, volume/m.ReservationPerf, tasks),
		},
	}
}

// Batch draws a batch of count jobs with IDs 1..count.
func (m JobMix) Batch(rng *randx.Rand, count int) *job.Batch {
	b := &job.Batch{}
	for i := 0; i < count; i++ {
		b.Add(m.Job(rng, i+1))
	}
	return b
}
