package workload

import (
	"math"

	"slotsel/internal/job"
	"slotsel/internal/randx"
)

// Stream layers a continuous arrival process over a JobMix: instead of a
// batch drawn all at once, jobs arrive one by one over virtual time, the
// way Casanova et al.'s non-batch load and Buyya et al.'s
// deadline-and-budget constrained task farms reach a production broker.
//
// Arrivals follow a Poisson process of mean Rate jobs per time unit
// (exponential interarrival gaps), optionally thinned by a Shape function
// so the instantaneous rate can follow a diurnal curve or a flash-crowd
// spike. Each arriving job is drawn from Mix; when a deadline range is
// declared the job's request additionally carries an absolute deadline of
// arrival time plus a uniform draw from [DeadlineMin, DeadlineMax] — the
// Buyya-style farm where every task must finish within its own window.
type Stream struct {
	// Mix is the per-job distribution (task count, volume, budget).
	Mix JobMix

	// Rate is the mean arrival rate in jobs per time unit (the peak rate
	// when Shape is set). Must be positive.
	Rate float64

	// DeadlineMin and DeadlineMax bound the relative deadline drawn
	// uniformly for each job and added to its arrival time. Both zero
	// means no deadlines.
	DeadlineMin, DeadlineMax float64

	// Shape, when non-nil, maps a time in [0, horizon) to a rate
	// multiplier in [0, 1]; arrivals are thinned accordingly, so the
	// instantaneous rate at time t is Rate*Shape(t). nil means the
	// constant peak rate. Next draws the unthinned process: a real-time
	// driver thins by its own clock, as slotlab's diurnal scenario does.
	Shape func(t float64) float64
}

// Arrival is one job arriving at a point in virtual time.
type Arrival struct {
	// At is the arrival time since the stream's start.
	At float64

	// Job is the arriving job; its ID is the 1-based arrival index over
	// the whole (unthinned) process, so IDs stay stable when a Shape
	// thins the stream.
	Job *job.Job
}

// Next draws a single interarrival gap and job, for drivers that pace
// themselves in real time rather than materializing a whole trace. The
// returned gap is the wait before the job arrives at virtual time `at`.
func (s Stream) Next(rng *randx.Rand, at float64, id int) (gap float64, a Arrival) {
	gap = rng.Exp(s.Rate)
	at += gap
	j := s.Mix.Job(rng, id)
	if s.DeadlineMax > 0 {
		j.Request.Deadline = at + rng.FloatRange(s.DeadlineMin, s.DeadlineMax)
	}
	return gap, Arrival{At: at, Job: j}
}

// DiurnalShape returns a Shape tracing one smooth day-night cycle of the
// given period: 1 at mid-"day" (t = period/2), floor at "midnight"
// (t = 0 and t = period). floor keeps the night-time rate positive so the
// stream never fully stalls; it is clamped into [0, 1].
func DiurnalShape(period, floor float64) func(t float64) float64 {
	floor = clamp01(floor)
	return func(t float64) float64 {
		if period <= 0 {
			return 1
		}
		day := 0.5 * (1 - math.Cos(2*math.Pi*t/period))
		return floor + (1-floor)*day
	}
}

func clamp01(x float64) float64 {
	if x < 0 || math.IsNaN(x) {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
