package workload

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"slotsel/internal/randx"
)

func validStream() Stream {
	return Stream{Mix: DefaultMix(), Rate: 2, DeadlineMin: 50, DeadlineMax: 200}
}

func TestStreamValidate(t *testing.T) {
	if err := validStream().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Stream){
		func(s *Stream) { s.Rate = 0 },
		func(s *Stream) { s.Rate = -1 },
		func(s *Stream) { s.Rate = math.NaN() },
		func(s *Stream) { s.Rate = math.Inf(1) },
		func(s *Stream) { s.DeadlineMin = -1 },
		func(s *Stream) { s.DeadlineMax = s.DeadlineMin - 1 },
		func(s *Stream) { s.Mix.TasksMin = 0 },
	}
	for i, mutate := range cases {
		s := validStream()
		mutate(&s)
		if s.Validate() == nil {
			t.Errorf("case %d: invalid stream accepted", i)
		}
	}
}

// TestStreamArrivalRate: the realized arrival count and mean interarrival
// gap of a long trace must track the declared Poisson rate.
func TestStreamArrivalRate(t *testing.T) {
	const (
		rate    = 2.0
		horizon = 20000.0
	)
	s := Stream{Mix: DefaultMix(), Rate: rate}
	arr := s.Arrivals(randx.New(11), horizon)

	want := rate * horizon
	if n := float64(len(arr)); math.Abs(n-want) > 0.05*want {
		t.Fatalf("arrival count %d, want %g +- 5%%", len(arr), want)
	}
	// Mean interarrival gap ~ 1/rate.
	var gaps float64
	prev := 0.0
	for _, a := range arr {
		gaps += a.At - prev
		prev = a.At
	}
	mean := gaps / float64(len(arr))
	if math.Abs(mean-1/rate) > 0.05/rate {
		t.Fatalf("mean interarrival %g, want %g +- 5%%", mean, 1/rate)
	}
}

// TestStreamArrivalsOrdered: arrival times are strictly increasing, inside
// [0, horizon), and IDs are increasing (stable through thinning).
func TestStreamArrivalsOrdered(t *testing.T) {
	check := func(seed uint64) bool {
		s := validStream()
		arr := s.Arrivals(randx.New(seed), 500)
		prevAt, prevID := 0.0, 0
		for _, a := range arr {
			if a.At <= prevAt || a.At >= 500 {
				return false
			}
			if a.Job.ID <= prevID {
				return false
			}
			prevAt, prevID = a.At, a.Job.ID
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestStreamDeadlineDistribution: every relative deadline lies in the
// declared range and their mean sits at its midpoint.
func TestStreamDeadlineDistribution(t *testing.T) {
	s := validStream()
	arr := s.Arrivals(randx.New(7), 10000)
	if len(arr) < 1000 {
		t.Fatalf("only %d arrivals; trace too short for a distribution check", len(arr))
	}
	var sum float64
	for _, a := range arr {
		rel := a.Job.Request.Deadline - a.At
		if rel < s.DeadlineMin-1e-9 || rel > s.DeadlineMax+1e-9 {
			t.Fatalf("relative deadline %g outside [%g, %g]", rel, s.DeadlineMin, s.DeadlineMax)
		}
		sum += rel
	}
	mid := (s.DeadlineMin + s.DeadlineMax) / 2
	if mean := sum / float64(len(arr)); math.Abs(mean-mid) > 0.05*mid {
		t.Fatalf("mean relative deadline %g, want ~%g", mean, mid)
	}
}

// TestStreamNoDeadlines: a zero deadline range leaves requests
// unconstrained.
func TestStreamNoDeadlines(t *testing.T) {
	s := Stream{Mix: DefaultMix(), Rate: 1}
	for _, a := range s.Arrivals(randx.New(3), 1000) {
		if a.Job.Request.Deadline != 0 {
			t.Fatalf("deadline %g on a deadline-free stream", a.Job.Request.Deadline)
		}
	}
}

// TestStreamBudgetDistribution: every arriving job's budget respects the
// mix's S = F*t*n formula (implied per-unit price inside the declared cap
// range), and the implied price's mean sits at the range midpoint.
func TestStreamBudgetDistribution(t *testing.T) {
	s := Stream{Mix: DefaultMix(), Rate: 1}
	arr := s.Arrivals(randx.New(5), 5000)
	if len(arr) < 1000 {
		t.Fatalf("only %d arrivals", len(arr))
	}
	var sum float64
	for _, a := range arr {
		r := a.Job.Request
		reservation := r.Volume / s.Mix.ReservationPerf
		implied := r.MaxCost / (reservation * float64(r.TaskCount))
		if implied < s.Mix.PriceCapMin-1e-9 || implied > s.Mix.PriceCapMax+1e-9 {
			t.Fatalf("implied price cap %g outside [%g, %g]", implied, s.Mix.PriceCapMin, s.Mix.PriceCapMax)
		}
		sum += implied
	}
	mid := (s.Mix.PriceCapMin + s.Mix.PriceCapMax) / 2
	if mean := sum / float64(len(arr)); math.Abs(mean-mid) > 0.05*mid {
		t.Fatalf("mean implied price cap %g, want ~%g", mean, mid)
	}
}

// TestStreamThinning: a constant Shape of 0.5 halves the realized rate;
// a Shape of 0 silences the stream entirely.
func TestStreamThinning(t *testing.T) {
	const horizon = 20000.0
	half := Stream{Mix: DefaultMix(), Rate: 1, Shape: func(float64) float64 { return 0.5 }}
	n := float64(len(half.Arrivals(randx.New(9), horizon)))
	want := 0.5 * horizon
	if math.Abs(n-want) > 0.07*want {
		t.Fatalf("thinned arrival count %g, want %g +- 7%%", n, want)
	}
	mute := Stream{Mix: DefaultMix(), Rate: 1, Shape: func(float64) float64 { return 0 }}
	if arr := mute.Arrivals(randx.New(9), 1000); len(arr) != 0 {
		t.Fatalf("zero-shape stream produced %d arrivals", len(arr))
	}
}

// TestDiurnalShape: floor at the cycle edges, peak of 1 at mid-cycle,
// always within [floor, 1].
func TestDiurnalShape(t *testing.T) {
	const period, floor = 100.0, 0.1
	shape := DiurnalShape(period, floor)
	if got := shape(0); math.Abs(got-floor) > 1e-9 {
		t.Fatalf("shape(0) = %g, want floor %g", got, floor)
	}
	if got := shape(period / 2); math.Abs(got-1) > 1e-9 {
		t.Fatalf("shape(period/2) = %g, want 1", got)
	}
	for x := 0.0; x <= period; x += period / 64 {
		if v := shape(x); v < floor-1e-9 || v > 1+1e-9 {
			t.Fatalf("shape(%g) = %g outside [%g, 1]", x, v, floor)
		}
	}
	// Degenerate period: constant full rate.
	if got := DiurnalShape(0, 0.5)(42); got != 1 {
		t.Fatalf("zero-period shape = %g, want 1", got)
	}
}

// TestStreamNextMatchesDistributions: the streaming form draws from the
// same distributions as the batch form — gaps exponential with mean
// 1/rate, deadlines relative to the running arrival time.
func TestStreamNextMatchesDistributions(t *testing.T) {
	s := validStream()
	rng := randx.New(21)
	at, n := 0.0, 20000
	var gapSum float64
	for i := 1; i <= n; i++ {
		gap, a := s.Next(rng, at, i)
		if gap <= 0 {
			t.Fatalf("non-positive gap %g", gap)
		}
		at += gap
		if math.Abs(a.At-at) > 1e-9 {
			t.Fatalf("arrival time %g, want %g", a.At, at)
		}
		rel := a.Job.Request.Deadline - a.At
		if rel < s.DeadlineMin-1e-9 || rel > s.DeadlineMax+1e-9 {
			t.Fatalf("relative deadline %g outside [%g, %g]", rel, s.DeadlineMin, s.DeadlineMax)
		}
		gapSum += gap
	}
	mean := gapSum / float64(n)
	if math.Abs(mean-1/s.Rate) > 0.05/s.Rate {
		t.Fatalf("mean gap %g, want %g +- 5%%", mean, 1/s.Rate)
	}
}

// Validate reports structural problems with the stream.
func (s Stream) Validate() error {
	if err := s.Mix.Validate(); err != nil {
		return err
	}
	if s.Rate <= 0 || math.IsNaN(s.Rate) || math.IsInf(s.Rate, 0) {
		return fmt.Errorf("workload: invalid arrival rate %g", s.Rate)
	}
	if s.DeadlineMin < 0 || s.DeadlineMax < s.DeadlineMin {
		return fmt.Errorf("workload: invalid deadline range [%g, %g]", s.DeadlineMin, s.DeadlineMax)
	}
	return nil
}

// Arrivals draws the stream over [0, horizon). Generation is deterministic
// given rng's state. Thinning uses the standard acceptance draw, so a
// Shape changes which arrivals survive but not the underlying process.
func (s Stream) Arrivals(rng *randx.Rand, horizon float64) []Arrival {
	if horizon <= 0 {
		return nil
	}
	var out []Arrival
	t := 0.0
	for id := 1; ; id++ {
		t += rng.Exp(s.Rate)
		if t >= horizon {
			return out
		}
		if s.Shape != nil && !rng.Bernoulli(clamp01(s.Shape(t))) {
			continue
		}
		j := s.Mix.Job(rng, id)
		if s.DeadlineMax > 0 {
			j.Request.Deadline = t + rng.FloatRange(s.DeadlineMin, s.DeadlineMax)
		}
		out = append(out, Arrival{At: t, Job: j})
	}
}
