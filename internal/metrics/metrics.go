// Package metrics provides the streaming statistics used to aggregate
// experiment results over thousands of simulated scheduling cycles: mean and
// variance via Welford's algorithm, extrema, and quantiles over retained
// samples.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"slotsel/internal/randx"
)

// Accumulator aggregates a stream of float64 observations. The zero value is
// ready to use.
type Accumulator struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add records one observation.
func (a *Accumulator) Add(x float64) {
	if a.n == 0 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	a.n++
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// Count returns the number of observations.
func (a *Accumulator) Count() int { return a.n }

// Mean returns the running mean (0 for an empty accumulator).
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the unbiased sample variance.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Merge folds another accumulator into this one (parallel Welford merge).
func (a *Accumulator) Merge(b *Accumulator) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *b
		return
	}
	n := a.n + b.n
	delta := b.mean - a.mean
	mean := a.mean + delta*float64(b.n)/float64(n)
	m2 := a.m2 + b.m2 + delta*delta*float64(a.n)*float64(b.n)/float64(n)
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
	a.n, a.mean, a.m2 = n, mean, m2
}

// Summary is a snapshot of an accumulator's statistics.
type Summary struct {
	Count        int
	Mean, StdDev float64
	Min, Max     float64
}

// Summary returns a snapshot of the accumulator.
func (a *Accumulator) Summary() Summary {
	return Summary{Count: a.n, Mean: a.Mean(), StdDev: a.StdDev(), Min: a.min, Max: a.max}
}

// String implements fmt.Stringer.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f sd=%.3f min=%.3f max=%.3f", s.Count, s.Mean, s.StdDev, s.Min, s.Max)
}

// Sample retains observations for quantile queries. The zero value retains
// everything; NewReservoir returns a bounded variant that keeps a uniform
// random subset of a stream of any length.
type Sample struct {
	xs     []float64
	sorted bool
	seen   int
	limit  int // 0 = unbounded
	rng    *randx.Rand
}

// NewReservoir returns a Sample that retains at most capacity observations,
// chosen uniformly from the whole stream by Algorithm R reservoir sampling.
// Quantiles computed from the reservoir are unbiased estimates of the
// stream's quantiles; the seed makes the retained subset deterministic. It
// panics on a non-positive capacity.
func NewReservoir(capacity int, seed uint64) *Sample {
	if capacity <= 0 {
		panic("metrics: NewReservoir needs a positive capacity")
	}
	return &Sample{limit: capacity, rng: randx.New(seed)}
}

// Add records one observation. In reservoir mode a full sample replaces a
// random retained element with probability capacity/seen.
func (s *Sample) Add(x float64) {
	s.seen++
	if s.limit <= 0 || len(s.xs) < s.limit {
		s.xs = append(s.xs, x)
		s.sorted = false
		return
	}
	if j := s.rng.Intn(s.seen); j < s.limit {
		s.xs[j] = x
		s.sorted = false
	}
}

// Count returns the number of observations added, including those a bounded
// reservoir no longer retains.
func (s *Sample) Count() int { return s.seen }

// Quantile returns the q-quantile (0 <= q <= 1) by linear interpolation
// between order statistics; 0 for an empty sample.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	if q <= 0 {
		return s.xs[0]
	}
	if q >= 1 {
		return s.xs[len(s.xs)-1]
	}
	pos := q * float64(len(s.xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.xs[lo]
	}
	frac := pos - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}
