package metrics

import (
	"math"
	"sort"
	"testing"

	"slotsel/internal/randx"
)

func TestReservoirBelowCapacityIsExact(t *testing.T) {
	r := NewReservoir(100, 1)
	var exact Sample
	rng := randx.New(7)
	for i := 0; i < 100; i++ {
		x := rng.Float64()
		r.Add(x)
		exact.Add(x)
	}
	if r.Count() != 100 || r.Retained() != 100 {
		t.Fatalf("Count=%d Retained=%d, want 100/100", r.Count(), r.Retained())
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 1} {
		if got, want := r.Quantile(q), exact.Quantile(q); got != want {
			t.Errorf("q=%.2f: reservoir %v != exact %v below capacity", q, got, want)
		}
	}
}

func TestReservoirCountsAndDeterminism(t *testing.T) {
	a, b := NewReservoir(50, 42), NewReservoir(50, 42)
	for i := 0; i < 1000; i++ {
		a.Add(float64(i))
		b.Add(float64(i))
	}
	if a.Count() != 1000 {
		t.Errorf("Count = %d, want the full stream length 1000", a.Count())
	}
	if a.Retained() != 50 {
		t.Errorf("Retained = %d, want the capacity 50", a.Retained())
	}
	for _, q := range []float64{0.1, 0.5, 0.9} {
		if a.Quantile(q) != b.Quantile(q) {
			t.Errorf("same seed, different reservoir at q=%.1f", q)
		}
	}
}

func TestReservoirInclusionIsUniform(t *testing.T) {
	// Algorithm R retains each stream element with probability cap/n. Track
	// how often the FIRST element (easiest to displace) and the LAST element
	// survive over many independently seeded reservoirs.
	const cap, n, trials = 20, 400, 3000
	firstKept, lastKept := 0, 0
	for seed := uint64(0); seed < trials; seed++ {
		r := NewReservoir(cap, seed)
		for i := 0; i < n; i++ {
			r.Add(float64(i))
		}
		for _, x := range r.xs {
			if x == 0 {
				firstKept++
			}
			if x == n-1 {
				lastKept++
			}
		}
	}
	want := float64(cap) / n // 0.05
	// Binomial(3000, 0.05) has σ≈12; allow ±5σ around the 150 expectation.
	for name, got := range map[string]int{"first": firstKept, "last": lastKept} {
		p := float64(got) / trials
		if math.Abs(p-want) > 0.02 {
			t.Errorf("%s element kept with frequency %.4f, want %.4f ± 0.02", name, p, want)
		}
	}
}

// TestReservoirQuantileError is the satellite's property test: on long
// streams from different distributions, the rank error of every reservoir
// quantile estimate must stay within the sampling-theory bound. For a
// reservoir of k uniform samples the estimated q-quantile's CDF position has
// standard error sqrt(q(1-q)/k) — about 0.011 at the median for k = 2000 —
// so a 0.05 tolerance is > 4 sigma. The generators are deterministic and
// stable across Go releases, so this does not flake.
func TestReservoirQuantileError(t *testing.T) {
	const streamLen = 20000
	const cap = 2000
	dists := map[string]func(*randx.Rand) float64{
		"uniform":     func(r *randx.Rand) float64 { return r.Float64() },
		"exponential": func(r *randx.Rand) float64 { return r.Exp(0.5) },
		"normal":      func(r *randx.Rand) float64 { return r.Normal(100, 15) },
		"bimodal": func(r *randx.Rand) float64 {
			if r.Bernoulli(0.3) {
				return r.Normal(10, 1)
			}
			return r.Normal(50, 5)
		},
	}
	for name, draw := range dists {
		for seed := uint64(1); seed <= 3; seed++ {
			rng := randx.New(seed * 977)
			res := NewReservoir(cap, seed)
			stream := make([]float64, 0, streamLen)
			for i := 0; i < streamLen; i++ {
				x := draw(rng)
				res.Add(x)
				stream = append(stream, x)
			}
			if res.Retained() != cap || res.Count() != streamLen {
				t.Fatalf("%s/seed %d: Retained=%d Count=%d", name, seed, res.Retained(), res.Count())
			}
			sort.Float64s(stream)
			for _, q := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
				est := res.Quantile(q)
				// Rank error: where the estimate actually sits in the
				// exact empirical CDF of the full stream.
				rank := float64(sort.SearchFloat64s(stream, est)) / float64(streamLen)
				if math.Abs(rank-q) > 0.05 {
					t.Errorf("%s/seed %d q=%.2f: estimate %.4f sits at exact rank %.4f (error %.4f)",
						name, seed, q, est, rank, math.Abs(rank-q))
				}
			}
		}
	}
}

func TestNewReservoirPanicsOnBadCapacity(t *testing.T) {
	for _, cap := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewReservoir(%d) did not panic", cap)
				}
			}()
			NewReservoir(cap, 1)
		}()
	}
}

// Retained returns the number of observations currently held (equal to
// Count for an unbounded sample, at most the capacity for a reservoir).
func (s *Sample) Retained() int { return len(s.xs) }
