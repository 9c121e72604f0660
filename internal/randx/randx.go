// Package randx provides the deterministic random number generation and the
// probability distributions used by the simulation substrate: uniform,
// normal, exponential and hypergeometric variates, plus choice/shuffle
// helpers.
//
// Every generator is seeded explicitly so that experiments are reproducible
// run-to-run; nothing in this package reads global state.
package randx

import (
	"math"
	"math/bits"
)

// Rand is a deterministic pseudo-random source based on the SplitMix64 /
// xoshiro256** family. It is intentionally independent of math/rand so the
// stream is stable across Go releases, which keeps recorded experiment
// outputs reproducible.
type Rand struct {
	s [4]uint64
	// cached spare normal variate for the Box-Muller transform
	hasSpare bool
	spare    float64
}

// New returns a generator seeded from the given seed via SplitMix64 state
// expansion. Two generators with the same seed produce identical streams.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state from seed.
func (r *Rand) Seed(seed uint64) {
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	r.hasSpare = false
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("randx: Intn called with n <= 0")
	}
	// Lemire's multiply-shift rejection method, bias-free.
	bound := uint64(n)
	threshold := (-bound) % bound
	for {
		hi, lo := bits.Mul64(r.Uint64(), bound)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// IntRange returns a uniform integer in [lo, hi] inclusive. Panics if
// hi < lo.
func (r *Rand) IntRange(lo, hi int) int {
	if hi < lo {
		panic("randx: IntRange called with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// FloatRange returns a uniform float64 in [lo, hi).
func (r *Rand) FloatRange(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Normal returns a normally distributed variate with the given mean and
// standard deviation, via the Box-Muller transform (with spare caching).
func (r *Rand) Normal(mean, stddev float64) float64 {
	if r.hasSpare {
		r.hasSpare = false
		return mean + stddev*r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	factor := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * factor
	r.hasSpare = true
	return mean + stddev*u*factor
}

// NormalClamped returns a normal variate clamped into [lo, hi].
func (r *Rand) NormalClamped(mean, stddev, lo, hi float64) float64 {
	x := r.Normal(mean, stddev)
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Exp returns an exponentially distributed variate with the given rate
// (mean 1/rate).
func (r *Rand) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("randx: Exp called with rate <= 0")
	}
	return -math.Log(1-r.Float64()) / rate
}

// Hypergeometric samples the number of "successes" when drawing draws items
// without replacement from a population of size popSize containing
// successes marked items. It panics on invalid parameters.
//
// The sampler simulates the draw directly; the parameter sizes used by the
// simulation (tens of items) make this exact approach cheap.
func (r *Rand) Hypergeometric(popSize, successes, draws int) int {
	if popSize < 0 || successes < 0 || draws < 0 || successes > popSize || draws > popSize {
		panic("randx: Hypergeometric called with invalid parameters")
	}
	good := successes
	total := popSize
	k := 0
	for i := 0; i < draws; i++ {
		if r.Intn(total) < good {
			k++
			good--
		}
		total--
	}
	return k
}

// Poisson samples a Poisson-distributed count with the given mean, via
// Knuth's product-of-uniforms method for small means and a normal
// approximation (rounded, clamped at 0) for large ones.
func (r *Rand) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		x := r.Normal(mean, math.Sqrt(mean))
		if x < 0 {
			return 0
		}
		return int(x + 0.5)
	}
	limit := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= limit {
			return k
		}
		k++
	}
}

// Bernoulli returns true with probability p.
func (r *Rand) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using the provided swap
// function (Fisher-Yates).
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// SampleInto returns k distinct indices drawn uniformly from [0, n) in
// random order (a partial Fisher-Yates), drawing into the caller's buffer:
// dst is grown (or reused) to hold the n-element index table and the first k
// entries are returned. The generator consumption — and therefore the
// sampled stream — depends only on (n, k), never on dst, which is what lets
// recycled search state replay the exact windows a fresh search would pick.
// It panics if k > n or k < 0.
func (r *Rand) SampleInto(dst []int, n, k int) []int {
	if k < 0 || k > n {
		panic("randx: Sample called with k out of range")
	}
	if cap(dst) < n {
		dst = make([]int, n)
	}
	idx := dst[:n]
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}
