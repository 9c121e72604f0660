package randx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(123), New(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverge at step %d", i)
		}
	}
}

func TestSeedResets(t *testing.T) {
	r := New(5)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Seed(5)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("reseeded stream diverges at %d: %d != %d", i, got, first[i])
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical outputs", same)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(7)
	for _, n := range []int{1, 2, 3, 10, 1000, 1 << 30} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := trials / n
	for i, c := range counts {
		if c < want*9/10 || c > want*11/10 {
			t.Errorf("bucket %d: %d observations, want about %d", i, c, want)
		}
	}
}

func TestIntRange(t *testing.T) {
	r := New(3)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.IntRange(2, 10)
		if v < 2 || v > 10 {
			t.Fatalf("IntRange(2,10) = %d", v)
		}
		seen[v] = true
	}
	for v := 2; v <= 10; v++ {
		if !seen[v] {
			t.Errorf("IntRange(2,10) never produced %d in 1000 draws", v)
		}
	}
	if got := r.IntRange(4, 4); got != 4 {
		t.Errorf("IntRange(4,4) = %d, want 4", got)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(13)
	sum := 0.0
	const trials = 100000
	for i := 0; i < trials; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %g out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / trials; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %g, want ~0.5", mean)
	}
}

func TestFloatRange(t *testing.T) {
	r := New(17)
	for i := 0; i < 1000; i++ {
		v := r.FloatRange(-3, 7)
		if v < -3 || v >= 7 {
			t.Fatalf("FloatRange(-3,7) = %g", v)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(19)
	const trials = 200000
	mean, m2 := 0.0, 0.0
	for i := 1; i <= trials; i++ {
		x := r.Normal(10, 3)
		d := x - mean
		mean += d / float64(i)
		m2 += d * (x - mean)
	}
	sd := math.Sqrt(m2 / float64(trials-1))
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("normal mean = %g, want ~10", mean)
	}
	if math.Abs(sd-3) > 0.05 {
		t.Errorf("normal sd = %g, want ~3", sd)
	}
}

func TestNormalClamped(t *testing.T) {
	r := New(23)
	for i := 0; i < 10000; i++ {
		x := r.NormalClamped(0, 1, -0.5, 0.5)
		if x < -0.5 || x > 0.5 {
			t.Fatalf("NormalClamped out of range: %g", x)
		}
	}
}

func TestExpMoments(t *testing.T) {
	r := New(29)
	const trials = 200000
	sum := 0.0
	for i := 0; i < trials; i++ {
		x := r.Exp(2)
		if x < 0 {
			t.Fatalf("Exp produced negative %g", x)
		}
		sum += x
	}
	if mean := sum / trials; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Exp(2) mean = %g, want ~0.5", mean)
	}
}

func TestExpPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestHypergeometricSupport(t *testing.T) {
	r := New(31)
	const pop, succ, draws = 40, 20, 20
	for i := 0; i < 5000; i++ {
		k := r.Hypergeometric(pop, succ, draws)
		if k < 0 || k > draws || k > succ {
			t.Fatalf("hypergeometric out of support: %d", k)
		}
		// At least draws - (pop - succ) successes must be drawn.
		if min := draws - (pop - succ); k < min {
			t.Fatalf("hypergeometric below support: %d < %d", k, min)
		}
	}
}

func TestHypergeometricMean(t *testing.T) {
	r := New(37)
	const pop, succ, draws, trials = 40, 20, 20, 100000
	sum := 0
	for i := 0; i < trials; i++ {
		sum += r.Hypergeometric(pop, succ, draws)
	}
	mean := float64(sum) / trials
	want := float64(draws) * float64(succ) / float64(pop)
	if math.Abs(mean-want) > 0.05 {
		t.Errorf("hypergeometric mean = %g, want ~%g", mean, want)
	}
}

func TestHypergeometricDegenerate(t *testing.T) {
	r := New(41)
	if got := r.Hypergeometric(10, 10, 5); got != 5 {
		t.Errorf("all-success population: got %d, want 5", got)
	}
	if got := r.Hypergeometric(10, 0, 5); got != 0 {
		t.Errorf("no-success population: got %d, want 0", got)
	}
	if got := r.Hypergeometric(10, 4, 0); got != 0 {
		t.Errorf("zero draws: got %d, want 0", got)
	}
}

func TestHypergeometricPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid hypergeometric parameters did not panic")
		}
	}()
	New(1).Hypergeometric(10, 11, 5)
}

func TestPoissonMoments(t *testing.T) {
	r := New(59)
	for _, mean := range []float64{0.5, 4, 40} {
		const trials = 50000
		sum := 0
		for i := 0; i < trials; i++ {
			k := r.Poisson(mean)
			if k < 0 {
				t.Fatalf("negative Poisson draw %d", k)
			}
			sum += k
		}
		got := float64(sum) / trials
		if math.Abs(got-mean) > mean*0.05+0.02 {
			t.Errorf("Poisson(%g) mean = %g", mean, got)
		}
	}
	if r.Poisson(0) != 0 || r.Poisson(-3) != 0 {
		t.Error("non-positive mean should yield 0")
	}
}

func TestBernoulli(t *testing.T) {
	r := New(43)
	const trials = 100000
	hits := 0
	for i := 0; i < trials; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	if p := float64(hits) / trials; math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) frequency = %g", p)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(47)
	check := func(seed uint64, n uint8) bool {
		rr := New(seed)
		p := rr.Perm(int(n))
		if len(p) != int(n) {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= int(n) || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	_ = r
}

func TestSampleDistinct(t *testing.T) {
	check := func(seed uint64, nRaw, kRaw uint8) bool {
		n := int(nRaw%50) + 1
		k := int(kRaw) % (n + 1)
		r := New(seed)
		s := r.Sample(n, k)
		if len(s) != k {
			return false
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSampleIntoMatchesSample pins the stream-equality contract SampleInto
// documents: for equal seeds and equal (n, k) the buffered variant must
// return the exact indices Sample does — whether the destination is nil,
// undersized, oversized, or dirty from a previous draw. Recycled search
// state relies on this to replay the windows a fresh search would pick.
func TestSampleIntoMatchesSample(t *testing.T) {
	shapes := []struct{ n, k int }{
		{1, 0}, {1, 1}, {5, 3}, {8, 8}, {40, 1}, {40, 17}, {200, 64},
	}
	equal := func(a, b []int) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for seed := uint64(1); seed <= 10; seed++ {
		var dirty []int
		for _, sh := range shapes {
			want := New(seed).Sample(sh.n, sh.k)

			if got := New(seed).SampleInto(nil, sh.n, sh.k); !equal(got, want) {
				t.Errorf("seed=%d n=%d k=%d: nil dst diverged: got %v, want %v", seed, sh.n, sh.k, got, want)
			}
			small := make([]int, 0, sh.n/2)
			if got := New(seed).SampleInto(small, sh.n, sh.k); !equal(got, want) {
				t.Errorf("seed=%d n=%d k=%d: undersized dst diverged: got %v, want %v", seed, sh.n, sh.k, got, want)
			}
			big := make([]int, 0, sh.n*2+4)
			for i := 0; i < cap(big); i++ {
				big = append(big, -99)
			}
			if got := New(seed).SampleInto(big[:0], sh.n, sh.k); !equal(got, want) {
				t.Errorf("seed=%d n=%d k=%d: oversized dirty dst diverged: got %v, want %v", seed, sh.n, sh.k, got, want)
			}
			// Reuse one buffer across the whole shape table, as the scanner does.
			dirty = New(seed).SampleInto(dirty[:0], sh.n, sh.k)
			if !equal(dirty, want) {
				t.Errorf("seed=%d n=%d k=%d: recycled dst diverged: got %v, want %v", seed, sh.n, sh.k, dirty, want)
			}
		}
	}
}

func TestSamplePanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sample(3, 4) did not panic")
		}
	}()
	New(1).Sample(3, 4)
}

func TestShuffle(t *testing.T) {
	r := New(53)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make([]bool, 10)
	for _, v := range xs {
		seen[v] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("shuffle lost element %d", i)
		}
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	var nonzero bool
	for i := 0; i < 10; i++ {
		if r.Uint64() != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("zero-seeded generator is stuck at zero")
	}
}

// Sample returns k distinct indices drawn uniformly from [0, n) in random
// order, allocating a fresh index table: the oracle SampleInto is held to.
// It panics if k > n or k < 0.
func (r *Rand) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("randx: Sample called with k out of range")
	}
	// Partial Fisher-Yates over an index table.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}
