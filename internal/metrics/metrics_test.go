package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"slotsel/internal/randx"
)

func naiveStats(xs []float64) (mean, variance float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	mean = sum / float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	ss := 0.0
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return mean, ss / float64(len(xs)-1)
}

func TestAccumulatorMatchesNaive(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		rng := randx.New(seed)
		n := int(nRaw%100) + 1
		xs := make([]float64, n)
		var acc Accumulator
		for i := range xs {
			xs[i] = rng.FloatRange(-100, 100)
			acc.Add(xs[i])
		}
		mean, variance := naiveStats(xs)
		return math.Abs(acc.Mean()-mean) < 1e-9 &&
			math.Abs(acc.Variance()-variance) < 1e-6 &&
			acc.Count() == n
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAccumulatorMinMax(t *testing.T) {
	var acc Accumulator
	for _, x := range []float64{3, -1, 7, 2} {
		acc.Add(x)
	}
	if acc.Summary().Min != -1 || acc.Summary().Max != 7 {
		t.Errorf("min/max = %g/%g", acc.Summary().Min, acc.Summary().Max)
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var acc Accumulator
	if acc.Mean() != 0 || acc.StdDev() != 0 || acc.Count() != 0 {
		t.Error("empty accumulator not zero")
	}
}

func TestAccumulatorSingle(t *testing.T) {
	var acc Accumulator
	acc.Add(5)
	if acc.Mean() != 5 || acc.Variance() != 0 || acc.Summary().Min != 5 || acc.Summary().Max != 5 {
		t.Errorf("single-observation stats wrong: %v", acc.Summary())
	}
}

func TestMergeMatchesSequential(t *testing.T) {
	check := func(seed uint64, nA, nB uint8) bool {
		rng := randx.New(seed)
		var a, b, all Accumulator
		for i := 0; i < int(nA%50); i++ {
			x := rng.FloatRange(-10, 10)
			a.Add(x)
			all.Add(x)
		}
		for i := 0; i < int(nB%50)+1; i++ {
			x := rng.FloatRange(-10, 10)
			b.Add(x)
			all.Add(x)
		}
		a.Merge(&b)
		return a.Count() == all.Count() &&
			math.Abs(a.Mean()-all.Mean()) < 1e-9 &&
			math.Abs(a.Variance()-all.Variance()) < 1e-6 &&
			a.Summary().Min == all.Summary().Min && a.Summary().Max == all.Summary().Max
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMergeEmpty(t *testing.T) {
	var a, b Accumulator
	a.Add(1)
	a.Add(3)
	before := a.Summary()
	a.Merge(&b)
	if a.Summary() != before {
		t.Error("merging an empty accumulator changed stats")
	}
	b.Merge(&a)
	if b.Summary() != before {
		t.Error("merging into an empty accumulator lost stats")
	}
}

func TestSummaryString(t *testing.T) {
	var acc Accumulator
	acc.Add(1)
	if acc.Summary().String() == "" {
		t.Error("empty summary string")
	}
}

func TestSampleQuantiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {1, 100}, {0.5, 50.5}, {0.25, 25.75}, {0.99, 99.01},
	}
	for _, tc := range cases {
		if got := s.Quantile(tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	if s.Count() != 100 {
		t.Errorf("Count = %d", s.Count())
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Quantile(0.5) != 0 {
		t.Error("empty sample not zero")
	}
}

func TestSampleInterleavedAddQuery(t *testing.T) {
	var s Sample
	s.Add(5)
	if s.Quantile(0.5) != 5 {
		t.Fatal("median of one element")
	}
	s.Add(1) // forces re-sort on next query
	if s.Quantile(0) != 1 {
		t.Fatal("re-sort after Add failed")
	}
}
