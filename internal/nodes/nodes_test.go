package nodes

import (
	"math"
	"testing"
	"testing/quick"

	"slotsel/internal/randx"
)

func TestGenerateCountAndIDs(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Count = 37
	ns := Generate(cfg, randx.New(1))
	if len(ns) != 37 {
		t.Fatalf("generated %d nodes, want 37", len(ns))
	}
	for i, n := range ns {
		if n.ID != i {
			t.Errorf("node %d has ID %d", i, n.ID)
		}
	}
}

func TestGeneratePerfRange(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Count = 500
	ns := Generate(cfg, randx.New(2))
	seen := map[float64]bool{}
	for _, n := range ns {
		if n.Perf < 2 || n.Perf > 10 {
			t.Fatalf("performance %g out of [2,10]", n.Perf)
		}
		if n.Perf != math.Trunc(n.Perf) {
			t.Fatalf("performance %g is not integral", n.Perf)
		}
		seen[n.Perf] = true
	}
	for p := 2.0; p <= 10; p++ {
		if !seen[p] {
			t.Errorf("performance %g never generated in 500 nodes", p)
		}
	}
}

func TestGenerateAttributesFromOptions(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Count = 200
	ramOK := map[int]bool{}
	for _, v := range cfg.RAMOptions {
		ramOK[v] = true
	}
	diskOK := map[int]bool{}
	for _, v := range cfg.DiskOptions {
		diskOK[v] = true
	}
	for _, n := range Generate(cfg, randx.New(3)) {
		if !ramOK[n.RAMMB] {
			t.Fatalf("RAM %d not in options", n.RAMMB)
		}
		if !diskOK[n.DiskGB] {
			t.Fatalf("disk %d not in options", n.DiskGB)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultGenConfig()
	a := Generate(cfg, randx.New(7))
	b := Generate(cfg, randx.New(7))
	for i := range a {
		if *a[i] != *b[i] {
			t.Fatalf("node %d differs between equal-seed generations", i)
		}
	}
}

func TestGenerateEmptyAndDefaults(t *testing.T) {
	if ns := Generate(GenConfig{}, randx.New(1)); ns != nil {
		t.Fatalf("zero config generated %d nodes", len(ns))
	}
	// Degenerate option sets fall back to single defaults.
	ns := Generate(GenConfig{Count: 3}, randx.New(1))
	for _, n := range ns {
		if n.OS != Linux || n.Arch != AMD64 {
			t.Errorf("fallback attributes wrong: %v", n)
		}
		if n.Perf < 2 {
			t.Errorf("fallback performance wrong: %v", n)
		}
	}
}

func TestPricePositive(t *testing.T) {
	check := func(seed uint64, perfRaw uint8) bool {
		perf := float64(perfRaw%9) + 2
		p := DefaultPricing().Price(perf, randx.New(seed))
		return p > 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPriceGrowsWithPerformance(t *testing.T) {
	// With deviation disabled, price must be strictly increasing in perf.
	pm := DefaultPricing()
	pm.DeviationSigma = 0
	rng := randx.New(1)
	prev := 0.0
	for perf := 2.0; perf <= 10; perf++ {
		p := pm.Price(perf, rng)
		if p <= prev {
			t.Fatalf("price not increasing: perf=%g price=%g prev=%g", perf, p, prev)
		}
		prev = p
	}
}

func TestPriceMarketPremiumExcludesFastNodes(t *testing.T) {
	// The defining property of the degree-2 model (DESIGN.md §4.2): the
	// per-slot cost volume/perf x price must grow with performance, so a
	// budget can exclude fast nodes. Under degree 1 with no floor and no
	// deviation it is constant.
	premium := PricingModel{Factor: 0.3, Degree: 2, Floor: 0.55}
	linear := PricingModel{Factor: 1.5, Degree: 1}
	rng := randx.New(1)
	const volume = 150
	slotCost := func(pm PricingModel, perf float64) float64 {
		return pm.Price(perf, rng) * volume / perf
	}
	if c2, c10 := slotCost(premium, 2), slotCost(premium, 10); c10 <= c2 {
		t.Errorf("premium pricing: slot cost at perf 10 (%g) not above perf 2 (%g)", c10, c2)
	}
	if c2, c10 := slotCost(linear, 2), slotCost(linear, 10); math.Abs(c2-c10) > 1e-9 {
		t.Errorf("linear pricing: slot cost should be perf-independent, got %g vs %g", c2, c10)
	}
}

func TestPriceDeviationBounded(t *testing.T) {
	pm := DefaultPricing()
	rng := randx.New(5)
	base := PricingModel{Factor: pm.Factor, Degree: pm.Degree, Floor: pm.Floor}
	for i := 0; i < 2000; i++ {
		perf := float64(rng.IntRange(2, 10))
		p := pm.Price(perf, rng)
		center := base.Price(perf, rng)
		lo := center * (1 - pm.MaxDeviation)
		hi := center * (1 + pm.MaxDeviation)
		if p < lo-1e-9 || p > hi+1e-9 {
			t.Fatalf("price %g outside deviation bounds [%g, %g] at perf %g", p, lo, hi, perf)
		}
	}
}

func TestExecTimeAndSlotCost(t *testing.T) {
	n := &Node{ID: 1, Perf: 4, Price: 2.5}
	if got := n.ExecTime(100); got != 25 {
		t.Errorf("ExecTime = %g, want 25", got)
	}
}

func TestNodeString(t *testing.T) {
	n := &Node{ID: 3, Perf: 5, Price: 1.5, RAMMB: 2048, DiskGB: 100, OS: Linux, Arch: AMD64}
	s := n.String()
	if s == "" {
		t.Fatal("empty String()")
	}
}

func TestZeroPricingFallsBack(t *testing.T) {
	var pm PricingModel
	p := pm.Price(5, randx.New(1))
	if p <= 0 {
		t.Fatalf("zero-value pricing produced non-positive price %g", p)
	}
}
