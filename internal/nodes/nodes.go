// Package nodes models the heterogeneous computational resources of the
// distributed environment: CPU nodes with a performance rate, hardware and
// software attributes, and an economic usage price formed by a free-market
// pricing model (price grows with performance, with a normally distributed
// per-node deviation).
package nodes

import (
	"fmt"
	"math"

	"slotsel/internal/randx"
)

// OS identifies the operating system installed on a node. Resource requests
// may restrict the set of acceptable systems.
type OS string

// Operating systems used by the generator. The specific set is not
// prescribed by the paper; resource requests only need a matching predicate.
const (
	Linux   OS = "linux"
	Windows OS = "windows"
	Solaris OS = "solaris"
	BSD     OS = "bsd"
)

// Arch identifies the CPU architecture of a node.
type Arch string

// Architectures used by the generator.
const (
	AMD64 Arch = "amd64"
	ARM64 Arch = "arm64"
	PPC64 Arch = "ppc64"
)

// Node is a single CPU node of the distributed environment. A node is
// non-dedicated: local and high-priority jobs occupy parts of its timeline,
// and only the remaining free intervals are published as slots.
type Node struct {
	// ID is the index of the node within its environment, unique and dense.
	ID int

	// Perf is the relative performance rate of the node. A task of volume V
	// executes on the node in V/Perf time units. The paper draws Perf as a
	// uniform integer in [2, 10].
	Perf float64

	// Price is the usage cost per unit of reserved time. It is formed
	// proportionally to performance (superlinearly by default, see
	// PricingModel) with a normally distributed market deviation.
	Price float64

	// RAMMB is the RAM volume of the node in megabytes.
	RAMMB int

	// DiskGB is the available disk space in gigabytes.
	DiskGB int

	// OS is the installed operating system.
	OS OS

	// Arch is the CPU architecture.
	Arch Arch
}

// String implements fmt.Stringer for diagnostics.
func (n *Node) String() string {
	return fmt.Sprintf("node#%d(perf=%.0f price=%.2f ram=%dMB disk=%dGB %s/%s)",
		n.ID, n.Perf, n.Price, n.RAMMB, n.DiskGB, n.OS, n.Arch)
}

// ExecTime returns the execution time of a task of the given volume on this
// node: volume / performance.
func (n *Node) ExecTime(volume float64) float64 {
	return volume / n.Perf
}

// PricingModel controls how per-unit node prices are derived from node
// performance. The paper specifies that "the resource usage cost was formed
// proportionally to their performance with an element of normally
// distributed deviation in order to simulate a free market pricing model",
// and that the user budget "generally will not allow using the most
// expensive (and usually the most efficient) CPU nodes".
//
// With a strictly linear price the per-slot cost volume/perf*price is
// performance independent, so the budget could never exclude fast nodes; a
// superlinear degree (default 2) restores the intended market premium. See
// DESIGN.md §4.2.
type PricingModel struct {
	// Factor scales the performance-dependent price component. Together
	// with Floor it calibrates the default workload (5 slots x volume 150,
	// budget 1500) so that the budget binds roughly at performance 5,
	// matching the published MinRunTime/MinCost behaviour.
	Factor float64

	// Degree is the exponent applied to performance. 1 = strictly linear
	// (paper's literal wording), 2 = market premium (default).
	Degree float64

	// Floor is a linear-in-performance price floor added to the premium
	// component: price = (Floor*perf + Factor*perf^Degree) * (1 + dev).
	// It keeps slow nodes from being near-free, compressing the cost
	// spread towards the published MinCost/MinRunTime cost ratio.
	Floor float64

	// DeviationSigma is the standard deviation of the relative normal
	// market deviation. The deviation is clamped to ±MaxDeviation.
	DeviationSigma float64

	// MaxDeviation clamps the relative deviation. Must be < 1 so prices
	// stay positive.
	MaxDeviation float64
}

// DefaultPricing returns the pricing model used by the reproduction
// experiments.
func DefaultPricing() PricingModel {
	return PricingModel{
		Factor:         0.30,
		Degree:         2,
		Floor:          0.55,
		DeviationSigma: 0.15,
		MaxDeviation:   0.4,
	}
}

// Price draws a per-unit price for a node of the given performance.
func (p PricingModel) Price(perf float64, rng *randx.Rand) float64 {
	base := p.Factor
	if base <= 0 {
		base = DefaultPricing().Factor
	}
	degree := p.Degree
	if degree <= 0 {
		degree = DefaultPricing().Degree
	}
	sigma := p.DeviationSigma
	maxDev := p.MaxDeviation
	if maxDev <= 0 || maxDev >= 1 {
		maxDev = DefaultPricing().MaxDeviation
	}
	dev := 0.0
	if sigma > 0 {
		dev = rng.NormalClamped(0, sigma, -maxDev, maxDev)
	}
	price := (p.Floor*perf + base*math.Pow(perf, degree)) * (1 + dev)
	if price <= 0 {
		price = base
	}
	return price
}

// GenConfig parametrizes the node generator.
type GenConfig struct {
	// Count is the number of nodes to generate (paper default: 100).
	Count int

	// PerfMin and PerfMax bound the uniform integer performance rate
	// (paper defaults: 2 and 10).
	PerfMin, PerfMax int

	// Pricing is the pricing model; zero value falls back to
	// DefaultPricing.
	Pricing PricingModel

	// RAM options in MB and disk options in GB drawn uniformly.
	RAMOptions  []int
	DiskOptions []int

	// OSOptions and ArchOptions drawn uniformly. Empty slices fall back to
	// all-Linux/amd64 (homogeneous software environment).
	OSOptions   []OS
	ArchOptions []Arch
}

// DefaultGenConfig returns the generator configuration reproducing §3.1 of
// the paper: 100 nodes, performance U{2..10}, default pricing. Hardware and
// software attributes are drawn from small representative sets; the base
// experiments do not constrain them (the request matches everything), while
// the heterogeneous example and tests do.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		Count:       100,
		PerfMin:     2,
		PerfMax:     10,
		Pricing:     DefaultPricing(),
		RAMOptions:  []int{1024, 2048, 4096, 8192, 16384},
		DiskOptions: []int{50, 100, 250, 500, 1000},
		OSOptions:   []OS{Linux, Linux, Linux, Windows, Solaris, BSD},
		ArchOptions: []Arch{AMD64, AMD64, AMD64, ARM64, PPC64},
	}
}

// Generate draws cfg.Count nodes using rng. The returned slice is indexed by
// node ID.
func Generate(cfg GenConfig, rng *randx.Rand) []*Node {
	if cfg.Count <= 0 {
		return nil
	}
	if cfg.PerfMin <= 0 {
		cfg.PerfMin = 2
	}
	if cfg.PerfMax < cfg.PerfMin {
		cfg.PerfMax = cfg.PerfMin
	}
	ram := cfg.RAMOptions
	if len(ram) == 0 {
		ram = []int{4096}
	}
	disk := cfg.DiskOptions
	if len(disk) == 0 {
		disk = []int{100}
	}
	oses := cfg.OSOptions
	if len(oses) == 0 {
		oses = []OS{Linux}
	}
	arches := cfg.ArchOptions
	if len(arches) == 0 {
		arches = []Arch{AMD64}
	}
	out := make([]*Node, cfg.Count)
	for i := range out {
		perf := float64(rng.IntRange(cfg.PerfMin, cfg.PerfMax))
		out[i] = &Node{
			ID:     i,
			Perf:   perf,
			Price:  cfg.Pricing.Price(perf, rng),
			RAMMB:  ram[rng.Intn(len(ram))],
			DiskGB: disk[rng.Intn(len(disk))],
			OS:     oses[rng.Intn(len(oses))],
			Arch:   arches[rng.Intn(len(arches))],
		}
	}
	return out
}
