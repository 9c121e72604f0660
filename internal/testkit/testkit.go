// Package testkit provides the shared fixtures of the test suite: compact
// random environments, hand-built slot lists and requests sized so that the
// exhaustive oracles (oracle.go) stay fast.
package testkit

import (
	"fmt"
	"strings"

	"slotsel/internal/core"
	"slotsel/internal/env"
	"slotsel/internal/job"
	"slotsel/internal/nodes"
	"slotsel/internal/randx"
	"slotsel/internal/slots"
)

// SmallEnvConfig returns an environment configuration scaled down for
// oracle-checked tests: few nodes, a short interval, homogeneous software
// (so requirement filtering does not starve the tiny instance).
func SmallEnvConfig(nodeCount int, horizon float64) env.Config {
	cfg := env.DefaultConfig()
	cfg.Nodes.Count = nodeCount
	cfg.Nodes.OSOptions = []nodes.OS{nodes.Linux}
	cfg.Nodes.ArchOptions = []nodes.Arch{nodes.AMD64}
	cfg.Horizon = horizon
	return cfg
}

// SmallEnv generates a compact environment for the given seed.
func SmallEnv(seed uint64, nodeCount int, horizon float64) *env.Environment {
	return env.Generate(SmallEnvConfig(nodeCount, horizon), randx.New(seed))
}

// SmallRequest returns a request scaled to small environments: taskCount
// tasks of volume 60 with the given budget (0 = unconstrained).
func SmallRequest(taskCount int, budget float64) job.Request {
	return job.Request{TaskCount: taskCount, Volume: 60, MaxCost: budget}
}

// Node builds a standalone test node.
func Node(id int, perf, price float64) *nodes.Node {
	return &nodes.Node{
		ID:     id,
		Perf:   perf,
		Price:  price,
		RAMMB:  4096,
		DiskGB: 100,
		OS:     nodes.Linux,
		Arch:   nodes.AMD64,
	}
}

// Slot builds a standalone test slot on the given node.
func Slot(n *nodes.Node, start, end float64) *slots.Slot {
	return &slots.Slot{Node: n, Interval: slots.Interval{Start: start, End: end}}
}

// SlotList builds a sorted list from the given slots.
func SlotList(ss ...*slots.Slot) slots.List {
	l := slots.List(ss)
	l.SortByStart()
	return l
}

// poisonedNode backs the slot PoisonVisit writes into released index
// views: any algorithm that reads it produces NaN-tainted, node -1
// windows that the aliasing regression tests cannot miss.
// WindowSignature renders every field of a window (including each
// placement's node and exact slot interval) into a canonical string, so
// two windows are value-identical iff their signatures are equal. The
// %g/%x formatting is exact for float64, making the differential tests a
// bit-identity check, not an approximate one.
func WindowSignature(w *core.Window) string {
	if w == nil {
		return "<nil>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "start=%x runtime=%x cost=%x proc=%x n=%d", w.Start, w.Runtime, w.Cost, w.ProcTime, len(w.Placements))
	for _, p := range w.Placements {
		fmt.Fprintf(&b, " [node=%d slot=%x..%x start=%x exec=%x cost=%x]",
			p.Node().ID, p.Slot.Start, p.Slot.End, p.Start, p.Exec, p.Cost)
	}
	return b.String()
}

// WindowsSignature concatenates the signatures of an alternative set in
// order; discovery order is part of the sequential semantics, so it is
// part of the identity check too.
func WindowsSignature(ws []*core.Window) string {
	var b strings.Builder
	for i, w := range ws {
		fmt.Fprintf(&b, "#%d %s\n", i, WindowSignature(w))
	}
	return b.String()
}

// HeteroList generates a random sorted slot list over nodes with mixed
// operating systems, architectures and performance. Node i cycles through
// the OS/arch combinations so every list contains several requirement
// classes.
func HeteroList(rng *randx.Rand, nodeCount, maxSlotsPerNode int, horizon float64) slots.List {
	oses := []nodes.OS{nodes.Linux, nodes.Windows}
	arches := []nodes.Arch{nodes.AMD64, nodes.ARM64}
	l := RandomList(rng, nodeCount, maxSlotsPerNode, horizon)
	seen := make(map[int]bool)
	for _, s := range l {
		if seen[s.Node.ID] {
			continue
		}
		seen[s.Node.ID] = true
		s.Node.OS = oses[s.Node.ID%len(oses)]
		s.Node.Arch = arches[(s.Node.ID/len(oses))%len(arches)]
	}
	return l
}

// RandomBatch draws a batch of count jobs with randomized parallelism,
// volume, budget and priority, plus randomized node requirements (OS,
// architecture, minimum performance) drawn to sometimes overlap and
// sometimes be disjoint, so some jobs search what earlier jobs cut and
// some do not.
func RandomBatch(rng *randx.Rand, count int) *job.Batch {
	b := &job.Batch{}
	for i := 0; i < count; i++ {
		req := job.Request{
			TaskCount: rng.IntRange(1, 4),
			Volume:    float64(rng.IntRange(30, 120)),
			MaxCost:   float64(rng.IntRange(200, 2000)),
		}
		switch rng.Intn(4) {
		case 0:
			req.OS = []nodes.OS{nodes.Linux}
		case 1:
			req.OS = []nodes.OS{nodes.Windows}
		case 2:
			req.Arch = []nodes.Arch{nodes.ARM64}
		}
		if rng.Intn(3) == 0 {
			req.MinPerf = float64(rng.IntRange(4, 8))
		}
		b.Add(&job.Job{ID: i + 1, Priority: rng.IntRange(1, 3), Request: req})
	}
	return b
}

// RandomList generates an arbitrary (but valid and sorted) slot list:
// nodeCount nodes with random performance/price, each publishing up to
// maxSlotsPerNode disjoint random slots within [0, horizon). Used by
// property-based tests that want denser or weirder lists than the full
// environment generator produces.
func RandomList(rng *randx.Rand, nodeCount, maxSlotsPerNode int, horizon float64) slots.List {
	var l slots.List
	for id := 0; id < nodeCount; id++ {
		n := Node(id, float64(rng.IntRange(2, 10)), 0.3+3*rng.Float64())
		cursor := 0.0
		k := rng.Intn(maxSlotsPerNode + 1)
		for s := 0; s < k && cursor < horizon-1; s++ {
			gap := rng.FloatRange(0, horizon/4)
			length := rng.FloatRange(1, horizon/2)
			start := cursor + gap
			end := start + length
			if end > horizon {
				end = horizon
			}
			if end-start >= 1 {
				l = append(l, Slot(n, start, end))
			}
			cursor = end + 0.5
		}
	}
	l.SortByStart()
	return l
}

// DeepPool is the fixture of the flat-in-m churn rows (the inventory's
// BenchmarkReserveReleaseChurn and slotbench's rows of the same name): the
// repository benchmark's book_deep environment — 1024 heterogeneous nodes,
// about one published slot per node per 130 time units — at the given
// horizon, with that workload's booking shape (the paper's base job, 5
// tasks of volume 150, under a cost limit that rarely binds). Horizon 600,
// 6000 and 48000 give about 6 k, 48 k and 380 k slots.
func DeepPool(horizon float64) (slots.List, job.Request) {
	e := env.Generate(env.DefaultConfig().WithNodeCount(1024).WithHorizon(horizon), randx.New(1))
	return e.Slots, job.Request{TaskCount: 5, Volume: 150, MaxCost: 5 * 150 * 5}
}
