// Package slotsel is a Go implementation of the slot selection and
// co-allocation algorithms for parallel jobs in distributed computing with
// non-dedicated and heterogeneous resources from Toporkov, Toporkova,
// Tselishchev and Yemelyanov, "Slot Selection Algorithms in Distributed
// Computing with Non-dedicated and Heterogeneous Resources" (PaCT 2013).
//
// The library contains:
//
//   - the AEP scheme ("Algorithm searching for Extreme Performance") and its
//     instantiations — AMP, MinFinish, MinCost, MinRunTime, MinProcTime —
//     all linear in the number of available slots (package internal/core,
//     re-exported here);
//   - the CSA scheme searching for multiple disjoint alternative windows;
//   - a complete simulation substrate: heterogeneous node generation,
//     free-market pricing, non-dedicated initial load, slot publication;
//   - the two-stage batch scheduling scheme the algorithms plug into;
//   - baselines (first-fit, quadratic earliest-start, exhaustive search)
//     and an experiment harness reproducing every figure and table of the
//     paper's evaluation.
//
// # Quick start
//
//	rng := slotsel.NewRand(42)
//	e := slotsel.GenerateEnvironment(slotsel.DefaultEnvConfig(), rng)
//	req := slotsel.DefaultRequest() // 5 parallel slots, volume 150, budget 1500
//	w, err := slotsel.MinCost{}.Find(e.Slots, &req)
//
// See the examples directory for runnable programs.
package slotsel

import (
	"slotsel/internal/baseline"
	"slotsel/internal/batchsched"
	"slotsel/internal/core"
	"slotsel/internal/csa"
	"slotsel/internal/env"
	"slotsel/internal/job"
	"slotsel/internal/nodes"
	"slotsel/internal/obs"
	"slotsel/internal/parallel"
	"slotsel/internal/randx"
	"slotsel/internal/slots"
)

// Core model types.
type (
	// Node is a heterogeneous CPU node with a performance rate, price and
	// hardware/software attributes.
	Node = nodes.Node

	// OS identifies a node operating system.
	OS = nodes.OS

	// Arch identifies a node CPU architecture.
	Arch = nodes.Arch

	// PricingModel derives per-unit node prices from performance.
	PricingModel = nodes.PricingModel

	// Interval is a half-open time span.
	Interval = slots.Interval

	// Slot is a free availability window on one node.
	Slot = slots.Slot

	// SlotList is a collection of slots, ordered by start time for the AEP
	// scan.
	SlotList = slots.List

	// Environment is a distributed environment snapshot: nodes plus the
	// slots they publish for the scheduling interval.
	Environment = env.Environment

	// EnvConfig parametrizes environment generation.
	EnvConfig = env.Config

	// Request is a job resource request: task count, volume, budget,
	// deadline and node requirements.
	Request = job.Request

	// Job is a batch job: a request plus priority metadata.
	Job = job.Job

	// Batch is an ordered collection of jobs.
	Batch = job.Batch

	// Rand is the deterministic random source used across the library.
	Rand = randx.Rand
)

// Windows and algorithms.
type (
	// Window is a co-allocation of n slots starting synchronously.
	Window = core.Window

	// Placement assigns one task to one slot.
	Placement = core.Placement

	// Candidate is a slot considered at one scan position.
	Candidate = core.Candidate

	// Algorithm is a slot selection algorithm.
	Algorithm = core.Algorithm

	// AMP finds the earliest-start window (first fit under the budget).
	AMP = core.AMP

	// MinCost finds the globally cheapest window.
	MinCost = core.MinCost

	// MinRunTime finds the window with the minimum runtime.
	MinRunTime = core.MinRunTime

	// MinFinish finds the window with the earliest finish time.
	MinFinish = core.MinFinish

	// MinProcTime is the paper's simplified total-CPU-time minimizer.
	MinProcTime = core.MinProcTime

	// MinProcTimeGreedy is the directed total-CPU-time extension.
	MinProcTimeGreedy = core.MinProcTimeGreedy

	// MinEnergy is the energy-criterion extension.
	MinEnergy = core.MinEnergy

	// FirstFit is the no-optimization first-fit baseline.
	FirstFit = baseline.FirstFit

	// CSAOptions configures the multi-alternative CSA search.
	CSAOptions = csa.Options

	// Criterion selects the characteristic by which a CSA alternative is
	// chosen.
	Criterion = csa.Criterion
)

// Batch scheduling (two-stage scheme).
type (
	// JobAlternatives is the stage-1 alternative set of one job.
	JobAlternatives = batchsched.JobAlternatives

	// Plan is a complete batch schedule.
	Plan = batchsched.Plan

	// SelectConfig parametrizes the stage-2 combination selection.
	SelectConfig = batchsched.SelectConfig

	// BatchOptions configures the stage-1 alternative search: the CSA
	// options and a Collector.
	BatchOptions = batchsched.Options

	// FindResult is one algorithm's outcome in a concurrent FindAllWindows
	// search.
	FindResult = parallel.Result
)

// Observability. A nil Collector means "off" everywhere at no cost; see
// the internal/obs package documentation for the event model.
type (
	// Collector receives instrumentation events (scan counters, selection
	// stats, batch stats, trace spans).
	Collector = obs.Collector

	// StatsCollector accumulates counters; its zero value is ready to use
	// and Snapshot().WriteText renders a plain-text report.
	StatsCollector = obs.Stats

	// TraceCollector records spans into a bounded ring buffer and exports
	// Chrome trace_event JSON; construct with NewTraceCollector.
	TraceCollector = obs.Trace
)

// DefaultTraceCapacity is a reasonable span capacity for NewTraceCollector
// (the CLI tools' default).
const DefaultTraceCapacity = obs.DefaultTraceCapacity

// NewTraceCollector returns a trace sink holding at most capacity spans;
// capacity must be positive.
func NewTraceCollector(capacity int) *TraceCollector { return obs.NewTrace(capacity) }

// CombineCollectors fans events out to several collectors, skipping nils;
// it returns nil when nothing remains.
func CombineCollectors(cs ...Collector) Collector { return obs.Combine(cs...) }

// FindObserved runs one algorithm search with instrumentation delivered to
// col; col == nil runs the plain search with zero added work.
func FindObserved(alg Algorithm, list SlotList, req *Request, col Collector) (*Window, error) {
	return core.FindObserved(alg, list.Cursor(), req, col)
}

// ErrNoWindow is returned when no feasible window exists.
var ErrNoWindow = core.ErrNoWindow

// CSA selection criteria.
const (
	ByStart    = csa.ByStart
	ByFinish   = csa.ByFinish
	ByCost     = csa.ByCost
	ByRuntime  = csa.ByRuntime
	ByProcTime = csa.ByProcTime
)

// NewRand returns a deterministic random source for the given seed.
func NewRand(seed uint64) *Rand { return randx.New(seed) }

// DefaultEnvConfig returns the paper's §3.1 environment: 100 nodes with
// performance U{2..10}, free-market pricing, 10-50% non-dedicated load,
// scheduling interval [0, 600).
func DefaultEnvConfig() EnvConfig { return env.DefaultConfig() }

// GenerateEnvironment draws a fresh environment snapshot.
func GenerateEnvironment(cfg EnvConfig, rng *Rand) *Environment { return env.Generate(cfg, rng) }

// DefaultRequest returns the paper's base job: 5 parallel slots of volume
// 150 with total cost limited to 1500.
func DefaultRequest() Request { return job.DefaultRequest() }

// SearchAlternatives runs the CSA scheme: repeated AMP searches over a
// working copy of the list, cutting every found window, yielding pairwise
// disjoint alternatives.
func SearchAlternatives(list SlotList, req *Request, opts CSAOptions) ([]*Window, error) {
	return csa.Search(list, req, opts, nil)
}

// BestAlternative picks the alternative with the minimum criterion value.
func BestAlternative(alts []*Window, c Criterion) *Window { return csa.Best(alts, c) }

// ScheduleBatch runs the two-stage batch scheduling scheme: per-job CSA
// alternative search (stage 1) followed by combination selection under the
// VO budget (stage 2).
func ScheduleBatch(list SlotList, batch *Batch, csaOpts CSAOptions, sel SelectConfig) (*Plan, error) {
	return batchsched.Schedule(list, batch, csaOpts, sel)
}

// ScheduleBatchOpts is ScheduleBatch with full stage-1 options: the same
// plan, with the stage-1 searches reporting to BatchOptions.Collector.
func ScheduleBatchOpts(list SlotList, batch *Batch, opts BatchOptions, sel SelectConfig) (*Plan, error) {
	return batchsched.ScheduleOpts(list, batch, opts, sel)
}

// FindAllWindows runs several algorithms concurrently over one shared slot
// list and returns their windows in input order. For any worker count the
// results are identical to calling each algorithm's Find sequentially;
// workers <= 0 selects GOMAXPROCS.
func FindAllWindows(list SlotList, req *Request, algs []Algorithm, workers int) []FindResult {
	return parallel.FindAll(list, req, algs, workers, nil)
}
