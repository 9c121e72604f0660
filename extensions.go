package slotsel

import (
	"slotsel/internal/baseline"
	"slotsel/internal/execsim"
	"slotsel/internal/generic"
	"slotsel/internal/strategy"
	"slotsel/internal/vosim"
)

// Extensions beyond the paper's §2.2 special cases, re-exported from their
// implementation packages.

type (
	// Weight assigns the §2.1 per-slot characteristic z to a candidate for
	// the generic extreme-criterion algorithm.
	Weight = generic.Weight

	// Extreme is the general 0-1 formulation of AEP: minimize any additive
	// per-slot weight under the cost budget, solved exactly per scan step
	// (branch and bound) or greedily.
	Extreme = generic.Extreme

	// ExecReport is the outcome of replaying a schedule on an environment.
	ExecReport = execsim.Report

	// ExecEvent is one task start/finish in a replayed execution.
	ExecEvent = execsim.Event

	// VOSimConfig parametrizes the rolling-horizon VO metascheduler
	// simulation: consecutive scheduling cycles, Poisson job arrivals, a
	// retry queue, and carry-over reservations.
	VOSimConfig = vosim.Config

	// VOSimResult aggregates a long-run simulation's outcomes.
	VOSimResult = vosim.Result

	// Strategy combines several algorithms and selects the best-scoring
	// window — the §2.1 "combining the optimization criteria" mechanism.
	Strategy = strategy.Strategy

	// StrategyWeights is a linear score over window characteristics.
	StrategyWeights = strategy.Weights
)

// BalancedStrategy trades completion time against cost with normalized
// weights: score = finish/horizon + cost/budget.
func BalancedStrategy(horizon, budget float64) Strategy {
	return strategy.Balanced(horizon, budget)
}

// DefaultVOSimConfig returns a medium long-run workload on the paper's
// node population.
func DefaultVOSimConfig() VOSimConfig { return vosim.DefaultConfig() }

// RunVOSimulation executes the long-run metascheduler simulation.
func RunVOSimulation(cfg VOSimConfig) (*VOSimResult, error) { return vosim.Run(cfg) }

// ALP is the earlier works' "Algorithm based on Local Price of slots"
// baseline: first fit where every slot individually satisfies the local
// budget share S/n. The paper cites AMP's advantage over it.
type ALP = baseline.ALP

// AlgorithmByName resolves an algorithm identifier (as used by the CLI
// tools and configuration files) to an implementation. Recognized names,
// case-insensitive: amp, alp, minfinish, mincost, minruntime, minproctime,
// minproctimegreedy, minenergy, firstfit. seed feeds the randomized
// MinProcTime variant.
func AlgorithmByName(name string, seed uint64) (Algorithm, error) {
	return baseline.AlgorithmByName(name, seed)
}

// Generic weights for Extreme.
var (
	// WeightProcTime minimizes the total CPU time.
	WeightProcTime = generic.WeightProcTime

	// WeightCost minimizes the total allocation cost.
	WeightCost = generic.WeightCost
)

// Replay verifies that the windows are executable on the environment (every
// task inside a published slot, no node double-booking) and returns the
// event trace and realized metrics.
func Replay(e *Environment, windows []*Window) (*ExecReport, error) {
	return execsim.Replay(e, windows)
}
