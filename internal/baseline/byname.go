package baseline

import (
	"fmt"
	"strings"

	"slotsel/internal/core"
)

// AlgorithmByName resolves an algorithm identifier, case-insensitive, to an
// implementation: amp, alp, minfinish, mincost, minruntime, minproctime,
// minproctimegreedy, minenergy, firstfit. seed feeds the randomized
// MinProcTime variant. It lives here because this package sees every
// algorithm: core's criteria and the baselines.
func AlgorithmByName(name string, seed uint64) (core.Algorithm, error) {
	switch strings.ToLower(name) {
	case "amp":
		return core.AMP{}, nil
	case "alp":
		return ALP{}, nil
	case "minfinish":
		return core.MinFinish{}, nil
	case "mincost":
		return core.MinCost{}, nil
	case "minruntime":
		return core.MinRunTime{}, nil
	case "minproctime":
		return core.MinProcTime{Seed: seed}, nil
	case "minproctimegreedy":
		return core.MinProcTimeGreedy{}, nil
	case "minenergy":
		return core.MinEnergy{}, nil
	case "firstfit":
		return FirstFit{}, nil
	}
	return nil, fmt.Errorf("slotsel: unknown algorithm %q", name)
}
