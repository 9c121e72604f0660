package experiments

import (
	"errors"
	"fmt"

	"slotsel/internal/core"
	"slotsel/internal/csa"
	"slotsel/internal/env"
	"slotsel/internal/parallel"
	"slotsel/internal/randx"
)

// RunQualityParallel executes the quality study across a worker pool. Each
// scheduling cycle draws its environment from a per-cycle seed derived from
// cfg.Seed, so the result is deterministic for a given configuration
// (including Workers), though not byte-identical to the sequential
// RunQuality, whose cycles share one random stream.
//
// Workers <= 0 selects GOMAXPROCS.
func RunQualityParallel(cfg QualityConfig, workers int) (*QualityResult, error) {
	if cfg.Cycles <= 0 {
		return nil, fmt.Errorf("experiments: quality study needs positive cycles, got %d", cfg.Cycles)
	}
	if err := cfg.Request.Validate(); err != nil {
		return nil, err
	}
	workers = parallel.Workers(workers)
	if workers > cfg.Cycles {
		workers = cfg.Cycles
	}

	// Each worker accumulates into private stats on the shared worker pool
	// (parallel.ForEachWorker); the shards merge at the end in worker-id
	// order (metrics.Accumulator supports exact parallel merging), so the
	// result does not depend on goroutine scheduling.
	type shard struct {
		res *QualityResult
		err error
	}
	shards := make([]shard, workers)
	parallel.ForEachWorker(workers, func(wk int) {
		res := &QualityResult{Config: cfg, CSA: newCSAStats()}
		stats := make(map[string]*WindowStats)
		algs := standardAlgorithms(cfg.Seed ^ 0x5eed ^ uint64(wk))
		for _, a := range algs {
			st := &WindowStats{Name: a.Name()}
			stats[a.Name()] = st
			res.Algos = append(res.Algos, st)
		}
		csaOpts := csa.Options{MinSlotLength: cfg.Env.MinSlotLength}
		for cycle := wk; cycle < cfg.Cycles; cycle += workers {
			rng := randx.New(cfg.Seed ^ (uint64(cycle)+1)*0x9e3779b97f4a7c15)
			e := env.Generate(cfg.Env, rng)
			req := cfg.Request
			for _, a := range algs {
				w, err := core.FindObserved(a, e.Slots.Cursor(), &req, cfg.Collector)
				if errors.Is(err, core.ErrNoWindow) {
					stats[a.Name()].Missed++
					continue
				}
				if err != nil {
					shards[wk].err = fmt.Errorf("experiments: %s: %w", a.Name(), err)
					return
				}
				stats[a.Name()].Observe(w)
			}
			alts, err := csa.Search(e.Slots, &req, csaOpts, cfg.Collector)
			if errors.Is(err, core.ErrNoWindow) {
				res.CSA.Missed++
				continue
			}
			if err != nil {
				shards[wk].err = fmt.Errorf("experiments: CSA: %w", err)
				return
			}
			res.CSA.Alternatives.Add(float64(len(alts)))
			for _, c := range AllCriteria {
				best := csa.Best(alts, c)
				res.CSA.Best[c].Add(c.Value(best))
				res.CSA.BestWindows[c].Observe(best)
			}
		}
		shards[wk].res = res
	})

	merged := &QualityResult{Config: cfg, CSA: newCSAStats()}
	for i := range AlgoNames {
		merged.Algos = append(merged.Algos, &WindowStats{Name: AlgoNames[i]})
	}
	byName := make(map[string]*WindowStats, len(merged.Algos))
	for _, s := range merged.Algos {
		byName[s.Name] = s
	}
	for _, sh := range shards {
		if sh.err != nil {
			return nil, sh.err
		}
		for _, s := range sh.res.Algos {
			dst := byName[s.Name]
			dst.Found += s.Found
			dst.Missed += s.Missed
			dst.Start.Merge(&s.Start)
			dst.Runtime.Merge(&s.Runtime)
			dst.Finish.Merge(&s.Finish)
			dst.ProcTime.Merge(&s.ProcTime)
			dst.Cost.Merge(&s.Cost)
		}
		merged.CSA.Missed += sh.res.CSA.Missed
		merged.CSA.Alternatives.Merge(&sh.res.CSA.Alternatives)
		for _, c := range AllCriteria {
			merged.CSA.Best[c].Merge(sh.res.CSA.Best[c])
			dst, src := merged.CSA.BestWindows[c], sh.res.CSA.BestWindows[c]
			dst.Found += src.Found
			dst.Missed += src.Missed
			dst.Start.Merge(&src.Start)
			dst.Runtime.Merge(&src.Runtime)
			dst.Finish.Merge(&src.Finish)
			dst.ProcTime.Merge(&src.ProcTime)
			dst.Cost.Merge(&src.Cost)
		}
	}
	return merged, nil
}
