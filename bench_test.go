// Benchmark harness regenerating the paper's evaluation: one benchmark per
// figure and table.
//
//   - BenchmarkFig2a/2b, Fig3a/3b, Fig4: the quality figures. Each iteration
//     performs one full scheduling cycle (all five single-alternative
//     algorithms plus CSA) on a fresh §3.1 environment; the figure's metric
//     means are attached via b.ReportMetric, so `go test -bench Fig4`
//     prints both the working time and the reproduced bar values.
//   - BenchmarkTable1/BenchmarkFig5: per-algorithm working time as a
//     function of the CPU node count {50..400} — the ns/op column IS the
//     table cell (the paper reports milliseconds on JRE 1.6; shape, not
//     absolute values, is the reproduction target).
//   - BenchmarkTable2/BenchmarkFig6: the same as a function of the
//     scheduling interval length {600..3600}.
package slotsel_test

import (
	"errors"
	"fmt"
	"testing"

	"slotsel"
	"slotsel/internal/batchsched"
	"slotsel/internal/csa"
	"slotsel/internal/experiments"
	"slotsel/internal/job"
	"slotsel/internal/nodes"
	"slotsel/internal/randx"
	"slotsel/internal/workload"
)

// benchEnvs pre-generates a pool of environments so that environment
// construction cost can be kept out of the measured loop where appropriate.
func benchEnvs(count int, cfg slotsel.EnvConfig, seed uint64) []*slotsel.Environment {
	rng := slotsel.NewRand(seed)
	out := make([]*slotsel.Environment, count)
	for i := range out {
		out[i] = slotsel.GenerateEnvironment(cfg, rng)
	}
	return out
}

func benchAlgorithms() []slotsel.Algorithm {
	return []slotsel.Algorithm{
		slotsel.AMP{},
		slotsel.MinFinish{},
		slotsel.MinCost{},
		slotsel.MinRunTime{},
		slotsel.MinProcTime{Seed: 0x5eed},
	}
}

// qualityFigureBench runs full scheduling cycles and reports the figure's
// per-algorithm metric means.
func qualityFigureBench(b *testing.B, metric experiments.FigureMetric) {
	envs := benchEnvs(16, slotsel.DefaultEnvConfig(), 1)
	req := slotsel.DefaultRequest()
	algs := benchAlgorithms()
	sums := make(map[string]float64)
	counts := make(map[string]int)
	crit := metric.Criterion()

	value := func(w *slotsel.Window) float64 {
		switch metric {
		case experiments.MetricStart:
			return w.Start
		case experiments.MetricRuntime:
			return w.Runtime
		case experiments.MetricFinish:
			return w.Finish()
		case experiments.MetricProcTime:
			return w.ProcTime
		case experiments.MetricCost:
			return w.Cost
		}
		return 0
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := envs[i%len(envs)]
		for _, alg := range algs {
			w, err := alg.Find(e.Slots, &req)
			if errors.Is(err, slotsel.ErrNoWindow) {
				continue
			}
			if err != nil {
				b.Fatal(err)
			}
			sums[alg.Name()] += value(w)
			counts[alg.Name()]++
		}
		alts, err := slotsel.SearchAlternatives(e.Slots, &req, slotsel.CSAOptions{MinSlotLength: 10})
		if err != nil && !errors.Is(err, slotsel.ErrNoWindow) {
			b.Fatal(err)
		}
		if len(alts) > 0 {
			sums["CSA"] += crit.Value(slotsel.BestAlternative(alts, crit))
			counts["CSA"]++
		}
	}
	b.StopTimer()
	for name, sum := range sums {
		if counts[name] > 0 {
			b.ReportMetric(sum/float64(counts[name]), name)
		}
	}
}

func BenchmarkFig2aStartTime(b *testing.B)  { qualityFigureBench(b, experiments.MetricStart) }
func BenchmarkFig2bRuntime(b *testing.B)    { qualityFigureBench(b, experiments.MetricRuntime) }
func BenchmarkFig3aFinishTime(b *testing.B) { qualityFigureBench(b, experiments.MetricFinish) }
func BenchmarkFig3bProcTime(b *testing.B)   { qualityFigureBench(b, experiments.MetricProcTime) }
func BenchmarkFig4Cost(b *testing.B)        { qualityFigureBench(b, experiments.MetricCost) }

// timedAlgorithm runs one algorithm (or CSA) over pooled environments; the
// reported ns/op is the table cell.
func timedAlgorithm(b *testing.B, envs []*slotsel.Environment, name string) {
	req := slotsel.DefaultRequest()
	var alg slotsel.Algorithm
	switch name {
	case "AMP":
		alg = slotsel.AMP{}
	case "MinRunTime":
		alg = slotsel.MinRunTime{}
	case "MinFinish":
		alg = slotsel.MinFinish{}
	case "MinProcTime":
		alg = slotsel.MinProcTime{Seed: 0x5eed}
	case "MinCost":
		alg = slotsel.MinCost{}
	}
	b.ResetTimer()
	if name == "CSA" {
		alternatives := 0.0
		for i := 0; i < b.N; i++ {
			alts, err := slotsel.SearchAlternatives(envs[i%len(envs)].Slots, &req, slotsel.CSAOptions{MinSlotLength: 10})
			if err != nil && !errors.Is(err, slotsel.ErrNoWindow) {
				b.Fatal(err)
			}
			alternatives += float64(len(alts))
		}
		b.ReportMetric(alternatives/float64(b.N), "alternatives/op")
		return
	}
	for i := 0; i < b.N; i++ {
		if _, err := alg.Find(envs[i%len(envs)].Slots, &req); err != nil && !errors.Is(err, slotsel.ErrNoWindow) {
			b.Fatal(err)
		}
	}
}

// Table 1 / Fig. 5: working time vs CPU node count. The paper's Fig. 5 is
// the same data as Table 1 without the CSA curve; BenchmarkFig5 therefore
// covers the AEP-like algorithms and BenchmarkTable1 adds CSA.
func benchNodeSweep(b *testing.B, algNames []string) {
	for _, nodes := range []int{50, 100, 200, 300, 400} {
		cfg := slotsel.DefaultEnvConfig().WithNodeCount(nodes)
		envs := benchEnvs(4, cfg, uint64(nodes))
		for _, name := range algNames {
			b.Run(fmt.Sprintf("nodes=%d/%s", nodes, name), func(b *testing.B) {
				timedAlgorithm(b, envs, name)
			})
		}
	}
}

func BenchmarkTable1WorkingTime(b *testing.B) {
	benchNodeSweep(b, []string{"CSA", "AMP", "MinRunTime", "MinFinish", "MinProcTime", "MinCost"})
}

func BenchmarkFig5WorkingTime(b *testing.B) {
	benchNodeSweep(b, []string{"AMP", "MinRunTime", "MinFinish", "MinProcTime", "MinCost"})
}

// Table 2 / Fig. 6: working time vs scheduling interval length.
func benchIntervalSweep(b *testing.B, algNames []string) {
	for _, horizon := range []float64{600, 1200, 1800, 2400, 3000, 3600} {
		cfg := slotsel.DefaultEnvConfig().WithHorizon(horizon)
		envs := benchEnvs(4, cfg, uint64(horizon))
		for _, name := range algNames {
			b.Run(fmt.Sprintf("interval=%.0f/%s", horizon, name), func(b *testing.B) {
				timedAlgorithm(b, envs, name)
			})
		}
	}
}

func BenchmarkTable2WorkingTime(b *testing.B) {
	benchIntervalSweep(b, []string{"CSA", "AMP", "MinRunTime", "MinFinish", "MinProcTime", "MinCost"})
}

func BenchmarkFig6WorkingTime(b *testing.B) {
	benchIntervalSweep(b, []string{"CSA", "AMP", "MinRunTime", "MinFinish", "MinProcTime", "MinCost"})
}

// Supporting micro-benchmarks: substrate costs that frame the table numbers.

// Ablation benchmarks: the costs of the design choices DESIGN.md §4 calls
// out, measured head-to-head.

// BenchmarkAblationRuntimeSelection compares the paper's greedy
// runtime-minimizing substitution against the exact prefix selection
// (extension) — the quality ablation (`slotsim ablate`) shows equal mean
// runtime, so working time is the deciding axis.
func BenchmarkAblationRuntimeSelection(b *testing.B) {
	envs := benchEnvs(4, slotsel.DefaultEnvConfig(), 11)
	req := slotsel.DefaultRequest()
	for _, variant := range []struct {
		name string
		alg  slotsel.Algorithm
	}{
		{"greedy", slotsel.MinRunTime{}},
		{"exact", slotsel.MinRunTime{Exact: true}},
		{"literal-budget", slotsel.MinRunTime{LiteralBudget: true}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := variant.alg.Find(envs[i%len(envs)].Slots, &req); err != nil && !errors.Is(err, slotsel.ErrNoWindow) {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationGenericSelection compares the generic §2.1 extreme
// algorithm's per-step solvers: additive greedy vs exact branch and bound.
func BenchmarkAblationGenericSelection(b *testing.B) {
	envs := benchEnvs(4, slotsel.DefaultEnvConfig(), 13)
	req := slotsel.DefaultRequest()
	for _, variant := range []struct {
		name string
		alg  slotsel.Algorithm
	}{
		{"greedy", slotsel.Extreme{Label: "greedy", Weight: slotsel.WeightProcTime}},
		{"exact-bnb", slotsel.Extreme{Label: "exact", Weight: slotsel.WeightProcTime, Exact: true, MaxExactCandidates: 128}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := variant.alg.Find(envs[i%len(envs)].Slots, &req); err != nil && !errors.Is(err, slotsel.ErrNoWindow) {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEnvironmentGeneration(b *testing.B) {
	cfg := slotsel.DefaultEnvConfig()
	rng := slotsel.NewRand(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := slotsel.GenerateEnvironment(cfg, rng)
		if len(e.Slots) == 0 {
			b.Fatal("no slots")
		}
	}
}

// BenchmarkBatchSchedule times both stages of the batch scheme: base is the
// paper's job beside a smaller one on the §3.1 environment, hetero the
// eight-job requirement-diverse batch on 200 nodes.
func BenchmarkBatchSchedule(b *testing.B) {
	base := &slotsel.Batch{}
	base.Add(&slotsel.Job{ID: 1, Priority: 2, Request: slotsel.Request{TaskCount: 5, Volume: 150, MaxCost: 1500}})
	base.Add(&slotsel.Job{ID: 2, Priority: 1, Request: slotsel.Request{TaskCount: 3, Volume: 100, MaxCost: 900}})
	for _, sc := range []struct {
		name   string
		envs   []*slotsel.Environment
		batch  *slotsel.Batch
		budget float64
	}{
		{"base", benchEnvs(4, slotsel.DefaultEnvConfig(), 3), base, 2400},
		{"hetero", benchEnvs(4, slotsel.DefaultEnvConfig().WithNodeCount(200), 29), benchHeteroBatch(), 8000},
	} {
		b.Run(sc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := slotsel.ScheduleBatch(sc.envs[i%len(sc.envs)].Slots, sc.batch,
					slotsel.CSAOptions{MaxAlternatives: 10, MinSlotLength: 10},
					slotsel.SelectConfig{Budget: sc.budget, Criterion: slotsel.ByFinish}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFindAllWorkers: the sequential loop over the nine algorithms
// against FindAllWindows at 1 and 2 workers. Results are identical for every
// worker count (the differential suite proves it); this measures the
// wall-clock effect only, which needs at least two cores to show.

func benchAllAlgorithms() []slotsel.Algorithm {
	return []slotsel.Algorithm{
		slotsel.AMP{},
		slotsel.MinCost{},
		slotsel.MinRunTime{},
		slotsel.MinRunTime{Exact: true},
		slotsel.MinFinish{},
		slotsel.MinFinish{Exact: true},
		slotsel.MinProcTime{Seed: 0x5eed},
		slotsel.MinProcTimeGreedy{},
		slotsel.MinEnergy{},
	}
}

func BenchmarkFindAllWorkers(b *testing.B) {
	envs := benchEnvs(4, slotsel.DefaultEnvConfig().WithNodeCount(200), 19)
	req := slotsel.DefaultRequest()
	algs := benchAllAlgorithms()

	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := req
			for _, alg := range algs {
				if _, err := alg.Find(envs[i%len(envs)].Slots, &r); err != nil && !errors.Is(err, slotsel.ErrNoWindow) {
					b.Fatal(err)
				}
			}
		}
	})
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := req
				for _, res := range slotsel.FindAllWindows(envs[i%len(envs)].Slots, &r, algs, workers) {
					if res.Err != nil && !errors.Is(res.Err, slotsel.ErrNoWindow) {
						b.Fatal(res.Err)
					}
				}
			}
		})
	}
}

// benchHeteroBatch builds a requirement-diverse batch: jobs constrained to
// different OS/architecture classes rarely cut each other's nodes. The
// default §3.1 node generator draws Linux/Windows/Solaris/BSD and
// AMD64/ARM64/PPC64 nodes, so every class is populated.
func benchHeteroBatch() *slotsel.Batch {
	classes := []job.Request{
		{OS: []nodes.OS{nodes.Linux}},
		{OS: []nodes.OS{nodes.Windows}},
		{OS: []nodes.OS{nodes.Solaris}},
		{Arch: []nodes.Arch{nodes.ARM64}},
	}
	batch := &slotsel.Batch{}
	for i := 0; i < 8; i++ {
		req := classes[i%len(classes)]
		req.TaskCount = 3 + i%3
		req.Volume = 100 + float64(20*(i%4))
		req.MaxCost = 2000
		batch.Add(&slotsel.Job{ID: i + 1, Priority: 1 + i%3, Request: req})
	}
	return batch
}

// BenchmarkBatchAlternatives times stage 1 alone on 200 nodes: hetero is
// the requirement-diverse batch, homogeneous one where every job matches
// every node, so each job searches what all the jobs before it cut.
func BenchmarkBatchAlternatives(b *testing.B) {
	envs := benchEnvs(4, slotsel.DefaultEnvConfig().WithNodeCount(200), 23)
	opts := csa.Options{MaxAlternatives: 10, MinSlotLength: 10}
	for _, sc := range []struct {
		name  string
		batch *slotsel.Batch
	}{
		{"hetero", benchHeteroBatch()},
		{"homogeneous", workload.DefaultMix().Batch(randx.New(23), 8)},
	} {
		b.Run(sc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := batchsched.FindAlternatives(envs[i%len(envs)].Slots, sc.batch,
					batchsched.Options{CSA: opts}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
