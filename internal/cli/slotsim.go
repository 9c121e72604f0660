// Package cli implements the command-line tools (slotsim, slotgen,
// slotfind) as testable functions: each takes an argument vector and output
// writers and returns a process exit code. The cmd/ mains are one-line
// wrappers.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"slotsel/internal/experiments"
	"slotsel/internal/vosim"
)

// Slotsim runs the experiment driver (see cmd/slotsim).
func Slotsim(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("slotsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cycles     = fs.Int("cycles", 0, "scheduling cycles (0 = experiment default: 5000 quality, 1000 timing)")
		seed       = fs.Uint64("seed", 1, "random seed")
		nodeCount  = fs.Int("nodes", 100, "CPU node count for quality experiments")
		horizon    = fs.Float64("horizon", 600, "scheduling interval length")
		tasks      = fs.Int("tasks", 5, "parallel slots required by the base job")
		volume     = fs.Float64("volume", 150, "task volume of the base job")
		budget     = fs.Float64("budget", 1500, "total cost limit of the base job")
		pricingLin = fs.Bool("linear-pricing", false, "use strictly linear pricing (ablation; default is the market-premium model)")
		workers    = fs.Int("workers", 0, "run the quality study's cycles on a pool of this many workers (0 = sequential, matching the paper's setup)")
		csvPath    = fs.String("csv", "", "also write machine-readable results to this CSV file (quality, timing and sweep experiments)")
		svgDir     = fs.String("svg", "", "also render figures as SVG files into this directory (quality figures and timing curves)")
		sweepNodes = fs.String("sweep-nodes", "", "comma-separated node counts for table1 (default: the paper's 50,100,200,300,400)")
		sweepHoriz = fs.String("sweep-horizons", "", "comma-separated interval lengths for table2 (default: the paper's 600..3600)")
	)
	obsF := registerObsFlags(fs)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: slotsim [flags] <fig2|fig3|fig4|table1|table2|summary|ablate|tasks|frontier|hetero|deadline|batch|longrun|all>\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	if *workers < 0 {
		fmt.Fprintln(stderr, "slotsim: -workers must be >= 0")
		return 2
	}

	// The aggregating collector feeds the quality and batch studies; the
	// other experiments run uninstrumented (their configs have no collector
	// seam — timing results would be skewed by instrumentation anyway).
	agg := &experiments.ObsAgg{}
	col, err := obsF.setup("slotsim", agg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "slotsim:", err)
		return 1
	}

	qcfg := experiments.DefaultQualityConfig()
	qcfg.Collector = col
	qcfg.Seed = *seed
	qcfg.Env = qcfg.Env.WithNodeCount(*nodeCount).WithHorizon(*horizon)
	qcfg.Request.TaskCount = *tasks
	qcfg.Request.Volume = *volume
	qcfg.Request.MaxCost = *budget
	if *pricingLin {
		qcfg.Env.Nodes.Pricing.Degree = 1
	}
	if *cycles > 0 {
		qcfg.Cycles = *cycles
	}

	tcfg := experiments.DefaultTimingConfig()
	tcfg.Seed = *seed
	tcfg.Request = qcfg.Request
	tcfg.Env = qcfg.Env
	if *cycles > 0 {
		tcfg.Cycles = *cycles
	}
	if *sweepNodes != "" {
		vals, err := parseFloats(*sweepNodes)
		if err != nil {
			fmt.Fprintf(stderr, "slotsim: -sweep-nodes: %v\n", err)
			return 2
		}
		tcfg.NodeCounts = tcfg.NodeCounts[:0]
		for _, v := range vals {
			tcfg.NodeCounts = append(tcfg.NodeCounts, int(v))
		}
	}
	if *sweepHoriz != "" {
		vals, err := parseFloats(*sweepHoriz)
		if err != nil {
			fmt.Fprintf(stderr, "slotsim: -sweep-horizons: %v\n", err)
			return 2
		}
		tcfg.Horizons = vals
	}

	acfg := experiments.DefaultAblationConfig()
	acfg.Seed = *seed
	acfg.Request = qcfg.Request
	if *cycles > 0 {
		acfg.Cycles = *cycles
	}

	scfg := experiments.DefaultSweepConfig()
	scfg.Seed = *seed
	scfg.Env = qcfg.Env
	scfg.Request = qcfg.Request
	if *cycles > 0 {
		scfg.Cycles = *cycles
	}

	bcfg := experiments.DefaultBatchStudyConfig()
	bcfg.Collector = col
	bcfg.Seed = *seed
	bcfg.Env = qcfg.Env
	if *cycles > 0 {
		bcfg.Cycles = *cycles
	}

	runQuality := func(cfg experiments.QualityConfig) (*experiments.QualityResult, error) {
		if *workers > 0 {
			return experiments.RunQualityParallel(cfg, *workers)
		}
		return experiments.RunQuality(cfg)
	}

	s := &slotsimRun{stdout: stdout, runQuality: runQuality, csvPath: *csvPath, svgDir: *svgDir}
	switch cmd := fs.Arg(0); cmd {
	case "fig2":
		err = s.qualityFigures(qcfg, []figSpec{
			{experiments.MetricStart, "Fig. 2 (a)"},
			{experiments.MetricRuntime, "Fig. 2 (b)"},
		})
	case "fig3":
		err = s.qualityFigures(qcfg, []figSpec{
			{experiments.MetricFinish, "Fig. 3 (a)"},
			{experiments.MetricProcTime, "Fig. 3 (b)"},
		})
	case "fig4":
		err = s.qualityFigures(qcfg, []figSpec{
			{experiments.MetricCost, "Fig. 4"},
		})
	case "summary":
		err = s.summary(qcfg)
	case "table1":
		err = s.table1(tcfg)
	case "table2":
		err = s.table2(tcfg)
	case "ablate":
		err = s.ablations(acfg)
	case "tasks":
		err = s.taskSweep(scfg)
	case "frontier":
		err = s.frontier(scfg)
	case "hetero":
		err = s.heterogeneity(scfg)
	case "deadline":
		err = s.deadlineSweep(scfg)
	case "batch":
		err = s.batchStudy(bcfg)
	case "longrun":
		vcfg := vosim.DefaultConfig()
		vcfg.Seed = *seed
		vcfg.Nodes.Count = *nodeCount
		if *cycles > 0 {
			vcfg.Cycles = *cycles
		}
		err = s.longRun(vcfg)
	case "all":
		err = s.all(qcfg, tcfg, acfg, scfg, bcfg)
	default:
		fmt.Fprintf(stderr, "slotsim: unknown experiment %q\n", cmd)
		fs.Usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "slotsim:", err)
		return 1
	}
	if obsF.stats {
		agg.Render(stdout)
	}
	if err := obsF.finish(); err != nil {
		fmt.Fprintln(stderr, "slotsim:", err)
		return 1
	}
	return 0
}

type slotsimRun struct {
	stdout     io.Writer
	runQuality func(experiments.QualityConfig) (*experiments.QualityResult, error)
	csvPath    string
	svgDir     string
}

// writeSVG renders one figure into <svgDir>/<name>.svg when -svg is set.
func (s *slotsimRun) writeSVG(name string, write func(io.Writer) error) error {
	if s.svgDir == "" {
		return nil
	}
	if err := os.MkdirAll(s.svgDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(s.svgDir, name+".svg"))
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseFloats parses a comma-separated list of positive numbers.
func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(part, "%g", &v); err != nil || v <= 0 {
			return nil, fmt.Errorf("invalid value %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

// svgName turns a paper label like "Fig. 2 (a)" into "fig2a".
func svgName(label string) string {
	var b strings.Builder
	for _, r := range label {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r + ('a' - 'A'))
		}
	}
	return b.String()
}

// writeCSV writes one experiment's machine-readable output when -csv is set.
func (s *slotsimRun) writeCSV(write func(io.Writer) error) error {
	if s.csvPath == "" {
		return nil
	}
	f, err := os.Create(s.csvPath)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type figSpec struct {
	metric experiments.FigureMetric
	label  string
}

func (s *slotsimRun) qualityFigures(cfg experiments.QualityConfig, specs []figSpec) error {
	res, err := s.runQuality(cfg)
	if err != nil {
		return err
	}
	for _, spec := range specs {
		res.RenderFigure(s.stdout, spec.metric, spec.label)
		spec := spec
		if err := s.writeSVG(svgName(spec.label), func(w io.Writer) error {
			return res.WriteFigureSVG(w, spec.metric, spec.label)
		}); err != nil {
			return err
		}
	}
	return s.writeCSV(res.WriteQualityCSV)
}

func (s *slotsimRun) summary(cfg experiments.QualityConfig) error {
	res, err := s.runQuality(cfg)
	if err != nil {
		return err
	}
	res.RenderSummary(s.stdout)
	return s.writeCSV(res.WriteQualityCSV)
}

func (s *slotsimRun) table1(cfg experiments.TimingConfig) error {
	res, err := experiments.RunNodeSweep(cfg)
	if err != nil {
		return err
	}
	res.RenderTable(s.stdout, "Table 1. Actual algorithms execution time vs CPU node count")
	res.RenderCurves(s.stdout, "Fig. 5. Average working time vs available CPU nodes (CSA omitted as in the paper)", false)
	if err := s.writeSVG("fig5", func(w io.Writer) error {
		return res.WriteCurvesSVG(w, "Fig. 5 — working time vs CPU nodes", false)
	}); err != nil {
		return err
	}
	return s.writeCSV(res.WriteTimingCSV)
}

func (s *slotsimRun) table2(cfg experiments.TimingConfig) error {
	res, err := experiments.RunIntervalSweep(cfg)
	if err != nil {
		return err
	}
	res.RenderTable(s.stdout, "Table 2. Algorithms working time vs scheduling interval length")
	res.RenderCurves(s.stdout, "Fig. 6. Average working time vs scheduling interval length", true)
	if err := s.writeSVG("fig6", func(w io.Writer) error {
		return res.WriteCurvesSVG(w, "Fig. 6 — working time vs interval length", true)
	}); err != nil {
		return err
	}
	return s.writeCSV(res.WriteTimingCSV)
}

func (s *slotsimRun) ablations(cfg experiments.AblationConfig) error {
	pricing, err := experiments.RunPricingAblation(cfg)
	if err != nil {
		return err
	}
	for _, res := range pricing {
		experiments.RenderAblation(s.stdout, res)
	}
	budgetCheck, err := experiments.RunBudgetCheckAblation(cfg)
	if err != nil {
		return err
	}
	experiments.RenderAblation(s.stdout, budgetCheck)
	greedy, err := experiments.RunGreedyVsExactAblation(cfg)
	if err != nil {
		return err
	}
	for _, res := range greedy {
		experiments.RenderAblation(s.stdout, res)
	}
	ampALP, err := experiments.RunAMPvsALP(cfg)
	if err != nil {
		return err
	}
	experiments.RenderAblation(s.stdout, ampALP)
	return nil
}

func (s *slotsimRun) taskSweep(cfg experiments.SweepConfig) error {
	results, err := experiments.RunTaskCountSweep(cfg)
	if err != nil {
		return err
	}
	experiments.RenderSweep(s.stdout, "Extension: window quality vs job parallelism n (budget = n x per-task budget)",
		"tasks", results, func(p *experiments.SweepPoint) float64 { return p.Runtime.Mean() }, "runtime")
	experiments.RenderSweep(s.stdout, "Extension: start time vs job parallelism n",
		"tasks", results, func(p *experiments.SweepPoint) float64 { return p.Start.Mean() }, "start")
	return s.writeCSV(func(w io.Writer) error { return experiments.WriteSweepCSV(w, results) })
}

func (s *slotsimRun) frontier(cfg experiments.SweepConfig) error {
	results, err := experiments.RunBudgetFrontier(cfg)
	if err != nil {
		return err
	}
	experiments.RenderSweep(s.stdout, "Extension: cost-runtime frontier — runtime vs user budget",
		"budget", results, func(p *experiments.SweepPoint) float64 { return p.Runtime.Mean() }, "runtime")
	experiments.RenderSweep(s.stdout, "Extension: cost-runtime frontier — realized cost vs user budget",
		"budget", results, func(p *experiments.SweepPoint) float64 { return p.Cost.Mean() }, "cost")
	return s.writeCSV(func(w io.Writer) error { return experiments.WriteSweepCSV(w, results) })
}

func (s *slotsimRun) heterogeneity(cfg experiments.SweepConfig) error {
	results, err := experiments.RunHeterogeneitySweep(cfg)
	if err != nil {
		return err
	}
	experiments.RenderSweep(s.stdout, "Extension: runtime vs performance heterogeneity (perf = 6 ± halfwidth)",
		"halfwidth", results, func(p *experiments.SweepPoint) float64 { return p.Runtime.Mean() }, "runtime")
	experiments.RenderSweep(s.stdout, "Extension: cost vs performance heterogeneity",
		"halfwidth", results, func(p *experiments.SweepPoint) float64 { return p.Cost.Mean() }, "cost")
	return s.writeCSV(func(w io.Writer) error { return experiments.WriteSweepCSV(w, results) })
}

func (s *slotsimRun) deadlineSweep(cfg experiments.SweepConfig) error {
	results, err := experiments.RunDeadlineSweep(cfg)
	if err != nil {
		return err
	}
	experiments.RenderSweep(s.stdout, "Extension: finish time and feasibility vs deadline",
		"deadline", results, func(p *experiments.SweepPoint) float64 { return p.Finish.Mean() }, "finish")
	experiments.RenderSweep(s.stdout, "Extension: realized cost vs deadline",
		"deadline", results, func(p *experiments.SweepPoint) float64 { return p.Cost.Mean() }, "cost")
	return s.writeCSV(func(w io.Writer) error { return experiments.WriteSweepCSV(w, results) })
}

func (s *slotsimRun) batchStudy(cfg experiments.BatchStudyConfig) error {
	res, err := experiments.RunBatchStudy(cfg)
	if err != nil {
		return err
	}
	res.Render(s.stdout)
	return nil
}

func (s *slotsimRun) longRun(cfg vosim.Config) error {
	fmt.Fprintf(s.stdout, "long-run VO simulation: %d cycles, advance %.0f, horizon %.0f, arrival rate %.1f jobs/cycle\n\n",
		cfg.Cycles, cfg.CycleAdvance, cfg.Horizon, cfg.ArrivalRate)
	fmt.Fprintln(s.stdout, "policy     accepted  dropped  queue  wait(cyc)  avg cost  avg finish  utilization")
	for _, policy := range []vosim.Policy{vosim.PolicyTwoStage, vosim.PolicyFCFS, vosim.PolicyMinCost} {
		c := cfg
		c.Policy = policy
		res, err := vosim.Run(c)
		if err != nil {
			return err
		}
		fmt.Fprintf(s.stdout, "%-9s  %7.0f%%  %7d  %5.1f  %9.2f  %8.1f  %10.1f  %10.1f%%\n",
			policy, 100*res.AcceptanceRate(), res.Dropped,
			res.QueueLength.Mean(), res.WaitCycles.Mean(),
			res.WindowCost.Mean(), res.WindowFinish.Mean(), 100*res.BrokerUtilization)
	}
	return nil
}

func (s *slotsimRun) all(q experiments.QualityConfig, t experiments.TimingConfig,
	a experiments.AblationConfig, sc experiments.SweepConfig, bc experiments.BatchStudyConfig) error {
	res, err := s.runQuality(q)
	if err != nil {
		return err
	}
	for _, spec := range []figSpec{
		{experiments.MetricStart, "Fig. 2 (a)"},
		{experiments.MetricRuntime, "Fig. 2 (b)"},
		{experiments.MetricFinish, "Fig. 3 (a)"},
		{experiments.MetricProcTime, "Fig. 3 (b)"},
		{experiments.MetricCost, "Fig. 4"},
	} {
		res.RenderFigure(s.stdout, spec.metric, spec.label)
	}
	res.RenderSummary(s.stdout)
	if err := s.table1(t); err != nil {
		return err
	}
	if err := s.table2(t); err != nil {
		return err
	}
	if err := s.ablations(a); err != nil {
		return err
	}
	if err := s.taskSweep(sc); err != nil {
		return err
	}
	if err := s.frontier(sc); err != nil {
		return err
	}
	return s.batchStudy(bc)
}
