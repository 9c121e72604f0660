package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"slotsel"
	"slotsel/internal/core"
	"slotsel/internal/csa"
	"slotsel/internal/job"
	"slotsel/internal/obs"
	"slotsel/internal/parallel"
	"slotsel/internal/persist"
	"slotsel/internal/slots"
	"slotsel/internal/tablefmt"
)

// Slotfind selects a window on an environment snapshot (see cmd/slotfind).
func Slotfind(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("slotfind", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		envPath  = fs.String("env", "", "environment snapshot (from slotgen); required")
		reqPath  = fs.String("request", "", "resource request JSON file (overrides -tasks/-volume/... flags)")
		algName  = fs.String("alg", "amp", "algorithm, or a comma-separated list to compare several: amp|minfinish|mincost|minruntime|minproctime|minenergy|firstfit")
		tasks    = fs.Int("tasks", 5, "parallel slots required")
		volume   = fs.Float64("volume", 150, "task volume")
		budget   = fs.Float64("budget", 1500, "total cost limit (0 = unconstrained)")
		deadline = fs.Float64("deadline", 0, "finish deadline (0 = none)")
		minPerf  = fs.Float64("min-perf", 0, "minimum node performance (0 = none)")
		alts     = fs.Bool("alternatives", false, "run CSA and list all disjoint alternatives instead")
		asJSON   = fs.Bool("json", false, "emit the window as JSON")
		gantt    = fs.Bool("gantt", false, "draw the selected nodes' timelines (published slots '=', allocation '#')")
		seed     = fs.Uint64("seed", 1, "seed for the randomized MinProcTime algorithm")
		workers  = fs.Int("workers", 1, "worker-pool size when -alg lists several algorithms (0 = GOMAXPROCS; results are identical for any value)")
	)
	obsF := registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *envPath == "" {
		fmt.Fprintln(stderr, "slotfind: -env is required")
		fs.Usage()
		return 2
	}
	if *workers < 0 {
		fmt.Fprintln(stderr, "slotfind: -workers must be >= 0")
		return 2
	}

	f, err := os.Open(*envPath)
	if err != nil {
		fmt.Fprintln(stderr, "slotfind:", err)
		return 1
	}
	e, err := persist.ReadEnvironment(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(stderr, "slotfind:", err)
		return 1
	}

	req := job.Request{
		TaskCount: *tasks, Volume: *volume, MaxCost: *budget,
		Deadline: *deadline, MinPerf: *minPerf,
	}
	if *reqPath != "" {
		rf, err := os.Open(*reqPath)
		if err != nil {
			fmt.Fprintln(stderr, "slotfind:", err)
			return 1
		}
		loaded, err := persist.ReadRequest(rf)
		rf.Close()
		if err != nil {
			fmt.Fprintln(stderr, "slotfind:", err)
			return 1
		}
		req = *loaded
	}

	stats := &obs.Stats{}
	col, err := obsF.setup("slotfind", stats, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "slotfind:", err)
		return 1
	}
	// finish flushes the observability outputs on every exit path past this
	// point: the stats block after the tool's normal output, then the trace
	// file. A flush failure turns a successful run into exit 1.
	finish := func(code int) int {
		if obsF.stats {
			fmt.Fprintln(stdout)
			stats.Snapshot().WriteText(stdout)
		}
		if err := obsF.finish(); err != nil {
			fmt.Fprintln(stderr, "slotfind:", err)
			if code == 0 {
				code = 1
			}
		}
		return code
	}

	if *alts {
		found, err := csa.Search(e.Slots, &req, csa.Options{MinSlotLength: 10}, col)
		if errors.Is(err, core.ErrNoWindow) {
			fmt.Fprintln(stdout, "no feasible window")
			return finish(1)
		}
		if err != nil {
			fmt.Fprintln(stderr, "slotfind:", err)
			return finish(1)
		}
		fmt.Fprintf(stdout, "%d disjoint alternatives:\n", len(found))
		for i, w := range found {
			fmt.Fprintf(stdout, "  #%-3d start=%8.2f finish=%8.2f runtime=%7.2f cpu=%8.2f cost=%9.2f\n",
				i+1, w.Start, w.Finish(), w.Runtime, w.ProcTime, w.Cost)
		}
		return finish(0)
	}

	names := strings.Split(*algName, ",")
	if len(names) > 1 {
		return finish(findMany(e.Slots, &req, names, *seed, *workers, col, stdout, stderr))
	}

	alg, err := slotsel.AlgorithmByName(*algName, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "slotfind: %v\n", err)
		return 2
	}

	w, err := core.FindObserved(alg, e.Slots, &req, col)
	if errors.Is(err, core.ErrNoWindow) {
		fmt.Fprintln(stdout, "no feasible window")
		return finish(1)
	}
	if err != nil {
		fmt.Fprintln(stderr, "slotfind:", err)
		return finish(1)
	}
	if *asJSON {
		if err := persist.WriteWindow(stdout, w); err != nil {
			fmt.Fprintln(stderr, "slotfind:", err)
			return finish(1)
		}
		return finish(0)
	}
	fmt.Fprintf(stdout, "%s: start=%.2f finish=%.2f runtime=%.2f cpu=%.2f cost=%.2f\n",
		alg.Name(), w.Start, w.Finish(), w.Runtime, w.ProcTime, w.Cost)
	w.SortPlacementsByNode()
	for _, p := range w.Placements {
		n := p.Node()
		fmt.Fprintf(stdout, "  node %4d perf %4.1f price %7.3f  [%8.2f, %8.2f)  cost %8.2f\n",
			n.ID, n.Perf, n.Price, p.Start, p.Finish(), p.Cost)
	}
	if *gantt {
		chart := tablefmt.NewGantt(e.Horizon)
		selected := make(map[int]bool, len(w.Placements))
		for _, p := range w.Placements {
			selected[p.Node().ID] = true
		}
		for _, s := range e.Slots {
			if selected[s.Node.ID] {
				chart.Span(s.Node.ID, s.Start, s.End, '=')
			}
		}
		for _, p := range w.Placements {
			used := p.Used()
			chart.Span(p.Node().ID, used.Start, used.End, '#')
		}
		fmt.Fprintln(stdout)
		chart.Render(stdout)
	}
	return finish(0)
}

// findMany runs several algorithms concurrently over the shared slot list
// (parallel.FindAll — results and counters are identical to running them
// one by one) and prints a comparison table. Exit code 0 if at least one
// algorithm found a window, 1 if none did, 2 on a bad algorithm name.
func findMany(list slots.List, req *job.Request, names []string, seed uint64, workers int, col obs.Collector, stdout, stderr io.Writer) int {
	algs := make([]core.Algorithm, 0, len(names))
	for _, name := range names {
		alg, err := slotsel.AlgorithmByName(strings.TrimSpace(name), seed)
		if err != nil {
			fmt.Fprintf(stderr, "slotfind: %v\n", err)
			return 2
		}
		algs = append(algs, alg)
	}
	found := 0
	t := tablefmt.New("algorithm", "start", "finish", "runtime", "cpu", "cost")
	for _, res := range parallel.FindAll(list, req, algs, workers, col) {
		if errors.Is(res.Err, core.ErrNoWindow) {
			t.AddRow(res.Algorithm.Name(), "-", "-", "-", "-", "no window")
			continue
		}
		if res.Err != nil {
			fmt.Fprintf(stderr, "slotfind: %s: %v\n", res.Algorithm.Name(), res.Err)
			return 1
		}
		found++
		w := res.Window
		t.AddRow(res.Algorithm.Name(),
			fmt.Sprintf("%.2f", w.Start), fmt.Sprintf("%.2f", w.Finish()),
			fmt.Sprintf("%.2f", w.Runtime), fmt.Sprintf("%.2f", w.ProcTime),
			fmt.Sprintf("%.2f", w.Cost))
	}
	t.Render(stdout)
	if found == 0 {
		fmt.Fprintln(stdout, "no feasible window")
		return 1
	}
	return 0
}
