// Command benchmark is the repository's benchmark: four closed-loop
// workloads against the real slotserve stack booted in-process, seven
// end-to-end metrics from an untraced run, and per-layer metrics from a
// run traced at the seams between server, inventory, core and wal. See
// README.md.
//
//	bash benchmark/run.sh --workload find_hot --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh --seed 1              # every workload, both runs
//	bash benchmark/run.sh --selfcheck           # two sets of runs must agree
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// defaultSeconds is run_seconds of BENCHMARK.json.
const defaultSeconds = 10

func main() {
	var (
		name      = flag.String("workload", "", "run this `workload` in this process; empty = every workload, each in a fresh process")
		seed      = flag.Uint64("seed", 1, "input `seed`: the same seed gives the same inputs")
		seconds   = flag.Int("seconds", defaultSeconds, "how long a run measures on the reference machine; scales the operation counts")
		trace     = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		quick     = flag.Bool("quick", false, "smoke test: 3 rounds of 1/10 size, 1/10 of the pre-population, 2 boots")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice from cold and fail if an end-to-end metric differs by more than its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg := config{
		seed: *seed, seconds: *seconds, quick: *quick,
		scratch: filepath.Join(".bench_build", "scratch"),
		outDir:  filepath.Join("benchmark", "out"),
	}
	var err error
	switch {
	case *selfcheck:
		err = selfCheck(cfg)
	case *name == "":
		err = runAll(cfg)
	default:
		err = runOne(*name, cfg, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// header describes the machine and the durability policy a run used.
func header(cfg config) string {
	var uts syscall.Utsname
	kernel := "unknown"
	if syscall.Uname(&uts) == nil {
		var b []byte
		for _, c := range uts.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		kernel = string(b)
	}
	return fmt.Sprintf("seed=%d seconds=%d nproc=%d GOMAXPROCS=%d clients=%d %s kernel=%s wal=fsync scratch=%s(%s)",
		cfg.seed, cfg.seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), clients(), runtime.Version(), kernel,
		cfg.scratch, fsType(cfg.scratch))
}

// fsType names the filesystem holding dir, which decides what an fsync
// costs.
func fsType(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "unknown"
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("fs-0x%x", st.Type)
}

// runOne runs one workload in this process and prints its metrics, then
// the result object as the last line.
func runOne(name string, cfg config, traced bool) error {
	w := workloadByName(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	fmt.Printf("# %s trace=%v %s\n", w.name, traced, header(cfg))
	res, err := run(w, cfg, traced)
	if err != nil {
		return err
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, line := range res.rounds {
		fmt.Println("#", line)
	}
	printMetrics(os.Stdout, defs, res)
	for _, p := range res.problems {
		fmt.Printf("# PROBLEM: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		return fmt.Errorf("%s: correct=%v, %d of %d operations failed", w.name, res.Correct, res.Failed, res.Attempted)
	}
	return nil
}

func printMetrics(out io.Writer, defs []metricDef, res *result) {
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("%-36s %14.4f %-6s", d.name, m.Value, m.Unit)
		if s, ok := res.spread[d.name]; ok {
			line += fmt.Sprintf("  [best %.4f, worst %.4f]", s[0], s[1])
		}
		fmt.Fprintln(out, strings.TrimRight(line, " "))
	}
	fmt.Fprintf(out, "attempted %d  failed %d  correct %v\n", res.Attempted, res.Failed, res.Correct)
}

// child runs one workload in a fresh process of this binary, passes its
// output through, and returns the result object from its last line.
func child(w *workload, cfg config, traced bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	args := []string{"--workload", w.name, "--seed", fmt.Sprint(cfg.seed), "--seconds", fmt.Sprint(cfg.seconds), "--trace", trace}
	if cfg.quick {
		args = append(args, "--quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	if runErr != nil {
		fmt.Println(last)
		return nil, fmt.Errorf("%s: %w", w.name, runErr)
	}
	res := newResult()
	if err := json.Unmarshal([]byte(last), res); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", w.name, err)
	}
	return res, nil
}

// runAll runs every workload untraced and traced, each in its own process,
// and writes all result objects to <outDir>/results.json.
func runAll(cfg config) error {
	type entry struct {
		EndToEnd *result `json:"end_to_end"`
		PerLayer *result `json:"per_layer"`
	}
	all := make(map[string]entry)
	for _, w := range workloads {
		e2e, err := child(w, cfg, false)
		if err != nil {
			return err
		}
		layers, err := child(w, cfg, true)
		if err != nil {
			return err
		}
		all[w.name] = entry{e2e, layers}
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(map[string]any{"header": header(cfg), "workloads": all}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, "results.json"), append(data, '\n'), 0o644)
}

// selfCheck is the A/A test: two sets of untraced runs of the same code,
// each from cold, must agree on every end-to-end metric within its bound.
func selfCheck(cfg config) error {
	var sets [2]map[string]*result
	for s := range sets {
		sets[s] = make(map[string]*result)
		for _, w := range workloads {
			res, err := child(w, cfg, false)
			if err != nil {
				return err
			}
			sets[s][w.name] = res
		}
	}
	fmt.Printf("\n%-12s %-16s %14s %14s %8s %6s\n", "workload", "metric", "run A", "run B", "diff", "bound")
	bad := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := sets[0][w.name].Metrics[d.name].Value, sets[1][w.name].Metrics[d.name].Value
			diff := (b - a) / a
			if diff < 0 {
				diff = -diff
			}
			verdict := ""
			if diff > d.bound {
				verdict = "  DISAGREE"
				bad++
			}
			fmt.Printf("%-12s %-16s %14.4f %14.4f %7.2f%% %5.0f%%%s\n", w.name, d.name, a, b, 100*diff, 100*d.bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d end-to-end metrics differ between two runs of the same code by more than their bound", bad)
	}
	return nil
}
