package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"slotsel/internal/batchsched"
	"slotsel/internal/benchgate"
	"slotsel/internal/core"
	"slotsel/internal/csa"
	"slotsel/internal/env"
	"slotsel/internal/inventory"
	"slotsel/internal/job"
	"slotsel/internal/randx"
	"slotsel/internal/slots"
	"slotsel/internal/testkit"
)

// benchResult is one grid point of the harness, serialized into the
// machine-readable BENCH_*.json trajectory files.
type benchResult struct {
	// Bench is the hot path measured: "find", "find_scale", "csa", "batch",
	// "churn" or "reserve_release".
	Bench string `json:"bench"`

	// Alg is the algorithm name for the find bench ("" otherwise).
	Alg string `json:"alg,omitempty"`

	// Kernel is, for the find bench, "incremental" (the shipped WindowIndex
	// kernels on a reused Scanner) or "cached"/"uncached" (the service-layer
	// find with and without the FindCache); "" for the other benches.
	Kernel string `json:"kernel,omitempty"`

	// Nodes and Slots describe the instance; Tasks is the requested window
	// size n.
	Nodes int `json:"nodes"`
	Slots int `json:"slots"`
	Tasks int `json:"tasks,omitempty"`

	// Jobs is the batch size for the batch bench.
	Jobs int `json:"jobs,omitempty"`

	// Shards and Workers describe the churn bench: the inventory shard
	// count behind the pool and the concurrent client goroutines driving
	// the Reserve→Release cycles. Zero for the other benches.
	Shards  int `json:"shards,omitempty"`
	Workers int `json:"workers,omitempty"`

	// Horizon is the scheduling interval of the reserve_release and
	// find_scale benches' pools (Slots grows with it). Zero for the other
	// benches.
	Horizon int `json:"horizon,omitempty"`

	// NsPerOp is the minimum wall time of one operation over Iters timed
	// repetitions.
	NsPerOp int64 `json:"ns_per_op"`
	Iters   int   `json:"iters"`

	// AllocsPerOp and BytesPerOp are the steady-state heap costs of one
	// operation, measured as runtime.MemStats deltas over a warmed-up
	// batch. The incremental find kernels run on a reused Scanner and are
	// expected to report 0 here.
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// benchFile is the overall BENCH_<issue>.json shape. The machine header
// (ROADMAP aim 1) says what the numbers were measured on. Before, when
// present, holds rows of the same names measured on the parent commit with
// the same harness — the file of a PR that claims a gain carries both.
type benchFile struct {
	Issue      int           `json:"issue"`
	Seed       uint64        `json:"seed"`
	Go         string        `json:"go,omitempty"`
	GOMAXPROCS int           `json:"gomaxprocs,omitempty"`
	NProc      int           `json:"nproc,omitempty"`
	Results    []benchResult `json:"results"`
	Before     []benchResult `json:"before,omitempty"`
}

// Slotbench is the reproducible benchmark harness of the incremental
// selection kernels (see cmd/slotbench): it times the Find, CSA and batch
// hot paths across node-count and window-size grids and emits
// machine-readable JSON with ns_per_op, allocs_per_op and bytes_per_op
// columns. With -benchfmt it emits the same samples as benchstat-comparable
// `Benchmark... ns/op B/op allocs/op` lines (one per timed repetition)
// instead of JSON, and with -gate it compares such files from a parent and
// a change build, taken in alternating pairs, through internal/benchgate,
// exiting non-zero on a regression — the perf CI gate (scripts/benchpair.sh
// builds both sides and runs the pairs).
func Slotbench(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("slotbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed      = fs.Uint64("seed", 1, "workload seed (same seed = same instances)")
		iters     = fs.Int("iters", 5, "timed repetitions per grid point (the minimum is reported)")
		nodesGrid = fs.String("nodes", "16,32,64,128", "comma-separated node-count grid")
		tasksGrid = fs.String("tasks", "2,5,10", "comma-separated window-size (task count) grid")
		outPath   = fs.String("o", "", "output path (- = stdout; default BENCH_<issue>.json for JSON, stdout for -benchfmt)")
		issue     = fs.Int("issue", 5, "issue `number` stamped into the JSON output (and its default filename)")
		benchfmt  = fs.Bool("benchfmt", false, "emit Go benchmark lines (benchstat/-gate input) instead of JSON, one line per repetition")
		gate      = fs.Bool("gate", false, "compare -benchfmt files of alternating parent/change runs: slotbench -gate p1.txt c1.txt [p2.txt c2.txt ...]; non-zero exit on regression")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *gate {
		return benchGate(fs.Args(), stdout, stderr)
	}
	nodeCounts, err := parseIntGrid(*nodesGrid)
	if err != nil {
		fmt.Fprintln(stderr, "slotbench: -nodes:", err)
		return 2
	}
	taskCounts, err := parseIntGrid(*tasksGrid)
	if err != nil {
		fmt.Fprintln(stderr, "slotbench: -tasks:", err)
		return 2
	}
	if *iters < 1 {
		fmt.Fprintln(stderr, "slotbench: -iters must be >= 1")
		return 2
	}

	if *outPath == "" {
		*outPath = "-"
		if !*benchfmt {
			*outPath = fmt.Sprintf("BENCH_%d.json", *issue)
		}
	}
	var w io.Writer = stdout
	if *outPath != "-" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(stderr, "slotbench:", err)
			return 1
		}
		defer f.Close()
		w = f
	}

	rows, err := benchRun(benchPhases(*seed, nodeCounts, taskCounts), *iters)
	if err != nil {
		fmt.Fprintln(stderr, "slotbench:", err)
		return 1
	}
	if *benchfmt {
		// One line per timed repetition, so a comparison downstream sees a
		// sample, not a point estimate. The alloc columns are measured once
		// per grid point (they are deterministic) and repeated on every line.
		fmt.Fprintf(w, "goos: %s\ngoarch: %s\npkg: slotsel/cmd/slotbench\n", runtime.GOOS, runtime.GOARCH)
		for _, row := range rows {
			for _, s := range row.samples {
				fmt.Fprintf(w, "%s\t%8d\t%.0f ns/op\t%.0f B/op\t%.2f allocs/op\n", row.name, s.n, s.ns, row.bytes, row.allocs)
			}
		}
		return 0
	}

	file := benchFile{Issue: *issue, Seed: *seed, Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU()}
	for _, row := range rows {
		r := row.meta
		best := row.samples[0].ns
		for _, s := range row.samples[1:] {
			best = min(best, s.ns)
		}
		r.NsPerOp = int64(best + 0.5)
		r.Iters = *iters
		r.AllocsPerOp, r.BytesPerOp = row.allocs, row.bytes
		file.Results = append(file.Results, r)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(file); err != nil {
		fmt.Fprintln(stderr, "slotbench:", err)
		return 1
	}
	if *outPath != "-" {
		fmt.Fprintf(stdout, "slotbench: wrote %d results to %s\n", len(file.Results), *outPath)
	}
	return 0
}

// benchOp is one measured grid point: a benchstat-safe name, the JSON
// metadata row, the alloc-measurement batch size, and the operation.
type benchOp struct {
	name        string // e.g. BenchmarkFind/alg=MinCost/kernel=incremental/nodes=16/tasks=2
	meta        benchResult
	allocRounds int
	op          func()
}

// benchName renders a result's canonical benchmark identity — the single
// name shared by -benchfmt lines and BENCH_*.json rows, so both output
// modes of the harness join on it.
func benchName(r benchResult) string {
	switch r.Bench {
	case "find":
		return fmt.Sprintf("BenchmarkFind/alg=%s/kernel=%s/nodes=%d/tasks=%d", r.Alg, r.Kernel, r.Nodes, r.Tasks)
	case "csa":
		return fmt.Sprintf("BenchmarkCSA/nodes=%d/tasks=%d", r.Nodes, r.Tasks)
	case "batch":
		return fmt.Sprintf("BenchmarkBatch/nodes=%d/jobs=%d", r.Nodes, r.Jobs)
	case "churn":
		return fmt.Sprintf("BenchmarkChurn/shards=%d/workers=%d/nodes=%d", r.Shards, r.Workers, r.Nodes)
	case "reserve_release":
		return fmt.Sprintf("BenchmarkReserveReleaseChurn/nodes=%d/horizon=%d", r.Nodes, r.Horizon)
	case "find_scale":
		return fmt.Sprintf("BenchmarkFindScale/alg=%s/nodes=%d/tasks=%d", r.Alg, r.Nodes, r.Tasks)
	}
	return "Benchmark" + r.Bench
}

// benchPhases enumerates the measured rows, in output order, as phases that
// build their instances when called. A phase is timed with only its own
// instances on the heap: with the 380 k-slot pool and the 4 096-node
// environment alive beside them, every collection an allocating row of the
// small grid set off marked 32 MB of someone else's slots for 25 ms, and a
// 20 ms sample of the batch row read 0.14 or 0.55 ms by whether one fell in
// it.
func benchPhases(seed uint64, nodeCounts, taskCounts []int) []func() ([]benchOp, error) {
	return []func() ([]benchOp, error){
		func() ([]benchOp, error) { return benchGridOps(seed, nodeCounts, taskCounts) },
		func() ([]benchOp, error) { return benchChurnOps(seed) },
		benchReserveReleaseOps,
		func() ([]benchOp, error) { return benchFindScaleOps(seed) },
	}
}

// benchRow is one measured row: what both output modes format.
type benchRow struct {
	name          string
	meta          benchResult
	samples       []benchSample
	allocs, bytes float64
}

// benchRun measures the phases one after the other. A row keeps its numbers
// and not its op, so a finished phase's instances are garbage by the time
// the next one is timed.
func benchRun(phases []func() ([]benchOp, error), iters int) ([]benchRow, error) {
	var rows []benchRow
	for _, build := range phases {
		ops, err := build()
		if err != nil {
			return nil, err
		}
		samples := benchMeasure(ops, iters)
		for i, bo := range ops {
			row := benchRow{name: bo.name, meta: bo.meta, samples: samples[i]}
			row.allocs, row.bytes = benchAlloc(bo.allocRounds, bo.op)
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// benchGridOps is the node-count x window-size grid: the find kernels, the
// service-layer find, CSA and batch scheduling on generated environments.
func benchGridOps(seed uint64, nodeCounts, taskCounts []int) ([]benchOp, error) {
	var ops []benchOp
	sc := core.NewScanner()
	for _, nc := range nodeCounts {
		nc := nc
		e := env.Generate(env.DefaultConfig().WithNodeCount(nc), randx.New(seed))
		list := e.Slots

		// The cached/uncached service rows run against an inventory of the
		// same instance: the configuration slotserve actually serves, with
		// the churn-aware FindCache in front of the kernel.
		inv, err := inventory.New(list, inventory.Options{})
		if err != nil {
			return nil, err
		}
		cache := inventory.NewFindCache(inv, 0)

		for _, tasks := range taskCounts {
			req := benchRequest(tasks)
			for _, alg := range benchAlgorithms(seed) {
				// The kernel runs through the reused Scanner — the
				// steady-state service shape, and the configuration the
				// zero-alloc gate pins. The copy+sort oracle twins are not
				// timed: nobody ships their speed; the core package's
				// differential test compares their answers on this grid.
				r, alg := req, alg
				meta := benchResult{
					Bench: "find", Alg: alg.Name(), Kernel: "incremental",
					Nodes: nc, Slots: len(list), Tasks: tasks,
				}
				ops = append(ops, benchOp{
					name:        benchName(meta),
					meta:        meta,
					allocRounds: findAllocRounds,
					op:          func() { _, _ = sc.Find(alg, list.Cursor(), &r, nil) },
				})
			}

			// Service-layer find, with and without the FindCache in front.
			// The instance does not churn during the measurement, so after
			// the first miss every cached op is a steady-state hit — the
			// key lookup plus the invalidation-ring disjointness proof —
			// while the uncached op pays what every /v1/find pays without
			// the cache: a fresh full kernel pass over the same snapshot.
			// The spread between the two rows is the cache's headline win.
			rc, ru := req, req
			ckey := inventory.NewCacheKey(&rc, core.AMP{}.Name())
			for _, run := range []struct {
				kernel string
				op     func()
			}{
				{"cached", func() {
					_, _, _ = cache.Find(ckey, func(snap *inventory.Snapshot) (*core.Window, error) {
						return core.FindObserved(core.AMP{}, snap.Slots, &rc, nil)
					})
				}},
				{"uncached", func() {
					snap := inv.Snapshot()
					_, _ = core.FindObserved(core.AMP{}, snap.Slots, &ru, nil)
				}},
			} {
				meta := benchResult{
					Bench: "find", Alg: core.AMP{}.Name(), Kernel: run.kernel,
					Nodes: nc, Slots: len(list), Tasks: tasks,
				}
				ops = append(ops, benchOp{
					name:        benchName(meta),
					meta:        meta,
					allocRounds: findAllocRounds,
					op:          run.op,
				})
			}

			// CSA alternative search: repeated AMP over a carved working
			// copy — the inventory/reserve hot path. Search draws a pooled
			// scanner internally, so this times the shipped clone-free loop.
			r := req
			tasks := tasks
			csaMeta := benchResult{Bench: "csa", Nodes: nc, Slots: len(list), Tasks: tasks}
			ops = append(ops, benchOp{
				name:        benchName(csaMeta),
				meta:        csaMeta,
				allocRounds: csaAllocRounds,
				op: func() {
					_, _ = csa.Search(list, &r, csa.Options{MaxAlternatives: 10, MinSlotLength: 10}, nil)
				},
			})
		}

		// Two-stage batch scheduling over a random batch: stage-1 CSA per
		// job plus the stage-2 selection DP.
		const batchJobs = 8
		batchMeta := benchResult{Bench: "batch", Nodes: nc, Slots: len(list), Jobs: batchJobs}
		ops = append(ops, benchOp{
			name:        benchName(batchMeta),
			meta:        batchMeta,
			allocRounds: batchAllocRounds,
			op: func() {
				batch := testkit.RandomBatch(randx.New(seed), batchJobs)
				_, _ = batchsched.Schedule(list, batch,
					csa.Options{MaxAlternatives: 3, MinSlotLength: 10},
					batchsched.SelectConfig{Budget: 4000, Criterion: csa.ByFinish})
			},
		})
	}
	return ops, nil
}

// benchFindScaleOps is the slope-in-the-node-count gate: one search of the
// repository benchmark's booking shape (5 tasks of volume 150, a budget
// that rarely binds) at 1 024 and at 4 096 nodes, horizon 600 — windows of
// about 670 and 2 700 candidates — through a reused Scanner over a
// published sequence, the way the service searches. The scanning rows
// (MinCost, MinRunTime, MinFinish, the exact runtime kernel) are meant to
// cost about the same per slot at both sizes; a step or a visit that walks
// the window shows as the 4 096-node rows costing four times the 1 024-node
// ones per slot. AMP stops at its first visit and MinProcTime reads the
// whole window at every visit by design; they are here so a change to the
// index cannot slow them unnoticed. CSA and batch scheduling at this size
// are minutes per op and stay on the small grid.
func benchFindScaleOps(seed uint64) ([]benchOp, error) {
	var ops []benchOp
	sc := core.NewScanner()
	for _, nc := range []int{1024, 4096} {
		cfg := env.DefaultConfig().WithNodeCount(nc)
		list := env.Generate(cfg, randx.New(seed)).Slots
		seq, err := slots.SeqOf(list)
		if err != nil {
			return nil, fmt.Errorf("find_scale at %d nodes: %w", nc, err)
		}
		for _, alg := range []core.Algorithm{
			core.AMP{}, core.MinCost{}, core.MinRunTime{}, core.MinFinish{},
			core.MinProcTime{Seed: seed}, core.MinRunTime{Exact: true},
		} {
			alg := alg
			req := job.Request{TaskCount: 5, Volume: 150, MaxCost: 5 * 150 * 5}
			meta := benchResult{
				Bench: "find_scale", Alg: alg.Name(),
				Nodes: nc, Slots: len(list), Tasks: req.TaskCount, Horizon: int(cfg.Horizon),
			}
			ops = append(ops, benchOp{
				name:        benchName(meta),
				meta:        meta,
				allocRounds: scaleAllocRounds,
				op:          func() { _, _ = sc.Find(alg, seq.Cursor(), &req, nil) },
			})
		}
	}
	return ops, nil
}

// benchReserveReleaseOps is the flat-in-m gate: one search + hold + release
// cycle on the repository benchmark's book_deep pool (testkit.DeepPool) at
// about 6 k, 48 k and 380 k free slots — the inventory package's
// BenchmarkReserveReleaseChurn rows, under the same names. Publication
// edits the leaves a hold touches, so the three rows are meant to cost the
// same; a mutation that walks the pool again shows up as the deep rows
// regressing against the parent while the shallow one does not.
func benchReserveReleaseOps() ([]benchOp, error) {
	var ops []benchOp
	for _, horizon := range []int{600, 6000, 48000} {
		list, req := testkit.DeepPool(float64(horizon))
		inv, err := inventory.New(list, inventory.Options{})
		if err != nil {
			return nil, err
		}
		// One checked cycle: the timed op below ignores errors, and a reserve
		// that fails (a broken path, an exhausted pool) would record a very
		// fast row that measures nothing. A released hold leaves the pool as
		// it was, so a cycle that works once works every time.
		res, err := inv.Reserve(&req, core.AMP{}, time.Hour)
		if err == nil {
			err = inv.Release(res.ID)
		}
		if err != nil {
			return nil, fmt.Errorf("reserve_release at horizon %d: %w", horizon, err)
		}
		meta := benchResult{Bench: "reserve_release", Nodes: 1024, Slots: len(list), Tasks: req.TaskCount, Horizon: horizon}
		ops = append(ops, benchOp{
			name:        benchName(meta),
			meta:        meta,
			allocRounds: churnAllocRounds,
			op: func() {
				res, err := inv.Reserve(&req, core.AMP{}, time.Hour)
				if err != nil {
					return
				}
				_ = inv.Release(res.ID)
			},
		})
	}
	return ops, nil
}

// benchChurnOps is the shard-sweep: the identical Reserve→Release churn
// workload measured at 1, 2 and 4 inventory shards, serially and under
// parallel workers. Every variant cycles the same pre-built single-node
// windows (found once against the initial snapshot; a released window is
// immediately reservable again, so the pool returns to its starting state
// every op), which isolates the mutation path the sharding tentpole
// targeted: per-shard locking and publication (O(slots/shard) per
// mutation when these rows were added, O(touched) since publication became
// an edit of a persistent sequence), with no search time mixed in. One op
// is a full pass — every window reserved and released once — so ns_per_op
// at equal work divides out directly into the cross-shard speedup.
func benchChurnOps(seed uint64) ([]benchOp, error) {
	// A dense instance — many slots per node — so the cost under
	// measurement is the publication behind every mutation. Slots are laid
	// out with gaps so interval merging cannot collapse them.
	const (
		churnNodes        = 64
		churnSlotsPerNode = 48
	)
	rng := randx.New(seed)
	var list slots.List
	for id := 0; id < churnNodes; id++ {
		n := testkit.Node(id, float64(rng.IntRange(2, 10)), 0.3+3*rng.Float64())
		for k := 0; k < churnSlotsPerNode; k++ {
			start := float64(k * 100)
			list = append(list, &slots.Slot{Node: n, Interval: slots.Interval{Start: start, End: start + 80}})
		}
	}
	var ops []benchOp
	for _, nShards := range []int{1, 2, 4} {
		pool, err := inventory.NewPool(list, inventory.Options{MinSlotLength: 1, Shards: nShards})
		if err != nil {
			return nil, err
		}
		// One window per node, on the node's first free slot: windows on
		// distinct nodes never contend for capacity, so every reserve
		// succeeds and parallel workers measure lock contention, not
		// conflict retries.
		seen := make(map[int]bool)
		var wins []*core.Window
		for _, s := range pool.Snapshot().Slots {
			if seen[s.Node.ID] {
				continue
			}
			seen[s.Node.ID] = true
			length := s.Interval.End - s.Interval.Start
			wins = append(wins, core.NewWindow(s.Interval.Start, []core.Candidate{
				{Slot: s, Exec: length / 2, Cost: 1},
			}))
		}
		for _, workers := range []int{1, 4} {
			pool, wins, workers := pool, wins, workers
			op := func() {
				if workers == 1 {
					for _, w := range wins {
						res, err := pool.ReserveWindow(w, time.Hour)
						if err != nil {
							continue
						}
						_ = pool.Release(res.ID)
					}
					return
				}
				var wg sync.WaitGroup
				for g := 0; g < workers; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for i := g; i < len(wins); i += workers {
							res, err := pool.ReserveWindow(wins[i], time.Hour)
							if err != nil {
								continue
							}
							_ = pool.Release(res.ID)
						}
					}(g)
				}
				wg.Wait()
			}
			meta := benchResult{
				Bench: "churn", Shards: nShards, Workers: workers,
				Nodes: churnNodes, Slots: len(list),
			}
			ops = append(ops, benchOp{
				name:        benchName(meta),
				meta:        meta,
				allocRounds: churnAllocRounds,
				op:          op,
			})
		}
	}
	return ops, nil
}

// benchMinSample is the wall-time floor of one timed sample: an op is
// repeated until a sample covers at least this long. At 200 µs four runs of
// one binary gated against each other flagged 3-13 rows; at 20 ms five
// ten-pair series of a commit against itself flagged none (EXPERIMENTS.md,
// "Kernel bench gate").
const benchMinSample = 20 * time.Millisecond

// benchSample is one timed repetition: n back-to-back ops at ns each.
type benchSample struct {
	n  int
	ns float64
}

// benchMeasure takes iters samples of every op of a phase, the one timing
// loop behind both output modes.
//
// Each op is first warmed (page in the instance, size pools and indexes)
// and its batch grown from the warmed timing until one batch reaches the
// floor. A sample then runs whole batches until the floor is reached — one
// batch when the calibration held — so no sample is shorter than the floor
// and the clock is read once per batch, not once per op.
//
// Repetitions are taken round-robin across the phase, not consecutively
// per benchmark: consecutive samples of one op share the machine's
// momentary state (frequency step, a noisy neighbor), so their minimum can
// sit inside one slow stretch. Spreading one benchmark's reps over the
// phase lets the minimum dodge it. The GC fence keeps garbage left by the
// warm-up and by the phase before from taxing the first timed samples.
func benchMeasure(ops []benchOp, iters int) [][]benchSample {
	timeBatch := func(op func(), b int) time.Duration {
		start := time.Now()
		for j := 0; j < b; j++ {
			op()
		}
		return time.Since(start)
	}
	batch := make([]int, len(ops))
	for i, bo := range ops {
		bo.op()
		b := 1
		for {
			d := timeBatch(bo.op, b)
			if d >= benchMinSample {
				break
			}
			// Aim 20 % past the floor, growing at most 100x a step: a first
			// call too short for the clock says little about the op.
			grown := 100 * b
			if d > 0 {
				grown = min(grown, int(1.2*float64(b)*float64(benchMinSample)/float64(d)))
			}
			b = max(b+1, grown)
		}
		batch[i] = b
	}
	runtime.GC()

	samples := make([][]benchSample, len(ops))
	for round := 0; round < iters; round++ {
		for i, bo := range ops {
			var n int
			var d time.Duration
			for d < benchMinSample {
				d += timeBatch(bo.op, batch[i])
				n += batch[i]
			}
			samples[i] = append(samples[i], benchSample{n: n, ns: float64(d.Nanoseconds()) / float64(n)})
		}
	}
	return samples
}

// benchGate is the -gate mode: the arguments are -benchfmt files of
// alternating parent and change runs (p1 c1 p2 c2 ...); see
// internal/benchgate for the rule.
func benchGate(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || len(args)%2 != 0 {
		fmt.Fprintln(stderr, "slotbench: -gate wants parent/change file pairs: p1.txt c1.txt [p2.txt c2.txt ...]")
		return 2
	}
	sets := make([]*benchgate.Set, len(args))
	for i, path := range args {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(stderr, "slotbench:", err)
			return 1
		}
		set, err := benchgate.ParseSet(f)
		f.Close()
		if err == nil && len(set.Benchmarks) == 0 {
			err = fmt.Errorf("no benchmark lines")
		}
		if err != nil {
			fmt.Fprintf(stderr, "slotbench: %s: %v\n", path, err)
			return 1
		}
		sets[i] = set
	}
	pairs := make([]benchgate.Pair, 0, len(args)/2)
	for i := 0; i < len(sets); i += 2 {
		pairs = append(pairs, benchgate.Pair{Parent: sets[i], Change: sets[i+1]})
	}
	if err := benchgate.Gate(pairs, stdout); err != nil {
		fmt.Fprintln(stderr, "slotbench:", err)
		return 1
	}
	return 0
}

// benchAlgorithms is the measured catalogue: every shipped algorithm
// family, matching the differential test suite's coverage.
func benchAlgorithms(seed uint64) []core.Algorithm {
	return []core.Algorithm{
		core.AMP{},
		core.MinCost{},
		core.MinRunTime{},
		core.MinRunTime{Exact: true},
		core.MinFinish{},
		core.MinFinish{Exact: true},
		core.MinProcTime{Seed: seed},
		core.MinProcTimeGreedy{},
		core.MinEnergy{},
	}
}

// benchRequest scales the §3.1 reference request (5 slots x volume 150
// under budget 1500) to the given window size.
func benchRequest(tasks int) job.Request {
	return job.Request{TaskCount: tasks, Volume: 150, MaxCost: 300 * float64(tasks)}
}

// Allocation-measurement batch sizes, matched to the per-op cost of each
// hot path so a batch stays in the low milliseconds even at 128 nodes.
const (
	findAllocRounds  = 200
	csaAllocRounds   = 50
	batchAllocRounds = 5
	churnAllocRounds = 10
	scaleAllocRounds = 3
)

// benchAlloc reports the mean heap allocations and bytes of one op over a
// warmed-up batch, from runtime.MemStats' monotonic Mallocs / TotalAlloc
// counters. The first run pays the one-time costs (index capacity growth,
// pool warm-up) that the steady-state figure must exclude, and the GC fence
// keeps a concurrently finishing sweep from attributing its work to the
// batch. The fence can be the second collection in a row — one was already
// under way — and two in a row empty a sync.Pool, so the op runs once more
// behind the fence: without that, the rows that draw a pooled scanner read
// its rebuild in about half of all runs (CSA at 16 nodes: 0.04 or 2.58).
func benchAlloc(rounds int, op func()) (allocsPerOp, bytesPerOp float64) {
	op()
	runtime.GC()
	op()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	n := float64(rounds)
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
}

func parseIntGrid(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad grid entry %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty grid")
	}
	return out, nil
}
