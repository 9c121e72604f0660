package main

import (
	"bytes"
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"slotsel/internal/core"
	"slotsel/internal/persist"
)

// config is what one run is asked to do.
type config struct {
	seed    uint64
	seconds int
	quick   bool   // smoke test: 3 rounds of 1/10 size, 1/10 of the pre-population, 2 boots
	scratch string // directory for slot files and WAL directories
	outDir  string // directory for trace files
}

// clients is the number of closed-loop client connections.
func clients() int { return min(2, runtime.NumCPU()) }

// run executes one workload from cold: inputs, set-up, warm-up, rounds,
// output checks. An untraced run yields the end-to-end metrics, a traced
// run the per-layer ones. An error means the run could not be carried
// out; failed checks and failed operations are in the result.
func run(w *workload, cfg config, traced bool) (*result, error) {
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.scratch, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	in, err := generate(w, cfg.seed, cfg.seconds, cfg.quick, dir)
	if err != nil {
		return nil, err
	}
	walDir := ""
	if w.wal {
		walDir = filepath.Join(dir, "wal")
		txns := w.prepopulate
		if cfg.quick {
			txns /= 10
		}
		if err := prepopulate(in, walDir, txns); err != nil {
			return nil, err
		}
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}

	// Set-up, several times; the last stack booted is the one measured.
	var st *stack
	boots := w.boots
	if cfg.quick {
		boots = 2
	}
	setups := make([]float64, boots)
	recovers := make([]float64, boots)
	for b := range setups {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		begin := time.Now()
		if st, err = boot(in, walDir, tr); err != nil {
			return nil, err
		}
		setups[b] = time.Since(begin).Seconds()
		recovers[b] = st.recoverTime.Seconds()
	}
	closed := false
	defer func() {
		if !closed {
			st.close()
		}
	}()

	res := newResult()
	lanes := make([]*lane, clients())
	var churnGate sync.RWMutex
	for i := range lanes {
		lanes[i] = newLane(in, st, tr, &churnGate)
		defer lanes[i].close()
	}
	var checker *findChecker
	if len(w.cycle) == 0 { // finds only: the pool never changes
		checker = newFindChecker(in, st.inner.Snapshot())
	}
	lat := make([]time.Duration, max(in.perRound, in.warmup, in.tracedOps()))
	round := func(ls []*lane, first, n int) roundResult {
		rr := runRound(in, ls, first, n, lat)
		res.account(&rr)
		if checker != nil {
			if err := checker.verify(ls); err != nil {
				res.fail(err)
			}
		}
		return rr
	}

	round(lanes, 0, in.warmup)
	if traced {
		res.set(perLayer, "wal.recover_s", median(recovers))
		if err := tracedRounds(res, in, st, tr, lanes, walDir, round); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return nil, err
		}
		if err := tr.writeChrome(filepath.Join(cfg.outDir, "trace_"+w.name+".json")); err != nil {
			return nil, err
		}
	} else {
		res.set(endToEnd, "setup_s", median(setups))
		res.spread["setup_s"] = [2]float64{slices.Min(setups), slices.Max(setups)}
		measuredRounds(res, in, lanes, round)
	}

	// End-state checks: zero double-booking, and every acknowledged
	// mutation recoverable from the closed WAL directory.
	if err := checkDisjoint(st.inner.Committed()); err != nil {
		res.fail(err)
	}
	live := captureState(st.inner)
	closed = true
	if err := st.close(); err != nil {
		return nil, err
	}
	if w.wal {
		if err := checkRecovery(w, walDir, live); err != nil {
			res.fail(err)
		}
	}
	return res, nil
}

// measuredRounds runs the rounds of an untraced run and reduces them to
// the end-to-end metrics.
func measuredRounds(res *result, in *inputs, lanes []*lane, round func(ls []*lane, first, n int) roundResult) {
	rs := make([]roundResult, in.rounds)
	for r := range rs {
		rs[r] = round(lanes, in.warmup+r*in.perRound, in.perRound)
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	allocKB := func(r *roundResult) float64 { return float64(r.allocBytes) / 1024 / float64(r.ops) }
	cpuMS := func(r *roundResult) float64 { return ms(r.cpu) / float64(r.ops) }
	for r := range rs {
		rr := &rs[r]
		res.rounds = append(res.rounds, fmt.Sprintf("round %2d: %d ops in %.3f s, p50 %.3f ms, p90 %.3f ms, cpu %.4f ms/op, %.1f KB/op",
			r+1, rr.ops, rr.wall.Seconds(), ms(rr.percentile(0.5)), ms(rr.percentile(0.9)), cpuMS(rr), allocKB(rr)))
	}
	// The latency ladder of the fastest round shows where p50 and p90 sit
	// relative to the workload's latency modes.
	fastest := slices.MinFunc(rs, func(a, b roundResult) int { return cmp.Compare(a.wall, b.wall) })
	ladder := "latency ladder, ms:"
	for _, q := range []float64{0.05, 0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.85, 0.90, 0.95, 0.99} {
		ladder += fmt.Sprintf(" p%02.0f=%.3f", 100*q, ms(fastest.percentile(q)))
	}
	res.rounds = append(res.rounds, ladder)

	res.setRounds("ops_per_s", rs, (*roundResult).opsPerSecond)
	res.setRounds("p50_ms", rs, func(r *roundResult) float64 { return ms(r.percentile(0.50)) })
	res.setRounds("p90_ms", rs, func(r *roundResult) float64 { return ms(r.percentile(0.90)) })
	res.setRounds("cpu_ms_per_op", rs, cpuMS)
	res.setRounds("alloc_kb_per_op", rs, allocKB)
	res.set(endToEnd, "live_heap_mb", float64(mem.HeapAlloc)/(1<<20))
}

// ratio is a/b, and 0 when the layer did not run (b == 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedRounds produces the per-layer metrics from three long rounds
// (inputs.tracedOps operations each) on one stack that has the tracer
// installed at every seam:
//
//	U  all clients, recorder off: counters under the real concurrency
//	   (cache, conflicts, fsyncs, WAL bytes, p99, GC cycles);
//	T  one client, recorder on: the spans, so self times attribute exactly;
//	V  one client, recorder off: T's baseline for the tracing overhead.
func tracedRounds(res *result, in *inputs, st *stack, tr *tracer, lanes []*lane, walDir string,
	round func(ls []*lane, first, n int) roundResult) error {
	set := func(name string, v float64) { res.set(perLayer, name, v) }
	n := in.tracedOps()
	first := in.warmup

	// --- U ---
	tr.reset()
	before, err := getStatusz(st.base)
	if err != nil {
		return err
	}
	var bytesBefore int64
	if walDir != "" {
		if bytesBefore, err = dirBytes(walDir); err != nil {
			return err
		}
	}
	reserved0, twoPhase0 := st.traced.reserved.Load(), st.traced.twoPhase.Load()
	u := round(lanes, first, n)
	after, err := getStatusz(st.base)
	if err != nil {
		return err
	}
	txns := 0
	for i := first; i < first+n; i++ {
		if in.op(i).kind == opBook {
			txns++
		}
	}
	ops := float64(n)
	hits := float64(after.FindCache.Hits - before.FindCache.Hits)
	misses := float64(after.FindCache.Misses - before.FindCache.Misses)
	set("inventory.cache_hit_share", ratio(hits, hits+misses))
	set("inventory.cache_invalidated_per_op", float64(after.FindCache.Invalidated-before.FindCache.Invalidated)/ops)
	set("inventory.cache_evicted_per_op", float64(after.FindCache.Evicted-before.FindCache.Evicted)/ops)
	conflicts := after.Inventory.Counters.Conflicts - before.Inventory.Counters.Conflicts
	set("inventory.conflict_retries_per_txn", ratio(float64(conflicts), float64(txns)))
	set("inventory.two_phase_share", ratio(float64(st.traced.twoPhase.Load()-twoPhase0), float64(st.traced.reserved.Load()-reserved0)))
	set("wal.fsyncs_per_txn", ratio(float64(after.Durability.Fsyncs-before.Durability.Fsyncs), float64(txns)))
	var bytesAfter int64
	if walDir != "" {
		if bytesAfter, err = dirBytes(walDir); err != nil {
			return err
		}
	}
	set("wal.bytes_per_txn", ratio(float64(bytesAfter-bytesBefore), float64(txns)))
	set("wal.fsync_ms_p50", ms(tr.fsyncMedian()))
	set("client.p99_ms", ms(u.percentile(0.99)))
	set("client.max_ms", ms(u.sorted[len(u.sorted)-1]))
	set("proc.gc_cycles_per_kop", float64(u.gcCycles)/(ops/1000))

	// --- T ---
	tr.reset()
	tr.on.Store(true)
	t := round(lanes[:1], first+n, n)
	tr.on.Store(false)
	if n := tr.misnestedSpans(); n > 0 {
		res.fail(fmt.Errorf("tracer: %d spans closed out of order", n))
	}

	// --- V ---
	v := round(lanes[:1], first+2*n, n)
	set("trace.overhead_pct", 100*(1-t.opsPerSecond()/v.opsPerSecond()))
	set("proc.peak_rss_mb", peakRSSMB())

	self := tr.layerSelf()
	var all time.Duration
	for _, d := range self {
		all += d
	}
	for l, d := range self {
		set(layerNames[l]+".self_us", us(d)/ops)
		set(layerNames[l]+".share", ratio(float64(d), float64(all)))
	}
	mean := func(tot spanTotals) float64 { return ratio(us(tot.total), float64(tot.count)) }
	meanSelf := func(tot spanTotals) float64 { return ratio(us(tot.self), float64(tot.count)) }

	var kernel spanTotals
	for _, alg := range []core.Algorithm{core.AMP{}, core.MinCost{}, core.MinRunTime{}, core.MinFinish{}} {
		tot := tr.total("core." + alg.Name())
		kernel.count += tot.count
		kernel.total += tot.total
		set("core.scan_us."+strings.ToLower(alg.Name()), mean(tot))
	}
	set("core.scan_us", mean(kernel))
	set("core.slots_per_find", ratio(float64(tr.scanSlots), float64(tr.scans)))
	set("core.visits_per_find", ratio(float64(tr.scanVisits), float64(tr.scans)))

	set("inventory.snapshot_us", mean(tr.total("pool.Snapshot")))
	set("inventory.reserve_self_us", meanSelf(tr.total("pool.Reserve")))
	set("inventory.commit_self_us", meanSelf(tr.total("pool.Commit")))
	set("inventory.release_self_us", meanSelf(tr.total("pool.Release")))
	set("inventory.add_us", mean(tr.total("pool.Add")))
	set("inventory.withdraw_us", mean(tr.total("pool.Withdraw")))
	var mutations int
	var mutationBytes uint64
	for _, name := range []string{"pool.Reserve", "pool.Commit", "pool.Release", "pool.Add", "pool.Withdraw"} {
		tot := tr.total(name)
		mutations += tot.count
		mutationBytes += tot.alloc
	}
	set("inventory.alloc_kb_per_mutation", ratio(float64(mutationBytes)/1024, float64(mutations)))
	set("wal.append_us", mean(tr.total("wal.append")))
	set("wal.wait_us", mean(tr.total("wal.wait")))

	dec, enc, err := persistCosts(in, st)
	if err != nil {
		return err
	}
	set("persist.decode_us", dec)
	set("persist.encode_us", enc)
	return nil
}

// persistCosts times persist.ReadRequest on the workload's own request
// payloads and persist.WriteWindow on windows those requests produce, in
// microseconds per call.
func persistCosts(in *inputs, st *stack) (decode, encode float64, err error) {
	reqs := append(append([]request(nil), in.find[:min(len(in.find), 64)]...), in.book...)
	var payloads [][]byte
	var windows []*core.Window
	snap := st.inner.Snapshot()
	for _, r := range reqs {
		var b bytes.Buffer
		if err := persist.WriteRequest(&b, r.req); err != nil {
			return 0, 0, err
		}
		payloads = append(payloads, b.Bytes())
		if len(windows) < 8 {
			w, err := core.AMP{}.Find(snap.Slots, r.req)
			if err != nil {
				return 0, 0, fmt.Errorf("persist cost sample: %w", err)
			}
			windows = append(windows, w)
		}
	}
	const calls = 4000
	begin := time.Now()
	for i := 0; i < calls; i++ {
		if _, err := persist.ReadRequest(bytes.NewReader(payloads[i%len(payloads)])); err != nil {
			return 0, 0, err
		}
	}
	decode = us(time.Since(begin)) / calls
	var out bytes.Buffer
	begin = time.Now()
	for i := 0; i < calls; i++ {
		out.Reset()
		if err := persist.WriteWindow(&out, windows[i%len(windows)]); err != nil {
			return 0, 0, err
		}
	}
	encode = us(time.Since(begin)) / calls
	return decode, encode, nil
}
