package main

// metricDef names one reported metric. BENCHMARK.json lists the same names,
// units, directions and bounds; bench_test.go keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	note   string  // what it measures; per-layer: which end-to-end metric it moves, where
}

// endToEnd are the metrics a user of the service sees. Every workload
// reports all of them from an untraced run; each per-round value is that
// of the run's best round (see overRounds), setup_s the median of the
// run's boots.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "slot file (or WAL directory) -> pool -> server.New -> first 200 from /v1/statusz"},
	{"ops_per_s", "1/s", "higher", 0.25, "completed client operations per wall second; a booking transaction is one operation"},
	{"p50_ms", "ms", "lower", 0.25, "median operation latency"},
	{"p90_ms", "ms", "lower", 0.25, "90th percentile operation latency (at least 10 samples beyond it in every round)"},
	{"cpu_ms_per_op", "ms", "lower", 0.25, "getrusage(SELF) user+sys per operation, generator included"},
	{"alloc_kb_per_op", "KB", "lower", 0.10, "MemStats.TotalAlloc per operation, generator included"},
	{"live_heap_mb", "MB", "lower", 0.08, "HeapAlloc after a forced GC at the end of the last round"},
}

// perLayer are the metrics of single layers, from the traced run. A metric
// whose layer does not run on a workload reads 0 there.
var perLayer = []metricDef{
	{"net.self_us", "us", "lower", 0, "client span minus handler span per op: floor of find_hot/p50_ms; moves with nothing in this repo"},
	{"server.self_us", "us", "lower", 0, "handler self time per op: find_hot/ops_per_s, cpu_ms_per_op"},
	{"core.self_us", "us", "lower", 0, "kernel time per op: find_scan/ops_per_s, p50_ms, p90_ms"},
	{"inventory.self_us", "us", "lower", 0, "time behind the Pool interface per op, kernel and WAL excluded: book_deep/ops_per_s"},
	{"wal.self_us", "us", "lower", 0, "time behind the JournalSink interface per op: book_deep/p50_ms, mixed_churn/p90_ms"},
	{"net.share", "share", "lower", 0, "net self time over all self time"},
	{"server.share", "share", "lower", 0, "server share: > 0.9 with net on find_hot, < 0.02 on find_scan"},
	{"core.share", "share", "lower", 0, "core share: > 0.9 on find_scan, < 0.02 on find_hot"},
	{"inventory.share", "share", "lower", 0, "inventory share: with wal > 0.6 on book_deep"},
	{"wal.share", "share", "lower", 0, "wal share"},
	{"persist.decode_us", "us", "lower", 0, "persist.ReadRequest on the workload's request payloads: find_hot/cpu_ms_per_op, alloc_kb_per_op"},
	{"persist.encode_us", "us", "lower", 0, "persist.WriteWindow on the workload's result windows: find_hot/cpu_ms_per_op, alloc_kb_per_op"},
	{"core.scan_us", "us", "lower", 0, "mean kernel search: find_scan/p50_ms; second-order on mixed_churn/p50_ms"},
	{"core.scan_us.amp", "us", "lower", 0, "mean AMP search: fastest mode of find_scan; mixed_churn/p50_ms"},
	{"core.scan_us.mincost", "us", "lower", 0, "mean MinCost search: find_scan/p50_ms"},
	{"core.scan_us.minruntime", "us", "lower", 0, "mean MinRunTime search: find_scan/p90_ms"},
	{"core.scan_us.minfinish", "us", "lower", 0, "mean MinFinish search: find_scan/p90_ms"},
	{"core.slots_per_find", "count", "lower", 0, "slots scanned per search (obs.ScanStats.Slots)"},
	{"core.visits_per_find", "count", "lower", 0, "selection steps per search (obs.ScanStats.Visits)"},
	{"inventory.snapshot_us", "us", "lower", 0, "mean Pool.Snapshot, with the shard merge: mixed_churn/p50_ms"},
	{"inventory.reserve_self_us", "us", "lower", 0, "Pool.Reserve minus kernel and WAL: book_deep/ops_per_s, alloc_kb_per_op"},
	{"inventory.commit_self_us", "us", "lower", 0, "Pool.Commit minus WAL: book_deep/ops_per_s"},
	{"inventory.release_self_us", "us", "lower", 0, "Pool.Release minus WAL: book_deep/ops_per_s"},
	{"inventory.add_us", "us", "lower", 0, "mean Pool.Add of one node's slots, WAL included: mixed_churn/ops_per_s"},
	{"inventory.withdraw_us", "us", "lower", 0, "mean Pool.Withdraw, WAL included: mixed_churn/ops_per_s"},
	{"inventory.alloc_kb_per_mutation", "KB", "lower", 0, "bytes allocated inside a mutating Pool call: book_deep/alloc_kb_per_op, live_heap_mb"},
	{"inventory.cache_hit_share", "share", "higher", 0, "FindCache hits over lookups: ~1 find_hot, ~0 find_scan, < 0.2 mixed_churn; raising it moves mixed_churn/ops_per_s"},
	{"inventory.cache_invalidated_per_op", "count", "lower", 0, "FindCache entries dropped by churn, per op"},
	{"inventory.cache_evicted_per_op", "count", "lower", 0, "FindCache entries evicted for room, per op: ~1 on find_scan"},
	{"inventory.conflict_retries_per_txn", "count", "lower", 0, "re-validation conflicts per booking: wasted work behind book_deep/p90_ms"},
	{"inventory.two_phase_share", "share", "lower", 0, "holds that span shards: the two-phase path mixed_churn exists to show"},
	{"wal.append_us", "us", "lower", 0, "mean JournalSink.Append (enqueue under the inventory lock)"},
	{"wal.wait_us", "us", "lower", 0, "mean durability wait of one event: book_deep/p50_ms, mixed_churn/p90_ms"},
	{"wal.fsync_ms_p50", "ms", "lower", 0, "median fsync of a segment"},
	{"wal.fsyncs_per_txn", "count", "lower", 0, "fsyncs per booking: > 1 per event at 4 shards is the cost mixed_churn shows"},
	{"wal.bytes_per_txn", "B", "lower", 0, "WAL bytes written per booking (churn events included where the workload has them)"},
	{"wal.recover_s", "s", "lower", 0, "wal.Open/OpenSharded inside set-up: book_deep/setup_s, mixed_churn/setup_s"},
	{"client.p99_ms", "ms", "lower", 0, "reported, never gated: does not repeat within a tenth"},
	{"client.max_ms", "ms", "lower", 0, "reported, never gated"},
	{"proc.peak_rss_mb", "MB", "lower", 0, "reported, never gated: depends on GC timing"},
	{"proc.gc_cycles_per_kop", "count", "lower", 0, "reported, never gated"},
	{"trace.overhead_pct", "%", "lower", 0, "ops_per_s lost to recording spans, one client, recorder on against off"},
}

// metricValue is one measured value as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: exactly these four keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	spread   map[string][2]float64 // best and worst round (setup_s: fastest and slowest boot)
	problems []string              // failed checks and first operation errors
	rounds   []string              // one line per measured round
}

func newResult() *result {
	return &result{Correct: true, Metrics: make(map[string]metricValue), spread: make(map[string][2]float64)}
}

func (r *result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: d.unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not declared")
}

// setRounds records a per-round metric: its value in the best round, with
// the worst round's kept as the spread.
func (r *result) setRounds(name string, rs []roundResult, f func(*roundResult) float64) {
	for _, d := range endToEnd {
		if d.name == name {
			best, worst := overRounds(rs, d.better == "higher", f)
			r.Metrics[name] = metricValue{Value: best, Unit: d.unit}
			r.spread[name] = [2]float64{best, worst}
			return
		}
	}
	panic("benchmark: metric " + name + " is not declared")
}

// fail records a failed output check: the run is incorrect.
func (r *result) fail(err error) {
	r.Correct = false
	r.problems = append(r.problems, err.Error())
}

// account adds a round's operations to the attempted/failed totals.
func (r *result) account(rr *roundResult) {
	r.Attempted += rr.ops
	r.Failed += rr.failed
	if rr.err != nil && len(r.problems) < 8 {
		r.problems = append(r.problems, "operation failed: "+rr.err.Error())
	}
}
