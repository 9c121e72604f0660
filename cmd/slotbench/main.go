// Command slotbench is the reproducible benchmark harness of the selection
// kernels: it times the Find, CSA and batch-scheduling hot paths across
// node-count and window-size grids — the shipped incremental WindowIndex
// kernels on a reused Scanner — and writes machine-readable JSON
// (BENCH_<issue>.json) for the repo's bench trajectory. Alongside ns_per_op
// each grid point carries allocs_per_op and bytes_per_op, measured as
// runtime.MemStats deltas over a warmed-up batch; the incremental find
// rows are expected to report 0 allocations.
//
// Usage:
//
//	slotbench [-seed N] [-iters K] [-nodes 16,32,64,128] [-tasks 2,5,10] [-issue N] [-o BENCH_N.json]
//	slotbench -benchfmt [-iters K] [-o run.txt]     # the same samples as Go benchmark lines
//	slotbench -gate p1.txt c1.txt [p2.txt c2.txt …] # paired parent/change gate; exit 1 on regression
//
// Same seed ⇒ same instances; every timed sample is at least 20 ms of
// back-to-back ops and the JSON reports the minimum over -iters samples.
// scripts/benchpair.sh <parent-ref> builds both sides, runs them in ten
// alternating pairs and calls -gate; CI's bench-smoke job runs it against
// the pull request's base. See EXPERIMENTS.md for recorded numbers.
package main

import (
	"os"

	"slotsel/internal/cli"
)

func main() {
	os.Exit(cli.Slotbench(os.Args[1:], os.Stdout, os.Stderr))
}
