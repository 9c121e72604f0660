// Command slotsim regenerates the tables and figures of the paper's
// evaluation (§3) from the reproduction's simulation substrate.
//
// Usage:
//
//	slotsim [flags] <experiment>
//
// Experiments:
//
//	fig2     — average start time (a) and runtime (b) per algorithm
//	fig3     — average finish time (a) and CPU usage time (b) per algorithm
//	fig4     — average job execution cost per algorithm
//	table1   — working time vs CPU node count (also renders Fig. 5 curves)
//	table2   — working time vs scheduling interval length (also Fig. 6)
//	summary  — the full quality-study table across all metrics
//	ablate   — design-decision ablations (pricing degree, budget check,
//	           greedy vs exact per-step selection)
//	tasks    — extension sweep: window quality vs job parallelism n
//	frontier — extension sweep: cost-runtime frontier vs user budget
//	hetero   — extension sweep: window quality vs performance heterogeneity
//	deadline — extension sweep: feasibility and cost vs deadline tightness
//	batch    — extension study: two-stage batch scheduling pipelines
//	longrun  — extension study: rolling-horizon VO metascheduler over many
//	           consecutive cycles with Poisson arrivals and a retry queue
//	all      — everything above
//
// Flags tune the workload; the defaults reproduce §3.1 (100 nodes,
// interval [0,600), job of 5 slots x volume 150, budget 1500). -workers N
// runs the quality study's cycles on an N-worker pool (0 = sequential;
// negative values are rejected).
//
// Observability: -stats aggregates the quality and batch studies' scan,
// selection and batch counters into a distribution table after the
// experiment output, -trace writes a Chrome trace_event JSON file of the
// instrumented spans, and -pprof serves net/http/pprof on the given
// address while the experiment runs. See the README's Observability
// section.
package main

import (
	"os"

	"slotsel/internal/cli"
)

func main() {
	os.Exit(cli.Slotsim(os.Args[1:], os.Stdout, os.Stderr))
}
