package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

func quickInputs(t *testing.T, w *workload, seed uint64) *inputs {
	t.Helper()
	in, err := generate(w, seed, defaultSeconds, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// The operation sequence, payloads included, is a pure function of the
// seed.
func TestOpSequenceFollowsSeed(t *testing.T) {
	for _, w := range workloads {
		a := quickInputs(t, w, 1).opHash()
		if b := quickInputs(t, w, 1).opHash(); a != b {
			t.Errorf("%s: seed 1 hashed %x, then %x", w.name, a, b)
		}
		if c := quickInputs(t, w, 2).opHash(); a == c {
			t.Errorf("%s: seeds 1 and 2 give the same operation sequence %x", w.name, a)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesAndCounts(t *testing.T) {
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := make(map[string]bool)
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, want 1..200", w.name, len(w.why))
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(d.name)
		if !unitRE.MatchString(d.unit) {
			t.Errorf("%s: unit %q does not match %v", d.name, d.unit, unitRE)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("%s: better is %q", d.name, d.better)
		}
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
}

// BENCHMARK.json at the repository root must say what the code says.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, code default %d", file.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(file.Paths, []string{"benchmark"}) {
		t.Errorf("paths %v", file.Paths)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the code", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := file.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: file has %+v, code has %s: %s", i, got, w.name, w.why)
		}
	}
	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the file, %d in the code", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: file has %+v, code has %s %s %s", kind, i, g, d.name, d.unit, d.better)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound) {
				t.Errorf("%s: bound in the file differs from %v", d.name, d.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: a per-layer metric has no bound", d.name)
			}
		}
	}
	compare("end_to_end", file.EndToEnd, endToEnd, true)
	compare("per_layer", file.PerLayer, perLayer, false)
}

// Every workload runs end to end at smoke-test size: all checks pass, no
// operation fails, and each run reports every metric of its kind.
func TestQuickRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("boots four stacks twice")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := config{seed: 1, seconds: defaultSeconds, quick: true, scratch: t.TempDir(), outDir: t.TempDir()}
			for _, traced := range []bool{false, true} {
				res, err := run(w, cfg, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed > 0 || res.Attempted < 1 {
					t.Errorf("traced=%v: correct=%v attempted=%d failed=%d: %v", traced, res.Correct, res.Attempted, res.Failed, res.problems)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("traced=%v: %d metrics reported, %d declared", traced, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("traced=%v: metric %s missing or not a number", traced, d.name)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v, want > 0", d.name, m.Value)
					}
				}
			}
			checkTraceFile(t, filepath.Join(cfg.outDir, "trace_"+w.name+".json"))
		})
	}
}

// checkTraceFile verifies the span tree of every request in a trace file:
// a child lies inside the span that caused it, and the self times of a
// request's spans sum to its root span within 1 %.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args struct {
				ID     int     `json:"id"`
				Parent int     `json:"parent"`
				SelfUS float64 `json:"self_us"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	type node struct {
		ts, dur, self float64
		parent        int
	}
	byID := make(map[int]node)
	for _, e := range file.TraceEvents {
		byID[e.Args.ID] = node{e.Ts, e.Dur, e.Args.SelfUS, e.Args.Parent}
	}
	if len(byID) == 0 {
		t.Fatal("the trace file holds no spans")
	}
	selfSum := make(map[int]float64) // by root span
	const slackUS = 0.5              // one clock reading on each side
	for id, n := range byID {
		root := id
		for byID[root].parent >= 0 {
			c := byID[root]
			p := byID[c.parent]
			if c.ts < p.ts-slackUS || c.ts+c.dur > p.ts+p.dur+slackUS {
				t.Errorf("span %d [%f,+%f] is not inside its parent %d [%f,+%f]", root, c.ts, c.dur, c.parent, p.ts, p.dur)
			}
			root = c.parent
		}
		selfSum[root] += n.self
	}
	for root, sum := range selfSum {
		if dur := byID[root].dur; math.Abs(sum-dur) > 0.01*dur+slackUS {
			t.Errorf("request rooted at span %d: self times sum to %f us, its span is %f us", root, sum, dur)
		}
	}
}
