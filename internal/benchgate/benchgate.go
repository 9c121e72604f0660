// Package benchgate is the performance-regression gate over Go benchmark
// output: it parses benchstat-compatible `BenchmarkXxx ... ns/op` lines and
// compares a parent build against a change build measured in alternating
// pairs of runs on one machine, in one session.
//
// It compares; it does not remember. A pair is two runs taken back to back
// (parent then change, or change then parent), so whatever the machine was
// doing during the pair falls on both sides, and a row's per-pair ratio
// carries the change and little else. A row regresses in ns/op only when
// three things hold at once:
//
//   - the minimum over all the change's samples is more than 10 % above the
//     minimum over all the parent's — the least-noise estimate of each side
//     moved;
//   - the median of the per-pair ratios is above 1.10 — the typical pair
//     saw it;
//   - at least 8 in 10 pairs have a ratio above 1.10 — it was not a few
//     bad pairs.
//
// A slow stretch of the session (one pair 1.5x slower on every row) moves
// no ratio; a noisy row fails the first or the third condition. allocs/op
// is deterministic but for a collection landing inside the measured batch,
// which only ever adds, so it is compared directly on each side's minimum
// over all runs: more than 10 % up — or any step from zero — is a
// regression.
package benchgate

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Set holds parsed benchmark samples: benchmark name -> unit -> one value
// per repetition line.
type Set struct {
	Benchmarks map[string]map[string][]float64
}

// ParseSet reads Go benchmark output (one `Benchmark...` line per
// repetition; headers and unrelated lines are skipped) and collects the
// per-unit sample vectors.
func ParseSet(r io.Reader) (*Set, error) {
	s := &Set{Benchmarks: make(map[string]map[string][]float64)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineno := 0
	for sc.Scan() {
		lineno++
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		// fields: name, iterations, then (value, unit) pairs.
		name := trimGOMAXPROCS(fields[0])
		if _, err := strconv.Atoi(fields[1]); err != nil {
			return nil, fmt.Errorf("line %d: iteration count %q: %w", lineno, fields[1], err)
		}
		if (len(fields)-2)%2 != 0 {
			return nil, fmt.Errorf("line %d: odd value/unit tail", lineno)
		}
		for i := 2; i < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: value %q: %w", lineno, fields[i], err)
			}
			unit := fields[i+1]
			if s.Benchmarks[name] == nil {
				s.Benchmarks[name] = make(map[string][]float64)
			}
			s.Benchmarks[name][unit] = append(s.Benchmarks[name][unit], v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

// trimGOMAXPROCS drops the `-N` procs suffix Go appends to benchmark
// names, so `go test -bench` output pairs with slotbench's unsuffixed rows.
func trimGOMAXPROCS(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// Threshold is the fractional bound of the gate: a row fails past +10 %.
const Threshold = 0.10

// needSlower is how many of n pairs must each show the slowdown: 8 in 10.
func needSlower(n int) int { return (8*n + 9) / 10 }

// Pair is one back-to-back measurement of both builds.
type Pair struct {
	Parent, Change *Set
}

// Row is one gated benchmark/unit comparison.
type Row struct {
	Name string
	Unit string

	// Parent and Change are each side's minimum sample over all runs.
	Parent, Change float64

	// Ratio is the median over the pairs of change/parent, each run
	// summarized by the median of its samples; Slower counts the pairs whose
	// ratio is past the threshold. Both are unset for allocs/op.
	Ratio  float64
	Slower int

	Regressed bool
}

// Result is a full comparison.
type Result struct {
	Pairs int
	Rows  []Row

	// New names the benchmarks only the change has: acknowledged, not gated.
	// Skipped names the ones some run of either side lacks.
	New, Skipped []string
}

// Regressions returns only the failing rows.
func (r *Result) Regressions() []Row {
	var out []Row
	for _, row := range r.Rows {
		if row.Regressed {
			out = append(out, row)
		}
	}
	return out
}

// Compare applies the paired rule to every benchmark that every run of
// both sides carries.
func Compare(pairs []Pair) *Result {
	res := &Result{Pairs: len(pairs)}
	runs := make(map[string][2]int) // name -> parent runs, change runs carrying it
	for _, p := range pairs {
		for side, set := range [2]*Set{p.Parent, p.Change} {
			for name := range set.Benchmarks {
				n := runs[name]
				n[side]++
				runs[name] = n
			}
		}
	}
	names := make([]string, 0, len(runs))
	for name := range runs {
		names = append(names, name)
	}
	slices.Sort(names)

	for _, name := range names {
		switch n := runs[name]; {
		case n[0] == 0:
			res.New = append(res.New, name)
		case n[0] < len(pairs) || n[1] < len(pairs):
			res.Skipped = append(res.Skipped, name)
		default:
			for _, unit := range []string{timeUnit, "allocs/op"} {
				if row, ok := compareRow(name, unit, pairs); ok {
					res.Rows = append(res.Rows, row)
				}
			}
		}
	}
	return res
}

// timeUnit is the unit under the three-condition rule; any other is read as
// a deterministic count and compared on the minimum alone.
const timeUnit = "ns/op"

// compareRow compares one unit of one benchmark; false when a run lacks it.
func compareRow(name, unit string, pairs []Pair) (Row, bool) {
	row := Row{Name: name, Unit: unit, Parent: math.Inf(1), Change: math.Inf(1)}
	ratios := make([]float64, 0, len(pairs))
	for _, p := range pairs {
		ps, cs := p.Parent.Benchmarks[name][unit], p.Change.Benchmarks[name][unit]
		if len(ps) == 0 || len(cs) == 0 {
			return row, false
		}
		row.Parent = math.Min(row.Parent, slices.Min(ps))
		row.Change = math.Min(row.Change, slices.Min(cs))
		if unit == timeUnit {
			ratio := median(cs) / median(ps)
			if ratio > 1+Threshold {
				row.Slower++
			}
			ratios = append(ratios, ratio)
		}
	}
	row.Regressed = row.Change > row.Parent*(1+Threshold)
	if unit == timeUnit {
		row.Ratio = median(ratios)
		row.Regressed = row.Regressed && row.Ratio > 1+Threshold && row.Slower >= needSlower(len(pairs))
	}
	return row, true
}

// Gate compares the pairs and writes a human-readable verdict to w. It
// returns an error counting the regressions when the gate fails.
func Gate(pairs []Pair, w io.Writer) error {
	if len(pairs) == 0 {
		return fmt.Errorf("no pairs to compare")
	}
	res := Compare(pairs)
	if len(res.Rows) == 0 {
		return fmt.Errorf("no benchmark is in every run of both sides")
	}
	regs := res.Regressions()
	for _, r := range regs {
		if r.Unit == timeUnit {
			fmt.Fprintf(w, "benchgate: REGRESSION %s ns/op: min %.4g -> %.4g (%+.1f%%), median pair ratio %.3f, slower in %d/%d pairs\n",
				r.Name, r.Parent, r.Change, (r.Change/r.Parent-1)*100, r.Ratio, r.Slower, res.Pairs)
		} else {
			fmt.Fprintf(w, "benchgate: REGRESSION %s %s: %.4g -> %.4g\n", r.Name, r.Unit, r.Parent, r.Change)
		}
	}
	for _, name := range res.New {
		fmt.Fprintf(w, "benchgate: new, not gated: %s\n", name)
	}
	for _, name := range res.Skipped {
		fmt.Fprintf(w, "benchgate: skipped, not in every run: %s\n", name)
	}
	fmt.Fprintf(w, "benchgate: %d rows over %d pairs: %d regressed, %d new, %d skipped (ns/op fails past +%.0f%% on the minimum, the median pair ratio and %d of %d pairs; allocs/op past +%.0f%% or up from 0)\n",
		len(res.Rows), res.Pairs, len(regs), len(res.New), len(res.Skipped),
		Threshold*100, needSlower(res.Pairs), res.Pairs, Threshold*100)
	if len(regs) > 0 {
		return fmt.Errorf("%d regressions past +%.0f%%", len(regs), Threshold*100)
	}
	return nil
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
