package benchgate

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestParseSet(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: slotsel/internal/core
BenchmarkFind/MinCost/nodes=64-8   	1	1500 ns/op	0 B/op	0 allocs/op
BenchmarkFind/MinCost/nodes=64-8   	1	1600 ns/op	0 B/op	0 allocs/op
BenchmarkCSA/nodes=64 	1	9000 ns/op
PASS
ok  	slotsel/internal/core	1.2s
`
	s, err := ParseSet(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	// The -8 GOMAXPROCS suffix must be trimmed so `go test -bench` output
	// pairs with runs at a different core count.
	ns := s.Benchmarks["BenchmarkFind/MinCost/nodes=64"]["ns/op"]
	if len(ns) != 2 || ns[0] != 1500 || ns[1] != 1600 {
		t.Errorf("ns/op samples = %v, want [1500 1600]", ns)
	}
	if al := s.Benchmarks["BenchmarkFind/MinCost/nodes=64"]["allocs/op"]; len(al) != 2 || al[0] != 0 {
		t.Errorf("allocs/op samples = %v", al)
	}
	if got := s.Benchmarks["BenchmarkCSA/nodes=64"]["ns/op"]; len(got) != 1 || got[0] != 9000 {
		t.Errorf("unsuffixed benchmark: %v", got)
	}
}

func TestParseSetRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"BenchmarkX\tnotanumber\t12 ns/op\n",
		"BenchmarkX\t1\t12 ns/op trailing\n",
		"BenchmarkX\t1\tbogus ns/op\n",
	} {
		if _, err := ParseSet(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseSet(%q) accepted malformed input", bad)
		}
	}
}

// run is one row of one fixture run: its timed samples and its alloc count.
type run struct {
	ns     []float64
	allocs float64
}

// steady is a quiet run at the given level: three samples within 5 %.
func steady(level float64) *run {
	return &run{ns: []float64{level, level * 1.02, level * 1.05}}
}

// grid is the fixture's rows; G0 is the one the cases disturb.
var grid = []string{"BenchmarkG0", "BenchmarkG1", "BenchmarkG2", "BenchmarkG3", "BenchmarkG4", "BenchmarkG5"}

// fixture renders n alternating pairs as -benchfmt text and parses them
// back, so every case goes through the parser the CLI uses. at returns the
// row's run on one side of one pair, nil when that file lacks the row.
func fixture(t *testing.T, n int, names []string, at func(name string, pair int, change bool) *run) []Pair {
	t.Helper()
	side := func(pair int, change bool) *Set {
		var b strings.Builder
		b.WriteString("goos: linux\ngoarch: amd64\npkg: slotsel/cmd/slotbench\n")
		for _, name := range names {
			r := at(name, pair, change)
			if r == nil {
				continue
			}
			for _, ns := range r.ns {
				fmt.Fprintf(&b, "%s\t1000\t%.0f ns/op\t0 B/op\t%.2f allocs/op\n", name, ns, r.allocs)
			}
		}
		set, err := ParseSet(strings.NewReader(b.String()))
		if err != nil {
			t.Fatal(err)
		}
		return set
	}
	pairs := make([]Pair, n)
	for i := range pairs {
		pairs[i] = Pair{Parent: side(i, false), Change: side(i, true)}
	}
	return pairs
}

// TestGate is the paired rule on ten-pair fixtures: what must pass, what
// must fail, and what is reported without being gated.
func TestGate(t *testing.T) {
	withNew := append(append([]string(nil), grid...), "BenchmarkNew")
	for _, tc := range []struct {
		name    string
		names   []string
		at      func(name string, pair int, change bool) *run
		regs    []string // "name unit" of every regression, in order
		news    []string
		skipped []string
	}{
		{
			name: "identical sides",
			at:   func(string, int, bool) *run { return steady(1000) },
		},
		{
			// The session slowed down for one pair: both of its runs read
			// 1.5x on every row. No ratio moves.
			name: "run-level drift over one pair",
			at: func(_ string, pair int, _ bool) *run {
				if pair == 3 {
					return steady(1500)
				}
				return steady(1000)
			},
		},
		{
			// The slow stretch hit one change run only: one pair in ten reads
			// 1.5x on every row, the other nine read 1.0.
			name: "one slow change run",
			at: func(_ string, pair int, change bool) *run {
				if pair == 6 && change {
					return steady(1500)
				}
				return steady(1000)
			},
		},
		{
			name: "one row +20% in every pair",
			at: func(name string, _ int, change bool) *run {
				if name == "BenchmarkG0" && change {
					return steady(1200)
				}
				return steady(1000)
			},
			regs: []string{"BenchmarkG0 ns/op"},
		},
		{
			name: "one row 2x faster",
			at: func(name string, _ int, change bool) *run {
				if name == "BenchmarkG0" && change {
					return steady(500)
				}
				return steady(1000)
			},
		},
		{
			// One change run lacks G5: the row is reported, not compared over
			// nine pairs, and the rest of the grid is still gated.
			name: "row missing from one run",
			at: func(name string, pair int, change bool) *run {
				if name == "BenchmarkG5" && pair == 4 && change {
					return nil
				}
				if name == "BenchmarkG0" && change {
					return steady(1200)
				}
				return steady(1000)
			},
			regs:    []string{"BenchmarkG0 ns/op"},
			skipped: []string{"BenchmarkG5"},
		},
		{
			name: "row gone from the change",
			at: func(name string, _ int, change bool) *run {
				if name == "BenchmarkG5" && change {
					return nil
				}
				return steady(1000)
			},
			skipped: []string{"BenchmarkG5"},
		},
		{
			name:  "row only the change has",
			names: withNew,
			at: func(name string, _ int, change bool) *run {
				if name == "BenchmarkNew" && !change {
					return nil
				}
				return steady(1000)
			},
			news: []string{"BenchmarkNew"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			names := tc.names
			if names == nil {
				names = grid
			}
			pairs := fixture(t, 10, names, tc.at)
			res := Compare(pairs)
			var regs []string
			for _, r := range res.Regressions() {
				regs = append(regs, r.Name+" "+r.Unit)
			}
			if fmt.Sprint(regs) != fmt.Sprint(tc.regs) {
				t.Errorf("regressions = %v, want %v", regs, tc.regs)
			}
			if fmt.Sprint(res.New) != fmt.Sprint(tc.news) {
				t.Errorf("new = %v, want %v", res.New, tc.news)
			}
			if fmt.Sprint(res.Skipped) != fmt.Sprint(tc.skipped) {
				t.Errorf("skipped = %v, want %v", res.Skipped, tc.skipped)
			}

			// The report names what Compare found, and fails on regressions
			// only: a new or a skipped row is said, not failed.
			var out bytes.Buffer
			err := Gate(pairs, &out)
			if (err != nil) != (len(tc.regs) > 0) {
				t.Errorf("Gate error = %v with %d regressions expected\n%s", err, len(tc.regs), out.String())
			}
			for _, r := range tc.regs {
				if !strings.Contains(out.String(), "REGRESSION "+r) {
					t.Errorf("report does not name regression %q:\n%s", r, out.String())
				}
			}
			for _, n := range tc.news {
				if !strings.Contains(out.String(), "new, not gated: "+n) {
					t.Errorf("report does not acknowledge new row %q:\n%s", n, out.String())
				}
			}
			for _, n := range tc.skipped {
				if !strings.Contains(out.String(), "skipped, not in every run: "+n) {
					t.Errorf("report does not name skipped row %q:\n%s", n, out.String())
				}
			}
		})
	}

	var out bytes.Buffer
	if err := Gate(nil, &out); err == nil {
		t.Error("no pairs accepted")
	}
	disjoint := fixture(t, 2, []string{"BenchmarkA", "BenchmarkB"}, func(name string, _ int, change bool) *run {
		if (name == "BenchmarkB") != change {
			return nil
		}
		return steady(1000)
	})
	if err := Gate(disjoint, &out); err == nil {
		t.Error("disjoint benchmark sets accepted")
	}
}

// TestCompareInsignificantNoiseIgnored: all three conditions on ns/op are
// needed — a row that misses any one of them is noise, not a regression.
func TestCompareInsignificantNoiseIgnored(t *testing.T) {
	g0 := func(at func(pair int, change bool) *run) func(string, int, bool) *run {
		return func(name string, pair int, change bool) *run {
			if name != "BenchmarkG0" {
				return steady(1000)
			}
			return at(pair, change)
		}
	}
	for _, tc := range []struct {
		name string
		at   func(pair int, change bool) *run
	}{
		// +20 % in six pairs, level in four: the change's best run is as
		// fast as the parent's, and the pair count is short.
		{"slower in 6 of 10 pairs", func(pair int, change bool) *run {
			if change && pair < 6 {
				return steady(1200)
			}
			return steady(1000)
		}},
		// Seven pairs read +20 %; in the other three the parent ran slow
		// too. Minimum and median ratio both say +20 %; seven pairs is not
		// eight.
		{"minimum and median up, 7 of 10 pairs", func(pair int, change bool) *run {
			if change || pair >= 7 {
				return steady(1200)
			}
			return steady(1000)
		}},
		// Every pair's typical sample is +25 %, but the change still reaches
		// the parent's best time: a noisier tail, the same floor.
		{"same floor, heavier tail", func(_ int, change bool) *run {
			if change {
				return &run{ns: []float64{1000, 1250, 1300}}
			}
			return steady(1000)
		}},
		// +12 % on the minimum, but the parent's typical sample sits above
		// its best one: run against run, no pair reads past +9 %.
		{"minimum up, ratios under the bound", func(_ int, change bool) *run {
			if change {
				return &run{ns: []float64{1120, 1122, 1125}}
			}
			return &run{ns: []float64{1000, 1030, 1060}}
		}},
	} {
		res := Compare(fixture(t, 10, grid, g0(tc.at)))
		for _, r := range res.Regressions() {
			t.Errorf("%s: flagged %+v", tc.name, r)
		}
	}
}

// TestCompareAllocsUncalibrated: allocs/op is deterministic, so it is read
// straight off the samples with no pair rule — a step from zero fails the
// gate with every timing unchanged, and so does +20 % on a count; a stray
// allocation in one run of ten does not.
func TestCompareAllocsUncalibrated(t *testing.T) {
	for _, tc := range []struct {
		name           string
		parent, change float64
		stray          bool // one change run reports change, the rest parent
		want           bool
	}{
		{"0 -> 1", 0, 1, false, true},
		{"0 -> 0.02", 0, 0.02, false, true},
		{"10 -> 12", 10, 12, false, true},
		{"10 -> 10.5", 10, 10.5, false, false},
		{"12 -> 10", 12, 10, false, false},
		{"0 -> 1 in one run of ten", 0, 1, true, false},
	} {
		pairs := fixture(t, 10, grid, func(name string, pair int, change bool) *run {
			r := steady(1000)
			r.allocs = tc.parent
			if name == "BenchmarkG0" && change && (!tc.stray || pair == 2) {
				r.allocs = tc.change
			}
			return r
		})
		regs := Compare(pairs).Regressions()
		if !tc.want {
			if len(regs) != 0 {
				t.Errorf("%s: flagged %+v", tc.name, regs)
			}
			continue
		}
		if len(regs) != 1 || regs[0].Name != "BenchmarkG0" || regs[0].Unit != "allocs/op" {
			t.Errorf("%s: regressions = %+v, want BenchmarkG0 allocs/op", tc.name, regs)
		}
	}
}
