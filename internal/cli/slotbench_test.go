package cli

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"slotsel/internal/benchgate"
	"slotsel/internal/testkit"
)

func runSlotbench(t *testing.T, args ...string) (int, string, string) {
	return run(t, func(a []string, o, e *bytes.Buffer) int { return Slotbench(a, o, e) }, args...)
}

// TestSlotbenchBenchfmt runs a tiny grid in -benchfmt mode and checks the
// output is benchgate-parseable with the expected shape: one line per
// repetition, ns/op + B/op + allocs/op on each, and a zero allocs/op
// column for every incremental find kernel (the zero-alloc contract,
// visible straight from the emitted text).
func TestSlotbenchBenchfmt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.txt")
	code, _, stderr := runSlotbench(t, "-benchfmt", "-iters", "3", "-nodes", "16", "-tasks", "2", "-o", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	set, err := benchgate.ParseSet(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("output not parseable: %v", err)
	}
	// 9 algorithms (the shipped kernels only: the copy+sort oracle is
	// compared by the core differential test, never timed) + cached/uncached
	// service find +
	// 1 CSA + 1 batch + churn at shards {1,2,4} x workers {1,4} + the deep
	// reserve/release cycle at 3 horizons + the find scale rows, 6
	// algorithms at 1 024 and 4 096 nodes = 34 benchmarks.
	if len(set.Benchmarks) != 34 {
		t.Errorf("parsed %d benchmarks, want 34", len(set.Benchmarks))
	}
	for name := range set.Benchmarks {
		if strings.Contains(name, "kernel=oracle") {
			t.Errorf("%s: the reference kernel is timed again", name)
		}
	}
	// Every sample reaches the harness' floor: iterations x ns/op is the
	// sample's wall time (ns/op is printed rounded, hence the half-unit).
	lines := 0
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		lines++
		n, err1 := strconv.Atoi(f[1])
		ns, err2 := strconv.ParseFloat(f[2], 64)
		if err1 != nil || err2 != nil || f[3] != "ns/op" {
			t.Fatalf("malformed line %q", line)
		}
		if wall := float64(n) * (ns + 0.5); wall < float64(benchMinSample.Nanoseconds()) {
			t.Errorf("sample of %.2f ms is under the %v floor: %q", wall/1e6, benchMinSample, line)
		}
	}
	if lines != 34*3 {
		t.Errorf("%d benchmark lines, want %d", lines, 34*3)
	}
	sawCached := false
	for name, units := range set.Benchmarks {
		for _, unit := range []string{"ns/op", "B/op", "allocs/op"} {
			if got := len(units[unit]); got != 3 {
				t.Errorf("%s: %d %s samples, want 3 (one per -iters rep)", name, got, unit)
			}
		}
		cached := strings.Contains(name, "kernel=cached")
		sawCached = sawCached || cached
		// The race detector's instrumentation allocates: the zero-alloc
		// columns are a contract only without it.
		if testkit.RaceEnabled {
			continue
		}
		if strings.Contains(name, "kernel=incremental") || strings.HasPrefix(name, "BenchmarkFindScale/") {
			for _, a := range units["allocs/op"] {
				if a != 0 {
					t.Errorf("%s: allocs/op = %v, want 0 (zero-alloc contract)", name, a)
				}
			}
		}
		// The cached service row measures steady-state hits (the instance
		// never churns mid-benchmark), and the hit path is alloc-free.
		if cached {
			for _, a := range units["allocs/op"] {
				if a != 0 {
					t.Errorf("%s: allocs/op = %v, want 0 (cache-hit zero-alloc contract)", name, a)
				}
			}
		}
	}
	if !sawCached {
		t.Error("no kernel=cached benchmark in the grid")
	}
}

// TestSlotbenchGate drives the -gate mode end to end on fixture files of
// ten alternating pairs: a clean pass, a flagged regression, a row only
// the change has, and the usage and input errors.
func TestSlotbenchGate(t *testing.T) {
	dir := t.TempDir()
	// write renders one run: six rows, three samples each, row G0 scaled by
	// bump; extra names a row appended after them.
	write := func(name string, bump float64, extra string) string {
		var b strings.Builder
		rows := []string{"BenchmarkG0", "BenchmarkG1", "BenchmarkG2", "BenchmarkG3", "BenchmarkG4", "BenchmarkG5"}
		if extra != "" {
			rows = append(rows, extra)
		}
		for i, row := range rows {
			scale := 1.0
			if i == 0 {
				scale = bump
			}
			for _, v := range []float64{100, 102, 105} {
				fmt.Fprintf(&b, "%s\t1000\t%g ns/op\t0 B/op\t0.00 allocs/op\n", row, v*scale)
			}
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// pairs lists p1 c1 ... p10 c10 with the change side's G0 scaled by bump.
	pairs := func(tag string, bump float64, extra string) []string {
		args := []string{"-gate"}
		for i := 1; i <= 10; i++ {
			args = append(args,
				write(fmt.Sprintf("%s_p%d.txt", tag, i), 1, ""),
				write(fmt.Sprintf("%s_c%d.txt", tag, i), bump, extra))
		}
		return args
	}

	code, stdout, stderr := runSlotbench(t, pairs("same", 1, "")...)
	if code != 0 || !strings.Contains(stdout, "12 rows over 10 pairs: 0 regressed") {
		t.Errorf("clean gate: exit %d\nstdout %s\nstderr %s", code, stdout, stderr)
	}
	code, stdout, stderr = runSlotbench(t, pairs("worse", 1.2, "")...)
	if code != 1 {
		t.Errorf("regressed gate: exit %d, want 1", code)
	}
	if !strings.Contains(stdout, "REGRESSION BenchmarkG0 ns/op") || !strings.Contains(stderr, "1 regressions past +10%") {
		t.Errorf("gate did not report the regression:\nstdout %s\nstderr %s", stdout, stderr)
	}
	code, stdout, stderr = runSlotbench(t, pairs("grown", 1, "BenchmarkAdded")...)
	if code != 0 || !strings.Contains(stdout, "new, not gated: BenchmarkAdded") {
		t.Errorf("gate with a new row: exit %d\nstdout %s\nstderr %s", code, stdout, stderr)
	}
	// One pair is a comparison too: the rule then asks that one pair.
	p1, c1 := write("one_p.txt", 1, ""), write("one_c.txt", 1, "")
	if code, _, stderr := runSlotbench(t, "-gate", p1, c1); code != 0 {
		t.Errorf("-gate with one pair: exit %d, stderr %s", code, stderr)
	}

	if code, _, _ := runSlotbench(t, "-gate"); code != 2 {
		t.Errorf("-gate with no files: exit %d, want 2", code)
	}
	if code, _, stderr := runSlotbench(t, "-gate", p1, c1, p1); code != 2 || !strings.Contains(stderr, "pairs") {
		t.Errorf("-gate with an odd file count: exit %d, stderr %q", code, stderr)
	}
	missing := filepath.Join(dir, "missing.txt")
	if code, _, stderr := runSlotbench(t, "-gate", p1, missing); code != 1 || !strings.Contains(stderr, "missing.txt") {
		t.Errorf("-gate with a missing file: exit %d, stderr %q", code, stderr)
	}
	for name, body := range map[string]string{
		"garbled.txt": "BenchmarkG0\tmany\t100 ns/op\n",
		"empty.txt":   "goos: linux\n",
	} {
		bad := filepath.Join(dir, name)
		if err := os.WriteFile(bad, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if code, _, stderr := runSlotbench(t, "-gate", p1, c1, p1, bad); code != 1 || !strings.Contains(stderr, name) {
			t.Errorf("-gate with %s: exit %d, stderr %q (want 1 and the file named)", name, code, stderr)
		}
	}
}
