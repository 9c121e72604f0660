package cli

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"slotsel/internal/benchgate"
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
	// compared by -check, never timed) + cached/uncached service find +
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
	sawCached := false
	for name, units := range set.Benchmarks {
		for _, unit := range []string{"ns/op", "B/op", "allocs/op"} {
			if got := len(units[unit]); got != 3 {
				t.Errorf("%s: %d %s samples, want 3 (one per -iters rep)", name, got, unit)
			}
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
		if strings.Contains(name, "kernel=cached") {
			sawCached = true
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

// TestSlotbenchGate drives the -gate mode end to end on synthetic files:
// a clean pass, a flagged regression, and the usage errors.
func TestSlotbenchGate(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, bump float64) string {
		var b strings.Builder
		for i := 0; i < 6; i++ {
			scale := 1.0
			if i == 0 {
				scale = bump
			}
			for _, v := range []float64{100, 101, 102, 99, 98} {
				fmt.Fprintf(&b, "BenchmarkG%d\t1\t%g ns/op\t0 B/op\t0.00 allocs/op\n", i, v*scale)
			}
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.txt", 1)
	same := write("same.txt", 1)
	worse := write("worse.txt", 1.5)

	if code, stdout, stderr := runSlotbench(t, "-gate", base, same); code != 0 {
		t.Errorf("clean gate: exit %d\nstdout %s\nstderr %s", code, stdout, stderr)
	}
	code, stdout, stderr := runSlotbench(t, "-gate", base, worse)
	if code != 1 {
		t.Errorf("regressed gate: exit %d, want 1", code)
	}
	if !strings.Contains(stdout, "REGRESSION BenchmarkG0") || !strings.Contains(stderr, "regressions past +10%") {
		t.Errorf("gate did not report the regression:\nstdout %s\nstderr %s", stdout, stderr)
	}
	// A looser threshold lets the same delta through.
	if code, _, stderr := runSlotbench(t, "-regress", "60", "-gate", base, worse); code != 0 {
		t.Errorf("-regress 60: exit %d, stderr %s", code, stderr)
	}

	if code, _, _ := runSlotbench(t, "-gate", base); code != 2 {
		t.Errorf("-gate with one file: exit %d, want 2", code)
	}
	if code, _, stderr := runSlotbench(t, "-gate", base, filepath.Join(dir, "missing.txt")); code != 1 || stderr == "" {
		t.Errorf("-gate with missing file: exit %d, stderr %q", code, stderr)
	}
}

// TestSlotbenchGateRatchet drives -gate -ratchet end to end: an improved
// run replaces the baseline file byte-for-byte, while unchanged and
// regressed runs leave it untouched.
func TestSlotbenchGateRatchet(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, bump float64) string {
		var b strings.Builder
		for i := 0; i < 6; i++ {
			scale := 1.0
			if i == 0 {
				scale = bump
			}
			for _, v := range []float64{100, 101, 102, 99, 98} {
				fmt.Fprintf(&b, "BenchmarkG%d\t1\t%g ns/op\t0 B/op\t0.00 allocs/op\n", i, v*scale)
			}
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	baseline := write("baseline.txt", 1)
	baseBytes, _ := os.ReadFile(baseline)

	// Unchanged run: gate passes, baseline kept.
	same := write("same.txt", 1)
	code, stdout, stderr := runSlotbench(t, "-ratchet", baseline, "-gate", baseline, same)
	if code != 0 {
		t.Fatalf("unchanged gate: exit %d, stderr %s", code, stderr)
	}
	if !strings.Contains(stdout, "kept") {
		t.Errorf("unchanged run did not report the baseline as kept:\n%s", stdout)
	}
	if got, _ := os.ReadFile(baseline); !bytes.Equal(got, baseBytes) {
		t.Error("unchanged run rewrote the baseline")
	}

	// Regressed run: gate fails, baseline kept.
	worse := write("worse.txt", 1.5)
	if code, _, _ := runSlotbench(t, "-ratchet", baseline, "-gate", baseline, worse); code != 1 {
		t.Errorf("regressed gate with -ratchet: exit %d, want 1", code)
	}
	if got, _ := os.ReadFile(baseline); !bytes.Equal(got, baseBytes) {
		t.Error("regressed run rewrote the baseline")
	}

	// Improved run: gate passes and the baseline becomes the current file.
	better := write("better.txt", 0.5)
	betterBytes, _ := os.ReadFile(better)
	code, stdout, stderr = runSlotbench(t, "-ratchet", baseline, "-gate", baseline, better)
	if code != 0 {
		t.Fatalf("improved gate: exit %d, stderr %s", code, stderr)
	}
	if !strings.Contains(stdout, "ratcheted") {
		t.Errorf("improved run did not report the ratchet:\n%s", stdout)
	}
	if got, _ := os.ReadFile(baseline); !bytes.Equal(got, betterBytes) {
		t.Error("baseline was not replaced by the improved run")
	}

	// Second pass against the new baseline: the same run is now a no-op.
	code, stdout, _ = runSlotbench(t, "-ratchet", baseline, "-gate", baseline, better)
	if code != 0 || !strings.Contains(stdout, "kept") {
		t.Errorf("re-gate after ratchet: exit %d, stdout:\n%s", code, stdout)
	}
}
