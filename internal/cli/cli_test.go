package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// run invokes a CLI function capturing stdout/stderr.
func run(t *testing.T, f func([]string, *bytes.Buffer, *bytes.Buffer) int, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code = f(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

func runSlotsim(t *testing.T, args ...string) (int, string, string) {
	return run(t, func(a []string, o, e *bytes.Buffer) int { return Slotsim(a, o, e) }, args...)
}

func runSlotgen(t *testing.T, args ...string) (int, string, string) {
	return run(t, func(a []string, o, e *bytes.Buffer) int { return Slotgen(a, o, e) }, args...)
}

func runSlotfind(t *testing.T, args ...string) (int, string, string) {
	return run(t, func(a []string, o, e *bytes.Buffer) int { return Slotfind(a, o, e) }, args...)
}

func TestSlotsimUsageErrors(t *testing.T) {
	if code, _, _ := runSlotsim(t); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if code, _, stderr := runSlotsim(t, "nonsense"); code != 2 || !strings.Contains(stderr, "unknown experiment") {
		t.Errorf("unknown experiment: exit %d, stderr %q", code, stderr)
	}
	if code, _, _ := runSlotsim(t, "-not-a-flag", "fig4"); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
	if code, _, stderr := runSlotsim(t, "-workers", "-1", "summary"); code != 2 || !strings.Contains(stderr, "slotsim: -workers must be >= 0") {
		t.Errorf("negative workers: exit %d, stderr %q", code, stderr)
	}
}

func TestSlotsimFig4(t *testing.T) {
	code, stdout, stderr := runSlotsim(t, "-cycles", "15", "-nodes", "30", "fig4")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	for _, want := range []string{"Fig. 4", "MinCost", "CSA"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("fig4 output missing %q:\n%s", want, stdout)
		}
	}
}

func TestSlotsimSummaryParallel(t *testing.T) {
	code, stdout, stderr := runSlotsim(t, "-cycles", "15", "-nodes", "30", "-workers", "3", "summary")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "CSA average alternatives") {
		t.Errorf("summary output incomplete:\n%s", stdout)
	}
}

func TestSlotsimTimingTables(t *testing.T) {
	// Shrink via -cycles; the sweep values stay the paper's, so keep the
	// run tiny.
	code, stdout, stderr := runSlotsim(t, "-cycles", "1", "table2")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "Table 2") || !strings.Contains(stdout, "Fig. 6") {
		t.Errorf("table2 output incomplete:\n%s", stdout)
	}
}

func TestSlotsimExtensions(t *testing.T) {
	for _, cmd := range []string{"tasks", "frontier", "batch", "longrun"} {
		code, stdout, stderr := runSlotsim(t, "-cycles", "5", "-nodes", "30", cmd)
		if code != 0 {
			t.Fatalf("%s: exit %d, stderr %q", cmd, code, stderr)
		}
		if stdout == "" {
			t.Errorf("%s produced no output", cmd)
		}
	}
}

func TestSlotsimAll(t *testing.T) {
	if testing.Short() {
		t.Skip("all-experiments run is slow")
	}
	code, stdout, stderr := runSlotsim(t,
		"-cycles", "1", "-nodes", "25",
		"-sweep-nodes", "15", "-sweep-horizons", "200", "all")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, want := range []string{"Fig. 2 (a)", "Fig. 4", "Table 1", "Table 2", "pricing degree", "batch study"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("all output missing %q", want)
		}
	}
}

func TestSlotsimCSVOutput(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "out.csv")
	code, _, stderr := runSlotsim(t, "-cycles", "10", "-nodes", "30", "-csv", csvPath, "summary")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "algorithm,metric,mean") {
		t.Errorf("CSV header wrong: %q", string(data[:min(60, len(data))]))
	}
}

func TestSlotsimAblate(t *testing.T) {
	code, stdout, stderr := runSlotsim(t, "-cycles", "10", "-nodes", "30", "ablate")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "pricing degree ablation") {
		t.Errorf("ablate output incomplete:\n%s", stdout)
	}
}

func TestSlotgenAndSlotfindPipeline(t *testing.T) {
	dir := t.TempDir()
	envPath := filepath.Join(dir, "env.json")

	code, _, stderr := runSlotgen(t, "-nodes", "40", "-seed", "3", "-o", envPath)
	if code != 0 {
		t.Fatalf("slotgen exit %d: %s", code, stderr)
	}
	if !strings.Contains(stderr, "40 nodes") {
		t.Errorf("slotgen summary missing: %q", stderr)
	}
	if _, err := os.Stat(envPath); err != nil {
		t.Fatal(err)
	}

	code, stdout, stderr := runSlotfind(t, "-env", envPath, "-alg", "mincost")
	if code != 0 {
		t.Fatalf("slotfind exit %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "MinCost:") {
		t.Errorf("slotfind output missing header: %q", stdout)
	}

	code, stdout, _ = runSlotfind(t, "-env", envPath, "-alg", "minruntime", "-gantt")
	if code != 0 {
		t.Fatalf("slotfind -gantt exit %d", code)
	}
	if !strings.Contains(stdout, "#") || !strings.Contains(stdout, "=") {
		t.Errorf("gantt glyphs missing:\n%s", stdout)
	}

	code, stdout, _ = runSlotfind(t, "-env", envPath, "-alternatives")
	if code != 0 {
		t.Fatalf("slotfind -alternatives exit %d", code)
	}
	if !strings.Contains(stdout, "disjoint alternatives") {
		t.Errorf("alternatives output missing: %q", stdout)
	}

	code, stdout, _ = runSlotfind(t, "-env", envPath, "-alg", "amp", "-json")
	if code != 0 {
		t.Fatalf("slotfind -json exit %d", code)
	}
	if !strings.Contains(stdout, `"placements"`) {
		t.Errorf("JSON output missing placements: %q", stdout)
	}

	// Multi-algorithm comparison on the worker pool: the table must list
	// every requested algorithm and be identical for any worker count.
	code, seqOut, stderr := runSlotfind(t, "-env", envPath, "-alg", "amp,mincost,minruntime", "-workers", "1")
	if code != 0 {
		t.Fatalf("slotfind multi-alg exit %d: %s", code, stderr)
	}
	for _, name := range []string{"AMP", "MinCost", "MinRunTime"} {
		if !strings.Contains(seqOut, name) {
			t.Errorf("multi-alg table missing %s:\n%s", name, seqOut)
		}
	}
	code, parOut, stderr := runSlotfind(t, "-env", envPath, "-alg", "amp,mincost,minruntime", "-workers", "8")
	if code != 0 {
		t.Fatalf("slotfind multi-alg -workers 8 exit %d: %s", code, stderr)
	}
	if parOut != seqOut {
		t.Errorf("multi-alg output depends on worker count:\nworkers=1:\n%s\nworkers=8:\n%s", seqOut, parOut)
	}
}

func TestSlotfindErrors(t *testing.T) {
	if code, _, _ := runSlotfind(t); code != 2 {
		t.Errorf("missing -env: exit %d, want 2", code)
	}
	if code, _, _ := runSlotfind(t, "-env", "/does/not/exist.json"); code != 1 {
		t.Errorf("missing file: exit %d, want 1", code)
	}
	dir := t.TempDir()
	envPath := filepath.Join(dir, "env.json")
	if code, _, _ := runSlotgen(t, "-nodes", "10", "-o", envPath); code != 0 {
		t.Fatal("slotgen failed")
	}
	if code, _, _ := runSlotfind(t, "-env", envPath, "-alg", "bogus"); code != 2 {
		t.Errorf("unknown algorithm: exit %d, want 2", code)
	}
	// An impossible request exits 1 with a friendly message.
	code, stdout, _ := runSlotfind(t, "-env", envPath, "-tasks", "500")
	if code != 1 || !strings.Contains(stdout, "no feasible window") {
		t.Errorf("infeasible request: exit %d, stdout %q", code, stdout)
	}
}

func TestSlotsimRemainingExperiments(t *testing.T) {
	for _, cmd := range []string{"fig2", "fig3", "hetero", "deadline"} {
		code, stdout, stderr := runSlotsim(t, "-cycles", "8", "-nodes", "30", cmd)
		if code != 0 {
			t.Fatalf("%s: exit %d, stderr %q", cmd, code, stderr)
		}
		if stdout == "" {
			t.Errorf("%s produced no output", cmd)
		}
	}
}

func TestSlotsimSweepFlagsAndSVG(t *testing.T) {
	dir := t.TempDir()
	code, stdout, stderr := runSlotsim(t,
		"-cycles", "2", "-sweep-nodes", "20,40", "-svg", dir, "table1")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "20") || !strings.Contains(stdout, "40") {
		t.Errorf("custom sweep values missing:\n%s", stdout)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig5.svg"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "<svg") {
		t.Errorf("fig5.svg is not SVG: %q", string(data[:min(40, len(data))]))
	}

	code, _, stderr = runSlotsim(t,
		"-cycles", "2", "-sweep-horizons", "200,400", "-svg", dir, "table2")
	if code != 0 {
		t.Fatalf("table2 exit %d: %s", code, stderr)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig6.svg")); err != nil {
		t.Fatal(err)
	}

	if code, _, _ := runSlotsim(t, "-sweep-nodes", "abc", "table1"); code != 2 {
		t.Errorf("bad sweep list accepted: exit %d", code)
	}
}

func TestSlotsimQualitySVG(t *testing.T) {
	dir := t.TempDir()
	code, _, stderr := runSlotsim(t, "-cycles", "8", "-nodes", "30", "-svg", dir, "fig2")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, name := range []string{"fig2a.svg", "fig2b.svg"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("%s missing: %v", name, err)
		}
	}
}

func TestSlotfindRequestFile(t *testing.T) {
	dir := t.TempDir()
	envPath := filepath.Join(dir, "env.json")
	if code, _, _ := runSlotgen(t, "-nodes", "40", "-o", envPath); code != 0 {
		t.Fatal("slotgen failed")
	}
	reqPath := filepath.Join(dir, "req.json")
	if err := os.WriteFile(reqPath, []byte(`{"tasks": 3, "volume": 90, "max_cost": 900}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runSlotfind(t, "-env", envPath, "-request", reqPath, "-alg", "mincost")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	// Three placements must be listed (one per task of the loaded request).
	if got := strings.Count(stdout, "node "); got != 3 {
		t.Errorf("expected 3 placements, got %d:\n%s", got, stdout)
	}
	if code, _, _ := runSlotfind(t, "-env", envPath, "-request", filepath.Join(dir, "missing.json")); code != 1 {
		t.Errorf("missing request file: exit %d, want 1", code)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"tasks": 0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := runSlotfind(t, "-env", envPath, "-request", bad); code != 1 {
		t.Errorf("invalid request file: exit %d, want 1", code)
	}
}

func TestSlotgenToStdout(t *testing.T) {
	code, stdout, _ := runSlotgen(t, "-nodes", "5")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(stdout, `"version"`) {
		t.Errorf("snapshot JSON missing: %q", stdout[:min(80, len(stdout))])
	}
}
