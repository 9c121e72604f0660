package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"slotsel/internal/obs"
)

// genEnv writes a small environment snapshot and returns its path.
func genEnv(t *testing.T, nodes int) string {
	t.Helper()
	envPath := filepath.Join(t.TempDir(), "env.json")
	if code, _, stderr := runSlotgen(t, "-nodes", fmt.Sprint(nodes), "-seed", "3", "-o", envPath); code != 0 {
		t.Fatalf("slotgen exit %d: %s", code, stderr)
	}
	return envPath
}

func TestSlotfindStatsOutput(t *testing.T) {
	envPath := genEnv(t, 40)

	code, stdout, stderr := runSlotfind(t, "-env", envPath, "-alg", "mincost", "-stats")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, want := range []string{
		"MinCost:", // the normal window output still comes first
		"scan counters",
		"scans:            1",
		"slots examined:",
		"selection",
		"MinCost",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stats output missing %q:\n%s", want, stdout)
		}
	}

	// Multi-algorithm comparison counts one scan per algorithm.
	code, stdout, stderr = runSlotfind(t, "-env", envPath,
		"-alg", "amp,mincost,minruntime", "-workers", "2", "-stats")
	if code != 0 {
		t.Fatalf("multi-alg exit %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "scans:            3") {
		t.Errorf("expected 3 scans in stats:\n%s", stdout)
	}

	// The CSA path reports one scan per accepted alternative plus the final
	// miss, and stats still print on the "no window" exit path.
	code, stdout, _ = runSlotfind(t, "-env", envPath, "-alternatives", "-stats")
	if code != 0 {
		t.Fatalf("alternatives exit %d", code)
	}
	if !strings.Contains(stdout, "scan counters") {
		t.Errorf("alternatives stats missing:\n%s", stdout)
	}
	code, stdout, _ = runSlotfind(t, "-env", envPath, "-tasks", "500", "-stats")
	if code != 1 {
		t.Fatalf("infeasible exit %d, want 1", code)
	}
	if !strings.Contains(stdout, "no feasible window") || !strings.Contains(stdout, "scan counters") {
		t.Errorf("infeasible run should still print stats:\n%s", stdout)
	}
}

// chromeEvent mirrors the subset of the trace_event schema the tests check.
type chromeEvent struct {
	Name  string  `json:"name"`
	Cat   string  `json:"cat"`
	Phase string  `json:"ph"`
	TS    float64 `json:"ts"`
	Dur   float64 `json:"dur"`
	PID   int     `json:"pid"`
	TID   int     `json:"tid"`
}

// readChromeTrace parses a trace file and fails the test on malformed JSON.
func readChromeTrace(t *testing.T, path string) []chromeEvent {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []chromeEvent
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace file is not a JSON event array: %v\n%s", err, data)
	}
	return events
}

func TestSlotfindTraceOutput(t *testing.T) {
	envPath := genEnv(t, 40)
	tracePath := filepath.Join(t.TempDir(), "trace.json")

	code, _, stderr := runSlotfind(t, "-env", envPath, "-alg", "amp", "-trace", tracePath)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	events := readChromeTrace(t, tracePath)
	if len(events) == 0 {
		t.Fatal("trace has no events")
	}
	var sawScan, sawSelect bool
	for _, ev := range events {
		if ev.Phase != "X" {
			t.Errorf("event %q: phase %q, want complete event \"X\"", ev.Name, ev.Phase)
		}
		if ev.PID != 1 || ev.TS < 0 || ev.Dur < 0 {
			t.Errorf("event %q has implausible fields: %+v", ev.Name, ev)
		}
		switch ev.Cat {
		case "scan":
			sawScan = true
		case "select":
			sawSelect = true
		}
	}
	if !sawScan || !sawSelect {
		t.Errorf("trace missing scan/select spans (scan=%v select=%v)", sawScan, sawSelect)
	}
}

// TestTraceDropNotice: a -trace ring that overflows still writes its file,
// and the tool says on stderr how many of the earliest spans are missing; a
// ring that holds every span says nothing.
func TestTraceDropNotice(t *testing.T) {
	const ring = 4
	for _, spans := range []int{ring, ring + 3} {
		fs := flag.NewFlagSet("slotsim", flag.ContinueOnError)
		o := registerObsFlags(fs)
		o.traceCap = ring
		path := filepath.Join(t.TempDir(), "trace.json")
		if err := fs.Parse([]string{"-trace", path}); err != nil {
			t.Fatal(err)
		}
		var stderr strings.Builder
		col, err := o.setup("slotsim", nil, &stderr)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < spans; i++ {
			col.Span(obs.Span{Name: "scan", Cat: "scan"})
		}
		if err := o.finish(); err != nil {
			t.Fatal(err)
		}
		if got := len(readChromeTrace(t, path)); got != ring {
			t.Errorf("%d spans: trace holds %d events, want %d", spans, got, ring)
		}
		want := ""
		if spans > ring {
			want = fmt.Sprintf("slotsim: the trace ring holds %d spans: %d earlier spans were dropped from %s\n",
				ring, spans-ring, path)
		}
		if stderr.String() != want {
			t.Errorf("%d spans: stderr %q, want %q", spans, stderr.String(), want)
		}
	}
}

func TestSlotsimStatsAndTrace(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	code, stdout, stderr := runSlotsim(t,
		"-cycles", "4", "-nodes", "25", "-stats", "-trace", tracePath, "batch")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, want := range []string{
		"batch study:", // the experiment's own output is unchanged
		"observability:",
		"scan_slots",
		"select_ms_",
		"batch_alternatives",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("slotsim -stats output missing %q:\n%s", want, stdout)
		}
	}
	events := readChromeTrace(t, tracePath)
	if len(events) == 0 {
		t.Fatal("slotsim trace has no events")
	}
	var sawCSA bool
	for _, ev := range events {
		if ev.Cat == "csa" {
			sawCSA = true
		}
	}
	if !sawCSA {
		t.Error("slotsim batch trace has no csa spans")
	}
}

func TestSlotsimQualityStats(t *testing.T) {
	code, stdout, stderr := runSlotsim(t, "-cycles", "6", "-nodes", "25", "-stats", "fig4")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	// The quality study instruments every algorithm of the figure.
	for _, want := range []string{"observability:", "select_ms_AMP", "select_ms_MinCost"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("quality stats missing %q:\n%s", want, stdout)
		}
	}
	// Batch rows must be absent: no batch experiment ran.
	if strings.Contains(stdout, "batch_alternatives") {
		t.Errorf("quality run reports batch rows:\n%s", stdout)
	}
}

func TestSlotfindPprof(t *testing.T) {
	envPath := genEnv(t, 40)
	code, _, stderr := runSlotfind(t, "-env", envPath, "-alg", "amp", "-pprof", "localhost:0")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(stderr, "pprof listening on http://") {
		t.Errorf("pprof address not announced: %q", stderr)
	}
	// A bad address is a runtime error, not a usage error.
	if code, _, _ := runSlotfind(t, "-env", envPath, "-pprof", "256.0.0.1:bogus"); code != 1 {
		t.Errorf("bad pprof address: exit %d, want 1", code)
	}
}

// TestSlotfindErrorPaths pins the exit codes and diagnostics of the
// documented failure modes: usage errors exit 2, runtime errors exit 1.
func TestSlotfindErrorPaths(t *testing.T) {
	dir := t.TempDir()
	corrupt := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(corrupt, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	envPath := genEnv(t, 40)

	cases := []struct {
		name     string
		args     []string
		wantCode int
		wantErr  string // substring of stderr
	}{
		{"unknown algorithm", []string{"-env", envPath, "-alg", "bogus"}, 2, "unknown algorithm"},
		{"unknown algorithm in list", []string{"-env", envPath, "-alg", "amp,bogus"}, 2, "unknown algorithm"},
		{"negative workers", []string{"-env", envPath, "-workers", "-3"}, 2, "-workers must be >= 0"},
		{"missing env flag", nil, 2, "-env is required"},
		{"unreadable env file", []string{"-env", filepath.Join(dir, "absent.json")}, 1, "no such file"},
		{"corrupt env file", []string{"-env", corrupt}, 1, "slotfind:"},
		{"env path is a directory", []string{"-env", dir}, 1, "slotfind:"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runSlotfind(t, tc.args...)
			if code != tc.wantCode {
				t.Errorf("exit %d, want %d (stderr %q)", code, tc.wantCode, stderr)
			}
			if !strings.Contains(stderr, tc.wantErr) {
				t.Errorf("stderr %q does not mention %q", stderr, tc.wantErr)
			}
		})
	}
}
