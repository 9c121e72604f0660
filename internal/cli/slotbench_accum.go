package cli

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"slotsel/internal/benchgate"
)

// trajPoint is one benchmark's summary inside a trajectory entry.
type trajPoint struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// trajEntry is one accumulated run: a labeled column of the dashboard.
type trajEntry struct {
	Label   string      `json:"label"`
	Time    string      `json:"time,omitempty"`
	Results []trajPoint `json:"results"`
}

// dataJSHeader precedes the JSON payload so the file loads from a plain
// <script src="data.js"> tag — a file:// dashboard has no fetch() under
// most browsers' CORS rules, a global assignment always works.
const dataJSHeader = `// Machine-generated benchmark trajectory; do not edit by hand.
// Append a run:  go run ./cmd/slotbench -accum results/data.js -label NAME bench.txt
// Render:        open results/dashboard.html
window.SLOTBENCH_TRAJECTORY = `

// benchName renders a result's canonical benchmark identity — the single
// name shared by -benchfmt lines, BENCH_*.json rows and trajectory
// points, so every output mode of the harness joins on it.
func benchName(r benchResult) string {
	switch r.Bench {
	case "find":
		return fmt.Sprintf("BenchmarkFind/alg=%s/kernel=%s/nodes=%d/tasks=%d", r.Alg, r.Kernel, r.Nodes, r.Tasks)
	case "csa":
		return fmt.Sprintf("BenchmarkCSA/nodes=%d/tasks=%d", r.Nodes, r.Tasks)
	case "batch":
		return fmt.Sprintf("BenchmarkBatch/nodes=%d/jobs=%d", r.Nodes, r.Jobs)
	case "churn":
		return fmt.Sprintf("BenchmarkChurn/shards=%d/workers=%d/nodes=%d", r.Shards, r.Workers, r.Nodes)
	case "reserve_release":
		return fmt.Sprintf("BenchmarkReserveReleaseChurn/nodes=%d/horizon=%d", r.Nodes, r.Horizon)
	case "find_scale":
		return fmt.Sprintf("BenchmarkFindScale/alg=%s/nodes=%d/tasks=%d", r.Alg, r.Nodes, r.Tasks)
	}
	return "Benchmark" + r.Bench
}

// benchAccum is the -accum mode: turn one run — a -benchfmt text file, a
// BENCH_*.json snapshot, or a fresh grid run when no input is named —
// into a labeled trajectory entry and merge it into the data.js series.
// An entry with the same label is replaced (re-running a PR's CI must not
// duplicate its column); new labels append in arrival order.
func benchAccum(stdout, stderr io.Writer, dataPath, label string, inputs []string, seed uint64, iters int, nodeCounts, taskCounts []int) int {
	if len(inputs) > 1 {
		fmt.Fprintln(stderr, "slotbench: -accum takes at most one input file")
		return 2
	}
	var (
		points []trajPoint
		err    error
	)
	if len(inputs) == 1 {
		points, label, err = accumInput(inputs[0], label)
	} else {
		if label == "" {
			label = "local"
		}
		points, err = accumGridRun(seed, iters, nodeCounts, taskCounts)
	}
	if err != nil {
		fmt.Fprintln(stderr, "slotbench:", err)
		return 1
	}
	sort.Slice(points, func(i, j int) bool { return points[i].Name < points[j].Name })

	entries, err := loadTrajectory(dataPath)
	if err != nil {
		fmt.Fprintln(stderr, "slotbench:", err)
		return 1
	}
	entry := trajEntry{Label: label, Time: time.Now().UTC().Format(time.RFC3339), Results: points}
	replaced := false
	for i := range entries {
		if entries[i].Label == label {
			entries[i] = entry
			replaced = true
			break
		}
	}
	if !replaced {
		entries = append(entries, entry)
	}
	if err := writeTrajectory(dataPath, entries); err != nil {
		fmt.Fprintln(stderr, "slotbench:", err)
		return 1
	}
	verb := "appended"
	if replaced {
		verb = "replaced"
	}
	fmt.Fprintf(stdout, "slotbench: %s trajectory entry %q (%d benchmarks) in %s (%d entries)\n",
		verb, label, len(points), dataPath, len(entries))
	return 0
}

// accumInput summarizes one recorded run. A .json input is a BENCH_*.json
// snapshot; anything else is parsed as Go benchmark text, taking the
// median of each benchmark's repetitions.
func accumInput(path, label string) ([]trajPoint, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".json") {
		var file benchFile
		if err := json.NewDecoder(f).Decode(&file); err != nil {
			return nil, "", fmt.Errorf("%s: %w", path, err)
		}
		if label == "" {
			label = fmt.Sprintf("issue-%d", file.Issue)
		}
		var points []trajPoint
		for _, r := range file.Results {
			points = append(points, trajPoint{
				Name:        benchName(r),
				NsPerOp:     float64(r.NsPerOp),
				BytesPerOp:  r.BytesPerOp,
				AllocsPerOp: r.AllocsPerOp,
			})
		}
		return points, label, nil
	}
	set, err := benchgate.ParseSet(f)
	if err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	if label == "" {
		label = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	}
	var points []trajPoint
	for name, units := range set.Benchmarks {
		points = append(points, trajPoint{
			Name:        name,
			NsPerOp:     sampleMedian(units["ns/op"]),
			BytesPerOp:  sampleMedian(units["B/op"]),
			AllocsPerOp: sampleMedian(units["allocs/op"]),
		})
	}
	return points, label, nil
}

// accumGridRun measures the grid fresh, exactly like the JSON output mode.
func accumGridRun(seed uint64, iters int, nodeCounts, taskCounts []int) ([]trajPoint, error) {
	ops, err := benchOpsGrid(seed, nodeCounts, taskCounts)
	if err != nil {
		return nil, err
	}
	var points []trajPoint
	for _, bo := range ops {
		times := benchTimes(iters, bo.op)
		allocs, bytes := benchAlloc(bo.allocRounds, bo.op)
		points = append(points, trajPoint{
			Name:        bo.name,
			NsPerOp:     float64(minInt64(times)),
			BytesPerOp:  bytes,
			AllocsPerOp: allocs,
		})
	}
	return points, nil
}

// loadTrajectory reads data.js back into entries; a missing file is an
// empty trajectory.
func loadTrajectory(path string) ([]trajEntry, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	i := bytes.IndexByte(raw, '=')
	if i < 0 {
		return nil, fmt.Errorf("%s: not a trajectory file (no assignment)", path)
	}
	payload := strings.TrimSpace(string(raw[i+1:]))
	payload = strings.TrimSuffix(payload, ";")
	var entries []trajEntry
	if err := json.Unmarshal([]byte(payload), &entries); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return entries, nil
}

func writeTrajectory(path string, entries []trajEntry) error {
	var b strings.Builder
	b.WriteString(dataJSHeader)
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(entries); err != nil {
		return err
	}
	s := strings.TrimRight(b.String(), "\n") + ";\n"
	return os.WriteFile(path, []byte(s), 0o644)
}

// sampleMedian is the midpoint summary of one benchmark's repetitions.
func sampleMedian(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
