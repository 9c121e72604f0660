package cli

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"slotsel/internal/telemetry"
)

// syncBuf is a bytes.Buffer safe to poll while the server goroutine is
// still writing to it.
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSlotserveTelemetry boots the CLI with -log-format=json and -pprof and
// walks the whole telemetry surface: the X-Trace-Id header, the /metricsz
// exposition (server families AND kernel families via the obs seam), the
// JSON request log correlation, and the live pprof endpoint.
func TestSlotserveTelemetry(t *testing.T) {
	file := filepath.Join(t.TempDir(), "env.json")
	if code, _, stderr := runSlotgen(t, "-nodes", "10", "-seed", "7", "-o", file); code != 0 {
		t.Fatalf("slotgen: exit %d, stderr %q", code, stderr)
	}

	srv := startSlotserve(t, "-slots", file, "-log-format", "json", "-pprof", "localhost:0")
	base, out, errBuf := srv.base, &srv.stdout, &srv.stderr

	resp, err := http.Post(base+"/v1/find", "application/json",
		strings.NewReader(`{"request":{"tasks":2,"volume":20,"max_cost":100000},"alg":"mincost"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("find: status %d", resp.StatusCode)
	}
	traceID := resp.Header.Get("X-Trace-Id")
	if len(traceID) != 16 {
		t.Fatalf("X-Trace-Id %q: want 16 hex chars", traceID)
	}

	// /metricsz: well-formed, carries the request counter AND the kernel
	// scan counters (proof the telemetry adapter joined the obs seam).
	resp, err = http.Get(base + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	got, perr := telemetry.ParseExposition(resp.Body)
	resp.Body.Close()
	if perr != nil {
		t.Fatalf("/metricsz malformed: %v", perr)
	}
	if n := got[`slotserve_http_requests_total{path="/v1/find",status="200"}`]; n != 1 {
		t.Errorf("find counter: got %g want 1", n)
	}
	if got["slotsel_scans_total"] < 1 {
		t.Errorf("kernel scans_total: got %g, want >= 1 (collector not combined into obs seam?)", got["slotsel_scans_total"])
	}
	// The select counter is labeled with the algorithm's canonical name
	// (core.MinCost.Name()), not the wire-format alias from the request.
	if got[`slotsel_select_total{alg="MinCost",found="true"}`] != 1 {
		t.Errorf("select counter missing: %g", got[`slotsel_select_total{alg="MinCost",found="true"}`])
	}

	// -pprof: the announced endpoint must actually serve profiles.
	deadline := time.Now().Add(5 * time.Second)
	var pprofAddr string
	for pprofAddr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("pprof address never announced: %q", errBuf.String())
		}
		for _, line := range strings.Split(errBuf.String(), "\n") {
			if i := strings.Index(line, "pprof listening on http://"); i >= 0 {
				pprofAddr = strings.TrimSuffix(strings.TrimSpace(line[i+len("pprof listening on "):]), "/debug/pprof/")
			}
		}
		if pprofAddr == "" {
			time.Sleep(10 * time.Millisecond)
		}
	}
	resp, err = http.Get(pprofAddr + "/debug/pprof/heap?debug=1")
	if err != nil {
		t.Fatalf("pprof fetch: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "heap profile") {
		t.Errorf("pprof heap: status %d, body %.80q", resp.StatusCode, body)
	}

	srv.stop()
	if code := <-srv.done; code != 0 {
		t.Fatalf("slotserve exit %d, stderr %q", code, errBuf.String())
	}

	// The JSON request log on stdout carries the same trace ID the client
	// saw, and names the algorithm.
	foundLine := false
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if line == "" || !strings.HasPrefix(line, "{") {
			continue
		}
		var entry struct {
			TraceID string `json:"trace_id"`
			Path    string `json:"path"`
			Status  int    `json:"status"`
			Alg     string `json:"alg"`
		}
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("request log line is not valid JSON: %v\n%s", err, line)
		}
		if entry.TraceID == traceID {
			foundLine = true
			if entry.Path != "/v1/find" || entry.Status != 200 || entry.Alg != "mincost" {
				t.Errorf("log line for %s: %+v", traceID, entry)
			}
		}
	}
	if !foundLine {
		t.Errorf("no request log line carries trace ID %s:\n%s", traceID, out.String())
	}
}

func TestSlotserveLogFormatValidation(t *testing.T) {
	file := filepath.Join(t.TempDir(), "env.json")
	if code, _, stderr := runSlotgen(t, "-nodes", "5", "-seed", "3", "-o", file); code != 0 {
		t.Fatalf("slotgen: exit %d, stderr %q", code, stderr)
	}
	code, _, stderr := runSlotserve(t, "-slots", file, "-log-format", "yaml")
	if code != 2 || !strings.Contains(stderr, "unknown -log-format") {
		t.Errorf("bad -log-format: exit %d, stderr %q; want 2 with diagnostics", code, stderr)
	}
}
