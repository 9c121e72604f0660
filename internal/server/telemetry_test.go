package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"slotsel/internal/inventory"
	"slotsel/internal/obs"
	"slotsel/internal/telemetry"
	"slotsel/internal/telemetry/reqlog"
)

func scrapeMetricsz(t *testing.T, base string) (map[string]float64, string) {
	t.Helper()
	resp, err := http.Get(base + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metricsz: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metricsz content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	got, err := telemetry.ParseExposition(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("/metricsz exposition malformed: %v\n%s", err, raw)
	}
	return got, string(raw)
}

// TestMetricszExposition drives a known request mix and asserts the scraped
// endpoint counters, latency histograms and inventory gauges reflect it.
func TestMetricszExposition(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, ts, _ := newTestServer(t, Options{Metrics: reg})
	req := requestJSON(t, 2, 50)

	for i := 0; i < 3; i++ {
		if code, out := postJSON(t, ts.URL+"/v1/find", map[string]any{"request": req}); code != http.StatusOK {
			t.Fatalf("find %d: status %d: %v", i, code, out)
		}
	}
	code, out := postJSON(t, ts.URL+"/v1/reserve", map[string]any{"request": req, "ttl_seconds": 60})
	if code != http.StatusOK {
		t.Fatalf("reserve: status %d: %v", code, out)
	}
	id := fieldString(t, out, "id")
	if code, _ = postJSON(t, ts.URL+"/v1/commit", map[string]any{"id": id}); code != http.StatusOK {
		t.Fatalf("commit: status %d", code)
	}
	// A request for an unknown path lands in the "other" cardinality bucket.
	resp, err := http.Get(ts.URL + "/does/not/exist")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	got, raw := scrapeMetricsz(t, ts.URL)
	exact := map[string]float64{
		`slotserve_http_requests_total{path="/v1/find",status="200"}`:    3,
		`slotserve_http_requests_total{path="/v1/reserve",status="200"}`: 1,
		`slotserve_http_requests_total{path="/v1/commit",status="200"}`:  1,
		`slotserve_http_requests_total{path="other",status="404"}`:       1,
		`slotserve_request_duration_seconds_count{path="/v1/find"}`:      3,
		"slotserve_completed_total":                                      6,
		"slotsel_inventory_holds":                                        0,
		"slotsel_inventory_committed":                                    1,
		"slotsel_inventory_nodes":                                        3,
	}
	if testShards() == 1 {
		// Over shards these tick once per touched shard; exact values are
		// only pinned unsharded.
		exact["slotsel_inventory_reserves_total"] = 1
		exact["slotsel_inventory_commits_total"] = 1
	} else {
		exact["slotserve_shards"] = float64(testShards())
	}
	for key, want := range exact {
		if got[key] != want {
			t.Errorf("%s: got %g want %g\n%s", key, got[key], want, raw)
		}
	}
	if testShards() > 1 {
		if got["slotsel_inventory_reserves_total"] < 1 || got["slotsel_inventory_commits_total"] < 1 {
			t.Errorf("sharded reserve/commit counters missing\n%s", raw)
		}
	}
	// The scrape itself was request 7; the sampled counter reads the same
	// atomic /v1/statusz reports, which incremented before the handler ran.
	if got["slotserve_requests_total"] != 7 {
		t.Errorf("slotserve_requests_total: got %g want 7", got["slotserve_requests_total"])
	}
	// Queue waits are observed for every admitted request except the
	// in-flight scrape (its finish runs after the exposition was written).
	if got["slotserve_queue_wait_seconds_count"] != 6 {
		t.Errorf("queue_wait count: got %g want 6", got["slotserve_queue_wait_seconds_count"])
	}
	if got["slotsel_inventory_free_slots"] <= 0 {
		t.Errorf("free_slots gauge missing: %g", got["slotsel_inventory_free_slots"])
	}
}

// TestMetricszAgreesWithStatusz is the differential check the slotlab gate
// generalizes: the sampled admission counters and the statusz JSON must
// read the same atomics, so a metricsz-then-statusz pair can only disagree
// by the traffic between the two reads — here, exactly the statusz request
// itself. The inventory family reads one Status per scrape, as statusz
// does, so with no mutation in between it equals statusz's inventory
// section field for field — over one pool and over four shards.
func TestMetricszAgreesWithStatusz(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			t.Setenv("SLOTSEL_TEST_SHARDS", strconv.Itoa(shards))
			metricszAgreesWithStatusz(t)
		})
	}
}

func metricszAgreesWithStatusz(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, ts, _ := newTestServer(t, Options{Metrics: reg})
	req := requestJSON(t, 1, 20)
	for i := 0; i < 4; i++ {
		postJSON(t, ts.URL+"/v1/find", map[string]any{"request": req})
	}
	// Holds, commits and releases, some across shards, so every inventory
	// family has something to count.
	for i, settle := range []string{"/v1/commit", "/v1/release", "", "/v1/commit", ""} {
		code, out := postJSON(t, ts.URL+"/v1/reserve", map[string]any{"request": requestJSON(t, 1+i%3, 20), "ttl_seconds": 600})
		if code != http.StatusOK {
			t.Fatalf("reserve %d: status %d: %v", i, code, out)
		}
		if settle != "" {
			if code, _ := postJSON(t, ts.URL+settle, map[string]any{"id": fieldString(t, out, "id")}); code != http.StatusOK {
				t.Fatalf("%s %d: status %d", settle, i, code)
			}
		}
	}

	got, raw := scrapeMetricsz(t, ts.URL)
	resp, err := http.Get(ts.URL + "/v1/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status struct {
		Server struct {
			Requests        float64 `json:"requests"`
			Completed       float64 `json:"completed"`
			Shed            float64 `json:"shed"`
			DeadlineExpired float64 `json:"deadline_expired"`
		} `json:"server"`
		Inventory inventory.Status `json:"inventory"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	// The statusz request is the only traffic after the scrape.
	if want := got["slotserve_requests_total"] + 1; status.Server.Requests != want {
		t.Errorf("requests: statusz %g, metricsz+1 %g", status.Server.Requests, want)
	}
	if want := got["slotserve_shed_total"]; status.Server.Shed != want {
		t.Errorf("shed: statusz %g, metricsz %g", status.Server.Shed, want)
	}
	if want := got["slotserve_deadline_expired_total"]; status.Server.DeadlineExpired != want {
		t.Errorf("deadline_expired: statusz %g, metricsz %g", status.Server.DeadlineExpired, want)
	}
	inv := status.Inventory
	if inv.Holds != 2 || inv.Committed != 2 {
		t.Errorf("statusz inventory counts %d holds, %d committed; want 2 and 2", inv.Holds, inv.Committed)
	}
	for family, want := range map[string]float64{
		"slotsel_inventory_free_slots":       float64(inv.FreeSlots),
		"slotsel_inventory_free_span":        inv.FreeSpan,
		"slotsel_inventory_holds":            float64(inv.Holds),
		"slotsel_inventory_committed":        float64(inv.Committed),
		"slotsel_inventory_nodes":            float64(inv.Nodes),
		"slotsel_inventory_snapshot_version": float64(inv.Version),
		"slotsel_inventory_journal_len":      float64(inv.JournalLen),
		"slotsel_inventory_reserves_total":   float64(inv.Counters.Reserves),
		"slotsel_inventory_conflicts_total":  float64(inv.Counters.Conflicts),
		"slotsel_inventory_no_window_total":  float64(inv.Counters.NoWindow),
		"slotsel_inventory_commits_total":    float64(inv.Counters.Commits),
		"slotsel_inventory_releases_total":   float64(inv.Counters.Releases),
		"slotsel_inventory_expiries_total":   float64(inv.Counters.Expiries),
	} {
		if got[family] != want {
			t.Errorf("%s: metricsz %g, statusz %g\n%s", family, got[family], want, raw)
		}
	}
}

// TestTraceIDCorrelation asserts the tentpole's correlation contract: the
// X-Trace-Id response header, the structured log line and the request's
// obs span all carry the same ID, and the log line names the algorithm.
func TestTraceIDCorrelation(t *testing.T) {
	var logBuf bytes.Buffer
	trace := obs.NewTrace(64)
	reg := telemetry.NewRegistry()
	_, ts, _ := newTestServer(t, Options{
		Metrics:    reg,
		RequestLog: reqlog.New(&logBuf),
		Collector:  trace,
	})
	req := requestJSON(t, 2, 50)
	raw, _ := json.Marshal(map[string]any{"request": req, "alg": "mincost"})
	resp, err := http.Post(ts.URL+"/v1/find", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	id := resp.Header.Get("X-Trace-Id")
	if len(id) != 16 {
		t.Fatalf("X-Trace-Id %q: want 16 hex chars", id)
	}

	var line struct {
		TraceID string  `json:"trace_id"`
		Method  string  `json:"method"`
		Path    string  `json:"path"`
		Status  int     `json:"status"`
		Alg     string  `json:"alg"`
		DurMs   float64 `json:"dur_ms"`
	}
	if err := json.Unmarshal(logBuf.Bytes(), &line); err != nil {
		t.Fatalf("request log line: %v\n%s", err, logBuf.String())
	}
	if line.TraceID != id {
		t.Errorf("log trace_id %q != header %q", line.TraceID, id)
	}
	if line.Path != "/v1/find" || line.Method != "POST" || line.Status != 200 {
		t.Errorf("log line fields: %+v", line)
	}
	if line.Alg != "mincost" {
		t.Errorf("log alg: got %q want %q", line.Alg, "mincost")
	}
	if line.DurMs <= 0 {
		t.Errorf("log dur_ms: got %g, want > 0", line.DurMs)
	}

	found := false
	for _, sp := range trace.Spans() {
		if sp.Cat == "http" && sp.Trace == id {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no http span carries trace ID %q", id)
	}
}

// TestTraceIDOnRejectedRequests: shed and malformed requests still get a
// trace ID and a log line — overload is exactly when logs matter.
func TestTraceIDOnRejectedRequests(t *testing.T) {
	var logBuf bytes.Buffer
	_, ts, _ := newTestServer(t, Options{RequestLog: reqlog.New(&logBuf)})
	resp, err := http.Get(ts.URL + "/v1/find") // wrong method: 405
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if id := resp.Header.Get("X-Trace-Id"); len(id) != 16 {
		t.Errorf("405 response X-Trace-Id %q: want 16 hex chars", id)
	}
	var line struct {
		Status int `json:"status"`
	}
	if err := json.Unmarshal(logBuf.Bytes(), &line); err != nil {
		t.Fatalf("log line: %v\n%s", err, logBuf.String())
	}
	if line.Status != http.StatusMethodNotAllowed {
		t.Errorf("log status: got %d want 405", line.Status)
	}
}

// TestMetricszWithoutRegistry: no Options.Metrics, no route.
func TestMetricszWithoutRegistry(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/metricsz without a registry: status %d, want 404", resp.StatusCode)
	}
}

// TestMetricszUnderConcurrentLoad is the acceptance race test: scrapes
// racing live traffic must stay well-formed. Run with -race.
func TestMetricszUnderConcurrentLoad(t *testing.T) {
	reg := telemetry.NewRegistry()
	var logBuf syncBuffer
	_, ts, _ := newTestServer(t, Options{
		Metrics:    reg,
		RequestLog: reqlog.New(&logBuf),
	})
	req := requestJSON(t, 1, 20)
	raw, _ := json.Marshal(map[string]any{"request": req})

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				resp, err := http.Post(ts.URL+"/v1/find", "application/json", bytes.NewReader(raw))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, err := http.Get(ts.URL + "/metricsz")
				if err != nil {
					t.Error(err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if _, err := telemetry.ParseExposition(bytes.NewReader(body)); err != nil {
					t.Errorf("scrape %d malformed under load: %v", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	got, _ := scrapeMetricsz(t, ts.URL)
	if n := got[`slotserve_http_requests_total{path="/v1/find",status="200"}`]; n != 100 {
		t.Errorf("find counter after load: got %g want 100", n)
	}
}

type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}
