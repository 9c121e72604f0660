package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"slotsel/internal/inventory"
	"slotsel/internal/job"
	"slotsel/internal/persist"
	"slotsel/internal/telemetry"
	"slotsel/internal/testkit"
)

// newWatchServer builds a server over a single slot [0, 100) on one
// perf-5 node, so one volume-500 reservation consumes the whole pool and
// watch subscriptions park deterministically.
func newWatchServer(t *testing.T, opts Options) (*Server, *httptest.Server, inventory.Pool) {
	t.Helper()
	inv := testPool(t, testkit.SlotList(testkit.Slot(testkit.Node(0, 5, 1), 0, 100)))
	srv := New(inv, opts)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts, inv
}

// watchURL renders a /v1/watch query for a persist-encoded request.
func watchURL(t *testing.T, base string, req json.RawMessage, extra url.Values) string {
	t.Helper()
	q := url.Values{"request": {string(req)}}
	for k, vs := range extra {
		q[k] = vs
	}
	return base + "/v1/watch?" + q.Encode()
}

// getJSON performs a GET and decodes the JSON body.
func getJSON(t *testing.T, u string) (int, http.Header, map[string]json.RawMessage) {
	t.Helper()
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, resp.Header, out
}

// watchStatus reads the statusz watch section.
func watchStatus(t *testing.T, base string) (active int, delivered, expired, rejected uint64) {
	t.Helper()
	resp, err := http.Get(base + "/v1/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Watch struct {
			Active    int    `json:"active"`
			Delivered uint64 `json:"delivered"`
			Expired   uint64 `json:"expired"`
			Rejected  uint64 `json:"rejected"`
		} `json:"watch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	w := body.Watch
	return w.Active, w.Delivered, w.Expired, w.Rejected
}

// awaitParked polls until n watch subscribers are parked.
func awaitParked(t *testing.T, base string, n int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if active, _, _, _ := watchStatus(t, base); active >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("watcher never parked (want %d active)", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// reserveAll books the whole single-slot pool and returns the hold ID.
func reserveAll(t *testing.T, base string) string {
	t.Helper()
	code, out := postJSON(t, base+"/v1/reserve", map[string]any{
		"request":     requestJSON(t, 1, 500), // runtime 100 at perf 5: the full slot
		"ttl_seconds": 60,
	})
	if code != http.StatusOK {
		t.Fatalf("reserve-all: status %d: %v", code, out)
	}
	return fieldString(t, out, "id")
}

// TestWatchImmediateDelivery: a satisfiable request is answered without
// parking, with the same shape as /v1/find.
func TestWatchImmediateDelivery(t *testing.T) {
	_, ts, _ := newWatchServer(t, Options{})
	code, _, out := getJSON(t, watchURL(t, ts.URL, requestJSON(t, 1, 50), nil))
	if code != http.StatusOK {
		t.Fatalf("watch: status %d: %v", code, out)
	}
	if len(out["window"]) == 0 || string(out["window"]) == "null" {
		t.Fatalf("watch delivered no window: %v", out)
	}
	if len(out["version"]) == 0 {
		t.Fatal("watch response missing snapshot version")
	}
	if _, delivered, _, _ := watchStatus(t, ts.URL); delivered != 1 {
		t.Fatalf("delivered counter = %d, want 1", delivered)
	}
}

// TestWatchDeliversOnRelease is the event-driven core: a watch parked on
// a fully booked pool is woken by the overlapping release publication and
// pushed the first satisfying window.
func TestWatchDeliversOnRelease(t *testing.T) {
	_, ts, _ := newWatchServer(t, Options{RequestTimeout: 10 * time.Second})
	id := reserveAll(t, ts.URL)

	type result struct {
		code int
		out  map[string]json.RawMessage
	}
	done := make(chan result, 1)
	go func() {
		code, _, out := getJSON(t, watchURL(t, ts.URL, requestJSON(t, 1, 50), nil))
		done <- result{code, out}
	}()
	awaitParked(t, ts.URL, 1)

	if code, _ := postJSON(t, ts.URL+"/v1/release", map[string]any{"id": id}); code != http.StatusOK {
		t.Fatalf("release: status %d", code)
	}
	select {
	case res := <-done:
		if res.code != http.StatusOK {
			t.Fatalf("watch after release: status %d: %v", res.code, res.out)
		}
		if len(res.out["window"]) == 0 || string(res.out["window"]) == "null" {
			t.Fatalf("watch delivered no window: %v", res.out)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watch was not woken by the release")
	}
	if active, delivered, _, _ := watchStatus(t, ts.URL); active != 0 || delivered != 1 {
		t.Fatalf("post-delivery stats: active %d, delivered %d", active, delivered)
	}
}

// TestWatchDeadline: a watch on a pool that never frees answers 404 at
// its (shortened) deadline, mirroring find's no-window status.
func TestWatchDeadline(t *testing.T) {
	_, ts, _ := newWatchServer(t, Options{})
	reserveAll(t, ts.URL)
	begin := time.Now()
	code, _, out := getJSON(t, watchURL(t, ts.URL, requestJSON(t, 1, 50),
		url.Values{"timeout_seconds": {"0.15"}}))
	if code != http.StatusNotFound {
		t.Fatalf("watch: status %d: %v", code, out)
	}
	if waited := time.Since(begin); waited < 100*time.Millisecond {
		t.Fatalf("watch answered after %v; it never parked", waited)
	}
	if _, _, expired, _ := watchStatus(t, ts.URL); expired != 1 {
		t.Fatalf("expired counter = %d, want 1", expired)
	}
}

// TestWatchSubscriberLimit: past WatchLimit, new watches are rejected
// immediately with 429 and a parseable Retry-After — parked long-polls
// must not be able to consume the whole admission pool.
func TestWatchSubscriberLimit(t *testing.T) {
	_, ts, _ := newWatchServer(t, Options{WatchLimit: 1, RequestTimeout: 10 * time.Second})
	reserveAll(t, ts.URL)
	release := make(chan struct{})
	go func() {
		getJSON(t, watchURL(t, ts.URL, requestJSON(t, 1, 50),
			url.Values{"timeout_seconds": {"5"}}))
		close(release)
	}()
	awaitParked(t, ts.URL, 1)

	code, hdr, out := getJSON(t, watchURL(t, ts.URL, requestJSON(t, 1, 50), nil))
	if code != http.StatusTooManyRequests {
		t.Fatalf("second watch: status %d: %v", code, out)
	}
	ra, err := strconv.Atoi(hdr.Get("Retry-After"))
	if err != nil || ra < minRetryAfterSeconds || ra > maxRetryAfterSeconds {
		t.Fatalf("Retry-After %q not an integer in [%d, %d]",
			hdr.Get("Retry-After"), minRetryAfterSeconds, maxRetryAfterSeconds)
	}
	if _, _, _, rejected := watchStatus(t, ts.URL); rejected != 1 {
		t.Fatalf("rejected counter = %d, want 1", rejected)
	}
	<-release
}

// TestWatchDrain: DrainWatches wakes every parked subscriber with 503 and
// rejects new subscriptions, so graceful shutdown is not held open by
// long-polls.
func TestWatchDrain(t *testing.T) {
	srv, ts, _ := newWatchServer(t, Options{RequestTimeout: 10 * time.Second})
	reserveAll(t, ts.URL)
	done := make(chan int, 1)
	go func() {
		code, _, _ := getJSON(t, watchURL(t, ts.URL, requestJSON(t, 1, 50), nil))
		done <- code
	}()
	awaitParked(t, ts.URL, 1)
	srv.DrainWatches()
	select {
	case code := <-done:
		if code != http.StatusServiceUnavailable {
			t.Fatalf("drained watch: status %d, want 503", code)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("drain did not wake the parked watch")
	}
	if code, _, _ := getJSON(t, watchURL(t, ts.URL, requestJSON(t, 1, 50), nil)); code != http.StatusServiceUnavailable {
		t.Fatalf("watch after drain: status %d, want 503", code)
	}
}

// TestWatchBadInputs: malformed subscriptions fail fast with 400/405, not
// by parking.
func TestWatchBadInputs(t *testing.T) {
	_, ts, _ := newWatchServer(t, Options{})
	req := requestJSON(t, 1, 50)
	cases := []struct {
		name string
		url  string
		want int
	}{
		{"missing request", ts.URL + "/v1/watch", http.StatusBadRequest},
		{"bad request json", ts.URL + "/v1/watch?request=%7B", http.StatusBadRequest},
		{"unknown alg", watchURL(t, ts.URL, req, url.Values{"alg": {"nope"}}), http.StatusBadRequest},
		{"unknown csa", watchURL(t, ts.URL, req, url.Values{"csa": {"nope"}}), http.StatusBadRequest},
		{"negative timeout", watchURL(t, ts.URL, req, url.Values{"timeout_seconds": {"-1"}}), http.StatusBadRequest},
		{"non-numeric timeout", watchURL(t, ts.URL, req, url.Values{"timeout_seconds": {"soon"}}), http.StatusBadRequest},
		// Out of a Duration's range: the float-to-int conversion used to be
		// undefined (on amd64 the watch expired at once, or — satisfiable,
		// as here — was served as if the parameter were valid).
		{"timeout past a Duration", watchURL(t, ts.URL, req, url.Values{"timeout_seconds": {"1e10"}}), http.StatusBadRequest},
		{"infinite timeout", watchURL(t, ts.URL, req, url.Values{"timeout_seconds": {"Inf"}}), http.StatusBadRequest},
		{"NaN timeout", watchURL(t, ts.URL, req, url.Values{"timeout_seconds": {"NaN"}}), http.StatusBadRequest},
	}
	for _, tc := range cases {
		code, _, out := getJSON(t, tc.url)
		if code != tc.want {
			t.Errorf("%s: status %d, want %d (%v)", tc.name, code, tc.want, out)
		}
		if tc.name == "timeout past a Duration" && !strings.Contains(string(out["error"]), "at most 9223372036") {
			t.Errorf("%s: error %s does not name the bound", tc.name, out["error"])
		}
	}
	resp, err := http.Post(ts.URL+"/v1/watch", "application/json", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/watch: status %d, want 405", resp.StatusCode)
	}
}

// TestWatchCSADelivery: the CSA criterion path works over watch too.
func TestWatchCSADelivery(t *testing.T) {
	_, ts, _ := newWatchServer(t, Options{})
	code, _, out := getJSON(t, watchURL(t, ts.URL, requestJSON(t, 1, 50),
		url.Values{"csa": {"cost"}}))
	if code != http.StatusOK {
		t.Fatalf("csa watch: status %d: %v", code, out)
	}
	if len(out["window"]) == 0 || string(out["window"]) == "null" {
		t.Fatalf("csa watch delivered no window: %v", out)
	}
}

// TestWatchThenReserveNoDoubleBooking extends the no-double-booking race
// suite to the cached/event-driven path: clients learn about capacity via
// /v1/watch (served through the find cache), then race to reserve and
// commit it. Advisory watch windows lose races safely (409/404 retries),
// and every committed window must still be pairwise disjoint per node.
func TestWatchThenReserveNoDoubleBooking(t *testing.T) {
	const clients = 6
	_, ts, inv := newTestServer(t, Options{
		MaxInflight:    16,
		QueueDepth:     128,
		WatchLimit:     clients,
		RequestTimeout: 5 * time.Second,
	})

	var (
		mu      sync.Mutex
		commits []wireWindow
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			req := requestJSON(t, 2, 30)
			for i := 0; i < 20; i++ {
				code, _, out := getJSON(t, watchURL(t, ts.URL, req,
					url.Values{"timeout_seconds": {"0.5"}}))
				if code == http.StatusNotFound {
					return // pool exhausted: no window before the deadline
				}
				if code == http.StatusTooManyRequests {
					continue
				}
				if code != http.StatusOK {
					t.Errorf("client %d: watch status %d: %v", c, code, out)
					return
				}
				code, rout := postJSON(t, ts.URL+"/v1/reserve", map[string]any{
					"request": req, "ttl_seconds": 60,
				})
				if code == http.StatusNotFound || code == http.StatusConflict {
					continue // lost the race the watch window advertised
				}
				if code != http.StatusOK {
					t.Errorf("client %d: reserve status %d: %v", c, code, rout)
					return
				}
				id := fieldString(t, rout, "id")
				code, cout := postJSON(t, ts.URL+"/v1/commit", map[string]any{"id": id})
				if code != http.StatusOK {
					t.Errorf("client %d: commit status %d: %v", c, code, cout)
					return
				}
				var win wireWindow
				if err := json.Unmarshal(cout["window"], &win); err != nil {
					t.Errorf("client %d: window: %v", c, err)
					return
				}
				mu.Lock()
				commits = append(commits, win)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	if len(commits) == 0 {
		t.Fatal("no watch-advertised window was ever committed")
	}
	for i := 0; i < len(commits); i++ {
		for j := i + 1; j < len(commits); j++ {
			for _, p := range commits[i].Placements {
				for _, q := range commits[j].Placements {
					if p.Node == q.Node && p.Start < q.Start+q.Exec && q.Start < p.Start+p.Exec {
						t.Fatalf("double booking on node %d: [%g,%g) vs [%g,%g)",
							p.Node, p.Start, p.Start+p.Exec, q.Start, q.Start+q.Exec)
					}
				}
			}
		}
	}
	// A cross-shard commit ticks one counter per touched shard, so the
	// matrix run counts distinct committed windows instead.
	if got := int(inv.Status().Counters.Commits); testShards() == 1 && got != len(commits) {
		t.Fatalf("inventory reports %d commits, clients observed %d", got, len(commits))
	}
	if got := len(inv.Committed()); got != len(commits) {
		t.Fatalf("inventory holds %d committed windows, clients observed %d", got, len(commits))
	}
}

// TestAvgServiceExcludesWatch: a parked long-poll must not poison the
// mean service time behind the Retry-After drain estimate.
func TestAvgServiceExcludesWatch(t *testing.T) {
	srv, ts, _ := newWatchServer(t, Options{})
	// A request no node can satisfy parks until its shortened deadline.
	var buf bytes.Buffer
	if err := persist.WriteRequest(&buf, &job.Request{TaskCount: 1, Volume: 10, MaxCost: 10000, MinPerf: 999}); err != nil {
		t.Fatal(err)
	}
	code, _, _ := getJSON(t, watchURL(t, ts.URL, buf.Bytes(),
		url.Values{"timeout_seconds": {"0.4"}}))
	if code != http.StatusNotFound {
		t.Fatalf("impossible watch: status %d, want 404", code)
	}
	if avg := srv.avgService(); avg > 200*time.Millisecond {
		t.Fatalf("avgService %v includes the 400ms watch park", avg)
	}
	if srv.completed.Load() == 0 {
		t.Fatal("watch requests must still count as completed")
	}
}

// TestStatuszAndMetricsFindCache: two identical finds produce a cache hit
// visible in the statusz find_cache section and the slotserve_find_cache_*
// and slotserve_watch_* metric families.
func TestStatuszAndMetricsFindCache(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, ts, _ := newTestServer(t, Options{Metrics: reg})
	req := requestJSON(t, 2, 50)
	for i := 0; i < 2; i++ {
		if code, out := postJSON(t, ts.URL+"/v1/find", map[string]any{"request": req}); code != http.StatusOK {
			t.Fatalf("find %d: status %d: %v", i, code, out)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		FindCache *struct {
			Hits    uint64 `json:"hits"`
			Misses  uint64 `json:"misses"`
			Entries int    `json:"entries"`
		} `json:"find_cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.FindCache == nil {
		t.Fatal("statusz missing find_cache section")
	}
	if body.FindCache.Hits < 1 || body.FindCache.Misses < 1 || body.FindCache.Entries < 1 {
		t.Fatalf("find_cache stats %+v: want >=1 hit, miss and entry", *body.FindCache)
	}
	vals, raw := scrapeMetricsz(t, ts.URL)
	hits, ok := vals["slotserve_find_cache_hits_total"]
	if !ok || hits != float64(body.FindCache.Hits) {
		t.Fatalf("slotserve_find_cache_hits_total = %v (present %v), statusz hits %d\n%s",
			hits, ok, body.FindCache.Hits, raw)
	}
	for _, fam := range []string{
		"slotserve_find_cache_misses_total",
		"slotserve_find_cache_invalidated_total",
		"slotserve_find_cache_evicted_total",
		"slotserve_find_cache_entries",
		"slotserve_watch_active",
		"slotserve_watch_delivered_total",
		"slotserve_watch_expired_total",
		"slotserve_watch_rejected_total",
	} {
		if _, ok := vals[fam]; !ok {
			t.Errorf("metric family %s missing from /metricsz", fam)
		}
	}
}

// TestFindCacheDisabled: FindCacheSize < 0 turns the cache off — every
// find is a fresh scan and statusz carries no find_cache section.
func TestFindCacheDisabled(t *testing.T) {
	srv, ts, _ := newTestServer(t, Options{FindCacheSize: -1})
	if srv.cache != nil {
		t.Fatal("cache built despite FindCacheSize < 0")
	}
	req := requestJSON(t, 2, 50)
	if code, out := postJSON(t, ts.URL+"/v1/find", map[string]any{"request": req}); code != http.StatusOK {
		t.Fatalf("find: status %d: %v", code, out)
	}
	resp, err := http.Get(ts.URL + "/v1/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if _, ok := body["find_cache"]; ok {
		t.Fatal("statusz carries a find_cache section with the cache disabled")
	}
}
