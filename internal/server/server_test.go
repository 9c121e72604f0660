package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"slotsel/internal/inventory"
	"slotsel/internal/job"
	"slotsel/internal/obs"
	"slotsel/internal/persist"
	"slotsel/internal/slots"
	"slotsel/internal/telemetry"
	"slotsel/internal/testkit"
	"slotsel/internal/wal"
)

// testShards is the shard-matrix knob: the CI matrix re-runs this suite
// with SLOTSEL_TEST_SHARDS=4 so every HTTP-level invariant is also held
// over a sharded pool. Default 1 keeps the plain single-inventory path.
func testShards() int {
	n, err := strconv.Atoi(os.Getenv("SLOTSEL_TEST_SHARDS"))
	if err != nil || n < 1 {
		return 1
	}
	return n
}

// testPool builds the suite's inventory over list, sharded when the
// matrix knob asks for it.
func testPool(t *testing.T, list slots.List) inventory.Pool {
	t.Helper()
	return bootPool(t, "", list, inventory.Options{MinSlotLength: 1, Shards: testShards()}, wal.Options{}).Pool
}

// bootPool boots the pool invOpts asks for over list: in memory with
// dir == "", else durable in dir, its stores closed at cleanup.
func bootPool(t *testing.T, dir string, list slots.List, invOpts inventory.Options, walOpts wal.Options) *wal.Stack {
	t.Helper()
	stack, err := wal.Boot(dir, func() (slots.List, error) { return list, nil }, invOpts, walOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stack.Close() })
	return stack
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server, inventory.Pool) {
	t.Helper()
	inv := testPool(t, testkit.SlotList(
		testkit.Slot(testkit.Node(0, 5, 1), 0, 200),
		testkit.Slot(testkit.Node(1, 4, 1), 0, 200),
		testkit.Slot(testkit.Node(2, 3, 1), 0, 200),
	))
	srv := New(inv, opts)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts, inv
}

func requestJSON(t *testing.T, tasks int, volume float64) json.RawMessage {
	t.Helper()
	var buf bytes.Buffer
	if err := persist.WriteRequest(&buf, &job.Request{TaskCount: tasks, Volume: volume, MaxCost: 10000}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postJSON(t *testing.T, url string, body any) (int, map[string]json.RawMessage) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return postRaw(t, url, string(raw))
}

func postRaw(t *testing.T, url, raw string) (int, map[string]json.RawMessage) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, out
}

func fieldString(t *testing.T, m map[string]json.RawMessage, key string) string {
	t.Helper()
	var s string
	if err := json.Unmarshal(m[key], &s); err != nil {
		t.Fatalf("field %q: %v (raw %s)", key, err, m[key])
	}
	return s
}

// TestLifecycleWalkthrough drives the documented find → reserve → commit →
// release sequence end to end over real HTTP.
func TestLifecycleWalkthrough(t *testing.T) {
	_, ts, inv := newTestServer(t, Options{})
	req := requestJSON(t, 2, 50)

	code, out := postJSON(t, ts.URL+"/v1/find", map[string]any{"request": req})
	if code != http.StatusOK {
		t.Fatalf("find: status %d: %v", code, out)
	}
	if len(out["window"]) == 0 {
		t.Fatal("find: no window in response")
	}

	code, out = postJSON(t, ts.URL+"/v1/reserve", map[string]any{"request": req, "ttl_seconds": 60})
	if code != http.StatusOK {
		t.Fatalf("reserve: status %d: %v", code, out)
	}
	id := fieldString(t, out, "id")
	if id == "" {
		t.Fatal("reserve: empty reservation id")
	}

	code, out = postJSON(t, ts.URL+"/v1/commit", map[string]any{"id": id})
	if code != http.StatusOK {
		t.Fatalf("commit: status %d: %v", code, out)
	}

	// Double-commit must 404: the hold is gone.
	code, _ = postJSON(t, ts.URL+"/v1/commit", map[string]any{"id": id})
	if code != http.StatusNotFound {
		t.Fatalf("double commit: status %d, want 404", code)
	}

	// A second reserve+release round-trips too.
	code, out = postJSON(t, ts.URL+"/v1/reserve", map[string]any{"request": req})
	if code != http.StatusOK {
		t.Fatalf("reserve 2: status %d: %v", code, out)
	}
	id2 := fieldString(t, out, "id")
	code, _ = postJSON(t, ts.URL+"/v1/release", map[string]any{"id": id2})
	if code != http.StatusOK {
		t.Fatalf("release: status %d", code)
	}

	// Over a sharded pool a cross-shard operation ticks the counter of
	// every shard it touches, so the matrix run only checks lower bounds.
	got := inv.Status().Counters
	if testShards() == 1 {
		if got.Commits != 1 || got.Releases != 1 || got.Reserves != 2 {
			t.Fatalf("counters = %+v, want 2 reserves / 1 commit / 1 release", got)
		}
	} else if got.Commits < 1 || got.Releases < 1 || got.Reserves < 2 {
		t.Fatalf("sharded counters = %+v, want at least 2 reserves / 1 commit / 1 release", got)
	}
}

// TestSlotsAndStatusz checks the read-only endpoints: /v1/slots emits a
// parseable persist slot list that shrinks after a commit, /v1/statusz
// reports inventory and server sections.
// TestStatuszShardSection: over an explicitly sharded pool, statusz must
// expose the per-shard breakdown alongside the merged inventory section,
// and the sum of shard node counts must equal the merged count.
func TestStatuszShardSection(t *testing.T) {
	inv, err := inventory.NewSharded(testkit.SlotList(
		testkit.Slot(testkit.Node(0, 5, 1), 0, 200),
		testkit.Slot(testkit.Node(1, 4, 1), 0, 200),
		testkit.Slot(testkit.Node(2, 3, 1), 0, 200),
	), inventory.Options{MinSlotLength: 1, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(inv, Options{}))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status struct {
		Inventory inventory.Status   `json:"inventory"`
		Shards    []inventory.Status `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if len(status.Shards) != 4 {
		t.Fatalf("statusz shards section has %d entries, want 4", len(status.Shards))
	}
	var nodes int
	for _, st := range status.Shards {
		nodes += st.Nodes
	}
	if nodes != status.Inventory.Nodes || nodes != 3 {
		t.Fatalf("shard node counts sum to %d, merged section says %d, want 3", nodes, status.Inventory.Nodes)
	}
}

func TestSlotsAndStatusz(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})

	resp, err := http.Get(ts.URL + "/v1/slots")
	if err != nil {
		t.Fatal(err)
	}
	before, err := persist.ReadSlotList(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("slots: %v", err)
	}
	if len(before) != 3 {
		t.Fatalf("got %d free slots, want 3", len(before))
	}
	if resp.Header.Get("X-Inventory-Version") == "" {
		t.Fatal("missing X-Inventory-Version header")
	}

	code, out := postJSON(t, ts.URL+"/v1/reserve", map[string]any{"request": requestJSON(t, 2, 50)})
	if code != http.StatusOK {
		t.Fatalf("reserve: %d", code)
	}
	postJSON(t, ts.URL+"/v1/commit", map[string]any{"id": fieldString(t, out, "id")})

	resp, err = http.Get(ts.URL + "/v1/slots")
	if err != nil {
		t.Fatal(err)
	}
	after, err := persist.ReadSlotList(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	// The committed spans must be gone: total free capacity shrinks.
	var totalBefore, totalAfter float64
	for _, s := range before {
		totalBefore += s.End - s.Start
	}
	for _, s := range after {
		totalAfter += s.End - s.Start
	}
	if totalAfter >= totalBefore {
		t.Fatalf("free capacity did not shrink after commit: %g -> %g", totalBefore, totalAfter)
	}

	resp, err = http.Get(ts.URL + "/v1/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		Inventory inventory.Status `json:"inventory"`
		Server    struct {
			Requests uint64 `json:"requests"`
			Shed     uint64 `json:"shed"`
		} `json:"server"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// Sharded pools tick the commit counter once per touched shard.
	if status.Inventory.Counters.Commits < 1 || (testShards() == 1 && status.Inventory.Counters.Commits != 1) {
		t.Fatalf("statusz commits = %d, want 1", status.Inventory.Counters.Commits)
	}
	if status.Inventory.Committed != 1 {
		t.Fatalf("statusz committed = %d, want 1", status.Inventory.Committed)
	}
	if status.Server.Requests == 0 {
		t.Fatal("statusz server.requests is zero")
	}
}

// TestErrorPaths exercises the 4xx surface: bad bodies, unknown algorithms,
// wrong methods, unknown reservations, infeasible requests.
func TestErrorPaths(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})

	for _, tc := range []struct {
		name string
		url  string
		body any
		want int
	}{
		{"garbage body", "/v1/find", "not json", http.StatusBadRequest},
		{"missing request", "/v1/find", map[string]any{}, http.StatusBadRequest},
		{"unknown alg", "/v1/find", map[string]any{"request": requestJSON(t, 1, 10), "alg": "nope"}, http.StatusBadRequest},
		{"unknown csa criterion", "/v1/reserve", map[string]any{"request": requestJSON(t, 1, 10), "csa": "vibes"}, http.StatusBadRequest},
		{"negative ttl", "/v1/reserve", map[string]any{"request": requestJSON(t, 1, 10), "ttl_seconds": -1}, http.StatusBadRequest},
		// Out of a Duration's range: the float-to-int conversion used to be
		// undefined, and on amd64 the hold silently got the default TTL.
		{"ttl past a Duration", "/v1/reserve", map[string]any{"request": requestJSON(t, 1, 10), "ttl_seconds": 1e10}, http.StatusBadRequest},
		{"infeasible", "/v1/find", map[string]any{"request": requestJSON(t, 50, 10)}, http.StatusNotFound},
		{"unknown commit id", "/v1/commit", map[string]any{"id": "r99999999"}, http.StatusNotFound},
		{"unknown release id", "/v1/release", map[string]any{"id": "r99999999"}, http.StatusNotFound},
		{"empty id", "/v1/commit", map[string]any{}, http.StatusBadRequest},
	} {
		code, out := postJSON(t, ts.URL+tc.url, tc.body)
		if code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.want)
		}
		if tc.name == "ttl past a Duration" && !strings.Contains(string(out["error"]), "at most 9223372036") {
			t.Errorf("%s: error %s does not name the bound", tc.name, out["error"])
		}
	}

	// Raw-body rows: malformed framing the JSON marshaller cannot produce.
	// Trailing tokens after the decoded value are rejected rather than
	// silently dropped, and bodies over the 1 MiB cap map to 413, not a
	// generic 400.
	for _, tc := range []struct {
		name string
		url  string
		raw  string
		want int
	}{
		{"trailing tokens after search", "/v1/find", `{"alg":"amp"} {"second":1}`, http.StatusBadRequest},
		{"trailing garbage after id", "/v1/commit", `{"id":"r1"}garbage`, http.StatusBadRequest},
		{"oversized search body", "/v1/find", `{"pad":"` + strings.Repeat("x", 1<<20) + `"}`, http.StatusRequestEntityTooLarge},
		{"oversized id body", "/v1/release", `{"id":"` + strings.Repeat("x", 1<<20) + `"}`, http.StatusRequestEntityTooLarge},
	} {
		code, _ := postRaw(t, ts.URL+tc.url, tc.raw)
		if code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.want)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/find")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/find: status %d, want 405", resp.StatusCode)
	}
	resp2, err := http.Post(ts.URL+"/v1/slots", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/slots: status %d, want 405", resp2.StatusCode)
	}
}

// TestCSAReserve reserves via the CSA alternative search selecting by cost.
func TestCSAReserve(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})
	code, out := postJSON(t, ts.URL+"/v1/reserve", map[string]any{
		"request": requestJSON(t, 2, 50),
		"csa":     "cost",
	})
	if code != http.StatusOK {
		t.Fatalf("csa reserve: status %d: %v", code, out)
	}
	if fieldString(t, out, "id") == "" {
		t.Fatal("empty id")
	}
}

// TestCSAFindMatchesReserve is the regression test of the CSA parity bug:
// /v1/find and /v1/watch used to cut alternatives with MinSlotLength 0 while
// /v1/reserve used the pool's, so on a pool started with -min-slot-length
// a find could show a window built on a remainder the pool never publishes.
// Here the first alternative (start 0, nodes {0,1}, cost 240) leaves a
// 45-long remainder on node 0; with the pool's MinSlotLength of 50 it is
// dropped and the first alternative stays the cheapest, with 0 it made a
// cheaper second one (start 40, nodes {0,2}, cost 120). All three endpoints
// must answer the same window, at 1 and 4 shards.
func TestCSAFindMatchesReserve(t *testing.T) {
	for _, shards := range []int{1, 4} {
		pool := bootPool(t, "", testkit.SlotList(
			testkit.Slot(testkit.Node(0, 1, 1), 0, 85),
			testkit.Slot(testkit.Node(1, 1, 5), 0, 300),
			testkit.Slot(testkit.Node(2, 1, 2), 40, 300),
			testkit.Slot(testkit.Node(3, 1, 9), 0, 1000),
		), inventory.Options{MinSlotLength: 50, Shards: shards}, wal.Options{}).Pool
		ts := httptest.NewServer(New(pool, Options{}))
		defer ts.Close()

		req := requestJSON(t, 2, 40)
		code, found := postJSON(t, ts.URL+"/v1/find", map[string]any{"request": req, "csa": "cost"})
		if code != http.StatusOK {
			t.Fatalf("shards=%d: find: status %d: %v", shards, code, found)
		}
		code, _, watched := getJSON(t, watchURL(t, ts.URL, req, url.Values{"csa": {"cost"}}))
		if code != http.StatusOK {
			t.Fatalf("shards=%d: watch: status %d: %v", shards, code, watched)
		}
		code, held := postJSON(t, ts.URL+"/v1/reserve", map[string]any{"request": req, "csa": "cost"})
		if code != http.StatusOK {
			t.Fatalf("shards=%d: reserve: status %d: %v", shards, code, held)
		}

		var win struct {
			Start float64 `json:"start"`
			Cost  float64 `json:"cost"`
		}
		if err := json.Unmarshal(held["window"], &win); err != nil {
			t.Fatal(err)
		}
		if win.Start != 0 || win.Cost != 240 {
			t.Errorf("shards=%d: reserve holds start %v cost %v, want start 0 cost 240", shards, win.Start, win.Cost)
		}
		for name, got := range map[string]json.RawMessage{"find": found["window"], "watch": watched["window"]} {
			if !bytes.Equal(got, held["window"]) {
				t.Errorf("shards=%d: /v1/%s shows a window /v1/reserve does not hold\n%s: %s\nreserve: %s",
					shards, name, name, got, held["window"])
			}
		}
		if !bytes.Equal(found["version"], watched["version"]) {
			t.Errorf("shards=%d: find searched version %s, watch %s", shards, found["version"], watched["version"])
		}
	}
}

// placement mirrors the persist window placement for overlap checking.
type placement struct {
	Node  int     `json:"node"`
	Start float64 `json:"start"`
	Exec  float64 `json:"exec"`
}

type wireWindow struct {
	Placements []placement `json:"placements"`
}

// TestConcurrentNoDoubleBooking is the server-level race acceptance test:
// many concurrent clients reserve and commit against one inventory; the
// committed windows must be pairwise disjoint per node (half-open
// intervals), and every successful reserve must settle as exactly one
// commit or release. Run under -race this also exercises the lock-free
// snapshot path.
func TestConcurrentNoDoubleBooking(t *testing.T) {
	const (
		clients    = 10
		reqPerC    = 8
		tasksPerOp = 2
	)
	_, ts, inv := newTestServer(t, Options{MaxInflight: clients, QueueDepth: clients * reqPerC})

	type committed struct {
		id  string
		win wireWindow
	}
	var (
		mu       sync.Mutex
		commits  []committed
		reserves int
		settles  int
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < reqPerC; i++ {
				code, out := postJSON(t, ts.URL+"/v1/reserve", map[string]any{
					"request":     requestJSON(t, tasksPerOp, 30),
					"ttl_seconds": 60,
				})
				if code == http.StatusNotFound || code == http.StatusConflict {
					continue // pool drained or lost a race: both fine
				}
				if code != http.StatusOK {
					t.Errorf("client %d: reserve status %d: %v", c, code, out)
					return
				}
				mu.Lock()
				reserves++
				mu.Unlock()
				id := fieldString(t, out, "id")
				if (c+i)%4 == 3 { // every 4th settles by release
					if code, _ := postJSON(t, ts.URL+"/v1/release", map[string]any{"id": id}); code == http.StatusOK {
						mu.Lock()
						settles++
						mu.Unlock()
					}
					continue
				}
				code, out = postJSON(t, ts.URL+"/v1/commit", map[string]any{"id": id})
				if code != http.StatusOK {
					t.Errorf("client %d: commit %s status %d: %v", c, id, code, out)
					return
				}
				var win wireWindow
				if err := json.Unmarshal(out["window"], &win); err != nil {
					t.Errorf("client %d: window: %v", c, err)
					return
				}
				mu.Lock()
				settles++
				commits = append(commits, committed{id, win})
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	if reserves == 0 {
		t.Fatal("no reserve ever succeeded")
	}
	if settles != reserves {
		t.Fatalf("%d reserves but %d settles — a hold leaked", reserves, settles)
	}

	// Pairwise disjointness of committed spans per node: [s1,e1) and
	// [s2,e2) conflict iff s1 < e2 && s2 < e1. Touching is legal.
	for i := 0; i < len(commits); i++ {
		for j := i + 1; j < len(commits); j++ {
			for _, p := range commits[i].win.Placements {
				for _, q := range commits[j].win.Placements {
					if p.Node == q.Node && p.Start < q.Start+q.Exec && q.Start < p.Start+p.Exec {
						t.Fatalf("double booking on node %d: %s has [%g,%g), %s has [%g,%g)",
							p.Node, commits[i].id, p.Start, p.Start+p.Exec,
							commits[j].id, q.Start, q.Start+q.Exec)
					}
				}
			}
		}
	}

	// Lifecycle accounting must balance exactly: the identity holds even
	// over shards, because a cross-shard operation settles every sub-hold
	// it opened. The exact commit tally is only meaningful unsharded —
	// a cross-shard commit counts once per touched shard.
	ctr := inv.Status().Counters
	if ctr.Reserves != ctr.Commits+ctr.Releases+ctr.Expiries+ctr.Cancelled {
		t.Fatalf("unbalanced lifecycle counters: %+v", ctr)
	}
	if testShards() == 1 && int(ctr.Commits) != len(commits) {
		t.Fatalf("inventory reports %d commits, clients observed %d", ctr.Commits, len(commits))
	}
	if got := len(inv.Committed()); got != len(commits) {
		t.Fatalf("inventory holds %d committed windows, clients observed %d", got, len(commits))
	}
}

// TestAdmissionControl floods a server whose handlers are pinned by
// testHook: beyond MaxInflight + QueueDepth, requests must be shed
// immediately with 429 + Retry-After, and the server's goroutine footprint
// must stay bounded by the admission gate rather than growing with offered
// load.
func TestAdmissionControl(t *testing.T) {
	const (
		maxInflight = 2
		queueDepth  = 2
		flood       = 40
	)
	release := make(chan struct{})
	var unpinOnce sync.Once
	unpin := func() { unpinOnce.Do(func() { close(release) }) }
	srv, ts, _ := newTestServer(t, Options{
		MaxInflight:    maxInflight,
		QueueDepth:     queueDepth,
		RequestTimeout: 10 * time.Second,
	})
	// Unpin on any exit path, or ts.Close (registered above, runs after
	// this — cleanups are LIFO) would hang on pinned handlers.
	t.Cleanup(unpin)
	srv.testHook = func() { <-release }

	baseline := runtime.NumGoroutine()

	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	codes := make(chan int, flood)
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Get(ts.URL + "/v1/statusz")
			if err != nil {
				codes <- -1
				return
			}
			if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After header")
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}

	// Wait until the gate is saturated and the shed responses have come
	// back, then check the inflight handler count never exceeded the cap.
	deadline := time.After(5 * time.Second)
	shed, consumed := 0, 0
	for shed < flood-maxInflight-queueDepth {
		select {
		case code := <-codes:
			consumed++
			if code == http.StatusTooManyRequests {
				shed++
			} else if code != -1 {
				t.Fatalf("unexpected early status %d while gate is pinned", code)
			}
		case <-deadline:
			t.Fatalf("only %d sheds after 5s, want %d", shed, flood-maxInflight-queueDepth)
		}
	}

	// Handler goroutines are bounded by inflight+queued, not by flood size:
	// once the 36 shed requests drain, only the 4 pinned connections (plus
	// their net/http reader goroutines and waiting clients) remain. Without
	// shedding, all 40 connections would be held (~3 goroutines each). The
	// drain is asynchronous, so poll.
	waitFor(t, func() bool {
		return runtime.NumGoroutine() <= baseline+6*(maxInflight+queueDepth)
	})

	unpin()
	wg.Wait()

	ok := 0
	for i := 0; i < flood-consumed; i++ {
		if code := <-codes; code == http.StatusOK {
			ok++
		}
	}
	if want := maxInflight + queueDepth; ok != want {
		t.Errorf("%d requests eventually succeeded, want %d (inflight+queue)", ok, want)
	}
	if got := srv.shed.Load(); int(got) != shed {
		t.Errorf("server counted %d sheds, clients saw %d", got, shed)
	}
}

// TestRequestSpans verifies the per-request observability spans.
func TestRequestSpans(t *testing.T) {
	trace := obs.NewTrace(64)
	list := testkit.SlotList(testkit.Slot(testkit.Node(0, 5, 1), 0, 100))
	inv, err := inventory.New(list, inventory.Options{MinSlotLength: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(inv, Options{Collector: trace}))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/statusz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	spans := trace.Spans()
	found := false
	for _, sp := range spans {
		if sp.Cat == "http" && sp.Name == "http /v1/statusz" && sp.Arg == "200" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no http span for /v1/statusz in %d spans: %+v", len(spans), spans)
	}
}

// TestQueueWaitTimesOut: a request stuck in the admission queue past the
// request deadline is answered 503 and counted as deadline_expired — it was
// admitted to the queue, so it must not masquerade as load shedding (429 /
// shed), which would tell the client to back off when the server simply was
// too slow for the request's deadline. A queue-overflow request in the same
// scenario still sheds with 429.
//
// No wall-clock deadline takes part: RequestTimeout is far away, and a
// request's deadline context derives from the request's own context, so the
// test ends a request's time by cancelling that context at the moment the
// scenario calls for — after the overflow request has been shed, never
// before it arrives.
func TestQueueWaitTimesOut(t *testing.T) {
	release := make(chan struct{})
	var unpinOnce sync.Once
	unpin := func() { unpinOnce.Do(func() { close(release) }) }
	srv, ts, _ := newTestServer(t, Options{
		MaxInflight:    1,
		QueueDepth:     1,
		RequestTimeout: time.Hour,
	})
	t.Cleanup(unpin)
	srv.testHook = func() { <-release }

	// serve runs one request through the server under a context the test
	// cancels, and delivers the status code.
	serve := func() (expire context.CancelFunc, code <-chan int) {
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		done := make(chan int, 1)
		go func() {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/statusz", nil).WithContext(ctx))
			done <- rec.Code
		}()
		return cancel, done
	}

	// First request occupies the single inflight slot.
	expirePinned, pinned := serve()
	waitFor(t, func() bool { return len(srv.inflight) == 1 })

	// Second request takes the single queue slot and stays there.
	expireQueued, queued := serve()
	waitFor(t, func() bool { return srv.queued.Load() == 1 })

	// Third request finds the queue full and is shed immediately: 429.
	_, overflow := serve()
	if code := <-overflow; code != http.StatusTooManyRequests {
		t.Fatalf("queue-overflow request: status %d, want 429", code)
	}

	// Now the queued request's time runs out where it waits: 503, not 429.
	expireQueued()
	if code := <-queued; code != http.StatusServiceUnavailable {
		t.Fatalf("queued-past-deadline request: status %d, want 503", code)
	}
	if got := srv.deadlineExpired.Load(); got != 1 {
		t.Errorf("deadlineExpired = %d, want 1", got)
	}
	if got := srv.shed.Load(); got != 1 {
		t.Errorf("shed = %d, want 1 (the queue-overflow request only)", got)
	}

	// The pinned request was admitted, but its time runs out before the
	// handler gets to run: the post-admission expiry branch, 503 as well.
	expirePinned()
	unpin()
	if code := <-pinned; code != http.StatusServiceUnavailable {
		t.Fatalf("admitted-past-deadline request: status %d, want 503", code)
	}

	// The counter is surfaced in /v1/statusz once the gate drains.
	waitFor(t, func() bool { return len(srv.inflight) == 0 })
	code, out := postRawGet(t, ts.URL+"/v1/statusz")
	if code != http.StatusOK {
		t.Fatalf("statusz after drain: status %d", code)
	}
	var status struct {
		DeadlineExpired uint64 `json:"deadline_expired"`
		Shed            uint64 `json:"shed"`
	}
	if err := json.Unmarshal(out["server"], &status); err != nil {
		t.Fatalf("statusz server section: %v (raw %s)", err, out["server"])
	}
	// 2: the queued request that expired waiting, plus the pinned one.
	if status.DeadlineExpired != 2 {
		t.Errorf("statusz deadline_expired = %d, want 2", status.DeadlineExpired)
	}
	if status.Shed != 1 {
		t.Errorf("statusz shed = %d, want 1", status.Shed)
	}
}

func postRawGet(t *testing.T, url string) (int, map[string]json.RawMessage) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, out
}

// TestStatuszRuntimeFields table-tests the go_memstats-style runtime
// section of /v1/statusz: every documented field must be present, and the
// live-heap gauges must be plausible (non-zero) on a running process.
func TestStatuszRuntimeFields(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{})
	code, out := postRawGet(t, ts.URL+"/v1/statusz")
	if code != http.StatusOK {
		t.Fatalf("statusz: status %d", code)
	}
	var rt map[string]json.RawMessage
	if err := json.Unmarshal(out["runtime"], &rt); err != nil {
		t.Fatalf("statusz runtime section: %v (raw %s)", err, out["runtime"])
	}
	cases := []struct {
		field       string
		wantNonZero bool
	}{
		// Heap gauges cannot be zero on a live Go process.
		{"heap_alloc_bytes", true},
		{"heap_inuse_bytes", true},
		// GC may genuinely not have run yet in a short-lived test process.
		{"gc_cycles", false},
		{"gc_pause_total_ns", false},
	}
	for _, tc := range cases {
		raw, ok := rt[tc.field]
		if !ok {
			t.Errorf("statusz runtime section is missing %q", tc.field)
			continue
		}
		var v uint64
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Errorf("runtime.%s: not an unsigned integer: %v (raw %s)", tc.field, err, raw)
			continue
		}
		if tc.wantNonZero && v == 0 {
			t.Errorf("runtime.%s = 0, want non-zero on a live process", tc.field)
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 2s")
		}
		time.Sleep(time.Millisecond)
	}
}

// durabilityStatus is the statusz "durability" section.
type durabilityStatus struct {
	JournalSeq      uint64  `json:"journal_seq"`
	DurableSeq      uint64  `json:"durable_seq"`
	LastSnapshotSeq uint64  `json:"last_snapshot_seq"`
	SnapshotAge     float64 `json:"snapshot_age_seconds"`
	Fsyncs          uint64  `json:"fsyncs"`
	Error           string  `json:"error"`
	Shards          []struct {
		Shard int    `json:"shard"`
		Error string `json:"error"`
	} `json:"shards"`
}

// getDurability reads the statusz "durability" section (nil when absent).
func getDurability(t *testing.T, base string) *durabilityStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status struct {
		Durability *durabilityStatus `json:"durability"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	return status.Durability
}

// TestStatuszDurabilitySections checks the durability view a WAL-backed
// server adds to /v1/statusz.
func TestStatuszDurabilitySections(t *testing.T) {
	stack := bootPool(t, t.TempDir(), testkit.SlotList(
		testkit.Slot(testkit.Node(0, 5, 1), 0, 200),
		testkit.Slot(testkit.Node(1, 4, 1), 0, 200),
	), inventory.Options{MinSlotLength: 1, DefaultTTL: time.Hour}, wal.Options{})
	inv, store := stack.Shards[0], stack.Stores[0]
	ts := httptest.NewServer(New(inv, Options{WALs: stack.Stores}))
	t.Cleanup(ts.Close)
	if code, out := postJSON(t, ts.URL+"/v1/reserve", map[string]any{"request": requestJSON(t, 1, 30)}); code != http.StatusOK {
		t.Fatalf("reserve: status %d: %v", code, out)
	}
	if err := store.Snapshot(inv.ExportState()); err != nil {
		t.Fatal(err)
	}

	dur := getDurability(t, ts.URL)
	if dur == nil {
		t.Fatal("statusz missing durability section")
	}
	if dur.JournalSeq != inv.ExportState().Seq || dur.DurableSeq != inv.ExportState().Seq {
		t.Errorf("durability seqs %d/%d, want both %d (every ack is post-fsync)", dur.JournalSeq, dur.DurableSeq, inv.ExportState().Seq)
	}
	if dur.LastSnapshotSeq == 0 || dur.SnapshotAge < 0 {
		t.Errorf("snapshot not reflected: seq %d, age %f", dur.LastSnapshotSeq, dur.SnapshotAge)
	}
	if dur.Fsyncs == 0 {
		t.Error("no fsyncs counted on a durable server")
	}
	if dur.Error != "" {
		t.Errorf("healthy store reports error %q", dur.Error)
	}
}

// TestLatchedStoreFailStops provokes a WAL I/O failure under a live server
// — its data directory disappears and the next segment cannot be created
// — and pins what clients and operators see: mutations answer 503 with no
// Retry-After and no path, reads keep serving, statusz names the failed
// store and the failed-stores gauge counts it.
func TestLatchedStoreFailStops(t *testing.T) {
	list := testkit.SlotList(
		testkit.Slot(testkit.Node(0, 5, 1), 0, 200),
		testkit.Slot(testkit.Node(1, 4, 1), 0, 200),
		testkit.Slot(testkit.Node(2, 3, 1), 0, 200),
	)
	// SegmentBytes 1 rotates at every batch, so the first append after the
	// directory is gone must create a file there and fail.
	walOpts := wal.Options{SegmentBytes: 1}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			reg := telemetry.NewRegistry()
			stack := bootPool(t, dir, list, inventory.Options{MinSlotLength: 1, DefaultTTL: time.Hour, Shards: shards}, walOpts)
			failed := 0 // the store whose directory goes
			for i, part := range inventory.PartitionByShard(list, shards) {
				if len(part) > 0 {
					failed = i
					break
				}
			}
			ts := httptest.NewServer(New(stack.Pool, Options{Metrics: reg, WALs: stack.Stores}))
			t.Cleanup(ts.Close)

			// Three tasks place on all three nodes, so a hold touches the
			// failed store at any shard count.
			body := `{"request":` + string(requestJSON(t, 3, 30)) + `}`
			var held []string // one to release and one to commit after the latch
			for i := 0; i < 2; i++ {
				code, out := postRaw(t, ts.URL+"/v1/reserve", body)
				var id string
				if code != http.StatusOK || json.Unmarshal(out["id"], &id) != nil {
					t.Fatalf("reserve %d before the latch: status %d: %v", i, code, out)
				}
				held = append(held, id)
			}

			gone := dir
			if shards > 1 {
				gone = filepath.Join(dir, wal.ShardDirName(failed))
			}
			if err := os.RemoveAll(gone); err != nil {
				t.Fatal(err)
			}
			failStopped := func(what, path, body string) {
				t.Helper()
				resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if want := errorReply("journal not durable: this server is fail-stopped"); resp.StatusCode != http.StatusServiceUnavailable || string(raw) != want {
					t.Fatalf("%s after the latch: %d %q, want 503 %q", what, resp.StatusCode, raw, want)
				}
				if ra := resp.Header.Get("Retry-After"); ra != "" {
					t.Errorf("%s: Retry-After %q on a fail-stopped server", what, ra)
				}
				if strings.Contains(string(raw), dir) {
					t.Errorf("%s: reply leaks the data directory: %s", what, raw)
				}
			}
			// The commit waits for an fsync, so it is the write that finds
			// the directory gone and latches the store.
			failStopped("commit", "/v1/commit", `{"id":"`+held[1]+`"}`)
			// A reserve's and a release's ack do not wait for an fsync, but a
			// latched store fails them like any other mutation.
			for i := 0; i < 2; i++ {
				failStopped(fmt.Sprintf("reserve %d", i), "/v1/reserve", body)
			}
			failStopped("release", "/v1/release", `{"id":"`+held[0]+`"}`)
			if code, out := postJSON(t, ts.URL+"/v1/find", map[string]any{"request": requestJSON(t, 1, 30)}); code != http.StatusOK {
				t.Fatalf("find after the latch: status %d: %v", code, out)
			}

			dur := getDurability(t, ts.URL)
			if dur == nil || dur.Error == "" {
				t.Fatalf("statusz durability does not report the latch: %+v", dur)
			}
			if shards > 1 {
				if len(dur.Shards) != shards {
					t.Fatalf("durability lists %d shards, want %d", len(dur.Shards), shards)
				}
				for i, sh := range dur.Shards {
					if (sh.Error != "") != (i == failed) {
						t.Errorf("shard %d error %q; only shard %d failed", i, sh.Error, failed)
					}
				}
			}
			if got, _ := scrapeMetricsz(t, ts.URL); got["slotserve_wal_failed_stores"] != 1 {
				t.Errorf("slotserve_wal_failed_stores = %g, want 1", got["slotserve_wal_failed_stores"])
			}
		})
	}
}
