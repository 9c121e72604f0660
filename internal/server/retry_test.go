package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"testing"
	"time"
)

// TestRetryAfterSecondsTable pins the derived Retry-After values: the
// estimate is queue drain time at the observed service rate, rounded up to
// whole seconds and clamped to [1, 30].
func TestRetryAfterSecondsTable(t *testing.T) {
	cases := []struct {
		name        string
		queued      int64
		maxInflight int
		avgService  time.Duration
		want        int
	}{
		{"cold start: no observations yet", 10, 32, 0, 1},
		{"rate=0 after post-drain idle reset", 3, 16, 0, 1},
		{"near-zero service time keeps the floor", 5, 8, time.Nanosecond, 1},
		{"queue empty after burst", 0, 4, 2 * time.Second, 1},
		{"degenerate maxInflight", 10, 0, time.Second, 1},
		{"negative queue snapshot clamps to empty", -3, 4, time.Second, 1},
		{"empty queue, fast service", 0, 32, time.Millisecond, 1},
		{"fast service keeps the floor", 64, 32, 10 * time.Millisecond, 1},
		{"exact whole seconds", 7, 4, 2 * time.Second, 4},          // (7+1)*2s/4 = 4s
		{"fractional rounds up", 4, 4, 1100 * time.Millisecond, 2}, // 5*1.1s/4 = 1.375s
		{"one executor, slow handlers", 9, 1, time.Second, 10},     // 10*1s/1
		{"deep queue clamps to ceiling", 1000, 2, time.Second, 30},
		{"pathologically slow service clamps", 0, 1, 10 * time.Minute, 30},
	}
	for _, tc := range cases {
		if got := retryAfterSeconds(tc.queued, tc.maxInflight, tc.avgService); got != tc.want {
			t.Errorf("%s: retryAfterSeconds(%d, %d, %v) = %d, want %d",
				tc.name, tc.queued, tc.maxInflight, tc.avgService, got, tc.want)
		}
	}
}

// TestShedRetryAfterParses: under real overload the 429 Retry-After header
// must parse as an integer in the documented [1, 30] range.
func TestShedRetryAfterParses(t *testing.T) {
	srv, ts, _ := newTestServer(t, Options{MaxInflight: 1, QueueDepth: 1, RequestTimeout: 2 * time.Second})
	release := make(chan struct{})
	srv.testHook = func() { <-release }
	defer close(release)

	sawShed := make(chan string, 8)
	for i := 0; i < 8; i++ {
		go func() {
			resp, err := http.Get(ts.URL + "/v1/statusz")
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusTooManyRequests {
				sawShed <- resp.Header.Get("Retry-After")
			}
		}()
	}
	select {
	case h := <-sawShed:
		n, err := strconv.Atoi(h)
		if err != nil {
			t.Fatalf("Retry-After %q is not an integer: %v", h, err)
		}
		if n < minRetryAfterSeconds || n > maxRetryAfterSeconds {
			t.Fatalf("Retry-After %d outside [%d, %d]", n, minRetryAfterSeconds, maxRetryAfterSeconds)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no request was shed: overload never materialized")
	}
}

// TestStatuszSnapshotVersion: statusz carries a top-level snapshot_version
// taken from the same Status() read as the inventory section, so counter
// deltas between two statusz reads can be pinned to an inventory-version
// range. It must be present, positive, equal to the nested inventory
// version, and advance across a mutation.
func TestStatuszSnapshotVersion(t *testing.T) {
	_, ts, inv := newTestServer(t, Options{})

	read := func() (uint64, uint64) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/statusz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var status struct {
			SnapshotVersion uint64 `json:"snapshot_version"`
			Inventory       struct {
				Version uint64 `json:"version"`
			} `json:"inventory"`
			Server struct {
				Completed      uint64 `json:"completed"`
				AvgServiceNS   int64  `json:"avg_service_ns"`
				RetryAfterHint int    `json:"retry_after_hint"`
			} `json:"server"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
			t.Fatal(err)
		}
		if status.SnapshotVersion == 0 {
			t.Fatal("statusz snapshot_version is zero or missing")
		}
		if status.SnapshotVersion != status.Inventory.Version {
			t.Fatalf("snapshot_version %d != inventory.version %d",
				status.SnapshotVersion, status.Inventory.Version)
		}
		if status.Server.RetryAfterHint < minRetryAfterSeconds || status.Server.RetryAfterHint > maxRetryAfterSeconds {
			t.Fatalf("retry_after_hint %d outside [%d, %d]",
				status.Server.RetryAfterHint, minRetryAfterSeconds, maxRetryAfterSeconds)
		}
		return status.SnapshotVersion, status.Server.Completed
	}

	v1, _ := read()
	code, _ := postJSON(t, ts.URL+"/v1/reserve", map[string]any{"request": requestJSON(t, 1, 20)})
	if code != http.StatusOK {
		t.Fatalf("reserve: %d", code)
	}
	v2, completed := read()
	if v2 <= v1 {
		t.Fatalf("snapshot_version did not advance across a reserve: %d -> %d", v1, v2)
	}
	if completed == 0 {
		t.Fatal("server.completed counter never advanced")
	}
	if got := inv.Status().Version; got != v2 {
		t.Fatalf("statusz snapshot_version %d != live inventory version %d", v2, got)
	}
}
