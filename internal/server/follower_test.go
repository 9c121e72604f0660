package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"slotsel/internal/core"
	"slotsel/internal/inventory"
	"slotsel/internal/job"
	"slotsel/internal/persist"
	"slotsel/internal/testkit"
	"slotsel/internal/wal"
)

// newLeaderFollowerPair boots a durable leader and a follower over one WAL
// directory and returns their HTTP endpoints plus the moving parts.
func newLeaderFollowerPair(t *testing.T) (leader, follower *httptest.Server, inv *inventory.Inventory, f *wal.Follower, store *wal.Store) {
	t.Helper()
	dir := t.TempDir()
	invOpts := inventory.Options{MinSlotLength: 1, DefaultTTL: time.Hour}
	_, store, _, err := wal.Open(dir, invOpts, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	list := testkit.SlotList(
		testkit.Slot(testkit.Node(0, 5, 1), 0, 200),
		testkit.Slot(testkit.Node(1, 4, 1), 0, 200),
		testkit.Slot(testkit.Node(2, 3, 1), 0, 200),
	)
	seedOpts := invOpts
	seedOpts.Sink = store
	inv, err = inventory.New(list, seedOpts)
	if err != nil {
		t.Fatal(err)
	}
	leader = httptest.NewServer(New(inv, Options{WAL: store}))
	t.Cleanup(leader.Close)

	f, err = wal.NewFollower(dir, invOpts)
	if err != nil {
		t.Fatal(err)
	}
	follower = httptest.NewServer(New(f.Inventory(), Options{Follower: f}))
	t.Cleanup(follower.Close)
	return leader, follower, inv, f, store
}

// catchUp polls the follower until it has applied every event the leader
// has journaled.
func catchUp(t *testing.T, f *wal.Follower, inv *inventory.Inventory) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for f.LastSeq() < inv.Seq() {
		if _, err := f.Poll(); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at seq %d, leader at %d", f.LastSeq(), inv.Seq())
		}
	}
}

// getBody performs a GET and returns status, headers and raw body.
func getBody(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, raw
}

// postBoth posts the same body to the same path on both servers and
// returns the two raw responses.
func postBoth(t *testing.T, leader, follower *httptest.Server, path, body string) (ls, fs int, lb, fb []byte) {
	t.Helper()
	post := func(ts *httptest.Server) (int, []byte) {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, raw
	}
	ls, lb = post(leader)
	fs, fb = post(follower)
	return ls, fs, lb, fb
}

// TestFollowerDifferential is the replication acceptance check: after the
// follower catches up to the leader's journal position, both report the
// same snapshot_version, and /v1/find and /v1/slots answer byte-identically
// on both — the replica is indistinguishable from the leader for reads.
func TestFollowerDifferential(t *testing.T) {
	leader, follower, inv, f, _ := newLeaderFollowerPair(t)

	// Drive real traffic through the leader's HTTP API: holds, commits,
	// releases — each one a journaled, replicated mutation.
	var held []string
	for i := 0; i < 6; i++ {
		code, out := postJSON(t, leader.URL+"/v1/reserve", map[string]any{
			"request": requestJSON(t, 1+i%3, 20+5*float64(i)),
		})
		if code != http.StatusOK {
			t.Fatalf("reserve %d: status %d: %v", i, code, out)
		}
		held = append(held, fieldString(t, out, "id"))
	}
	for i, id := range held {
		path, want := "/v1/commit", http.StatusOK
		if i%3 == 2 {
			path = "/v1/release"
		}
		if code, out := postJSON(t, leader.URL+path, map[string]any{"id": id}); code != want {
			t.Fatalf("%s %s: status %d: %v", path, id, code, out)
		}
	}

	catchUp(t, f, inv)
	if got, want := f.Inventory().Snapshot().Version, inv.Snapshot().Version; got != want {
		t.Fatalf("snapshot versions differ after catch-up: follower %d, leader %d", got, want)
	}

	// Same version ⇒ every read answers identically, byte for byte.
	for i, tasks := range []int{1, 2, 3} {
		body := fmt.Sprintf(`{"request":{"tasks":%d,"volume":%d,"max_cost":10000},"alg":"amp"}`, tasks, 30+10*i)
		ls, fs, lb, fb := postBoth(t, leader, follower, "/v1/find", body)
		if ls != fs {
			t.Fatalf("find %d: leader status %d, follower status %d", i, ls, fs)
		}
		if string(lb) != string(fb) {
			t.Errorf("find %d: responses differ at the same snapshot_version:\nleader   %s\nfollower %s", i, lb, fb)
		}
	}
	lc, lh, lb := getBody(t, leader.URL+"/v1/slots")
	fc, fh, fb := getBody(t, follower.URL+"/v1/slots")
	if lc != http.StatusOK || fc != http.StatusOK {
		t.Fatalf("slots: leader %d, follower %d", lc, fc)
	}
	if lv, fv := lh.Get("X-Inventory-Version"), fh.Get("X-Inventory-Version"); lv != fv {
		t.Fatalf("slots: version headers differ: leader %s, follower %s", lv, fv)
	}
	if string(lb) != string(fb) {
		t.Errorf("slots: bodies differ:\nleader   %s\nfollower %s", lb, fb)
	}
}

// TestFollowerRejectsWrites pins follower mode's contract: mutating
// endpoints answer 403 without touching the replica, reads keep working.
func TestFollowerRejectsWrites(t *testing.T) {
	_, follower, inv, f, _ := newLeaderFollowerPair(t)
	catchUp(t, f, inv)
	before := f.Inventory().Snapshot().Version
	for _, path := range []string{"/v1/reserve", "/v1/commit", "/v1/release"} {
		code, out := postJSON(t, follower.URL+path, map[string]any{"id": "r00000001"})
		if code != http.StatusForbidden {
			t.Errorf("%s on follower: status %d, want 403 (%v)", path, code, out)
		}
	}
	if got := f.Inventory().Snapshot().Version; got != before {
		t.Fatalf("rejected writes moved the replica: version %d -> %d", before, got)
	}
	if code, _, _ := getBody(t, follower.URL+"/v1/slots"); code != http.StatusOK {
		t.Fatalf("follower /v1/slots: status %d", code)
	}
}

// TestStatuszDurabilitySections checks the leader's durability view and
// the follower's replication view, both of which ride on /v1/statusz.
func TestStatuszDurabilitySections(t *testing.T) {
	leader, follower, inv, f, store := newLeaderFollowerPair(t)
	if code, out := postJSON(t, leader.URL+"/v1/reserve", map[string]any{
		"request": requestJSON(t, 1, 30),
	}); code != http.StatusOK {
		t.Fatalf("reserve: status %d: %v", code, out)
	}
	if err := store.Snapshot(inv.ExportState()); err != nil {
		t.Fatal(err)
	}
	catchUp(t, f, inv)

	code, _, raw := getBody(t, leader.URL+"/v1/statusz")
	if code != http.StatusOK {
		t.Fatalf("leader statusz: %d", code)
	}
	var ls struct {
		ReadOnly   bool `json:"read_only"`
		Durability *struct {
			JournalSeq      uint64  `json:"journal_seq"`
			DurableSeq      uint64  `json:"durable_seq"`
			LastSnapshotSeq uint64  `json:"last_snapshot_seq"`
			SnapshotAge     float64 `json:"snapshot_age_seconds"`
			Fsyncs          uint64  `json:"fsyncs"`
		} `json:"durability"`
	}
	if err := json.Unmarshal(raw, &ls); err != nil {
		t.Fatal(err)
	}
	if ls.ReadOnly {
		t.Error("leader reports read_only")
	}
	if ls.Durability == nil {
		t.Fatal("leader statusz missing durability section")
	}
	if ls.Durability.JournalSeq != inv.Seq() || ls.Durability.DurableSeq != inv.Seq() {
		t.Errorf("durability seqs %d/%d, want both %d (every ack is post-fsync)",
			ls.Durability.JournalSeq, ls.Durability.DurableSeq, inv.Seq())
	}
	if ls.Durability.LastSnapshotSeq == 0 || ls.Durability.SnapshotAge < 0 {
		t.Errorf("snapshot not reflected: seq %d, age %f", ls.Durability.LastSnapshotSeq, ls.Durability.SnapshotAge)
	}
	if ls.Durability.Fsyncs == 0 {
		t.Error("no fsyncs counted on a durable leader")
	}

	code, _, raw = getBody(t, follower.URL+"/v1/statusz")
	if code != http.StatusOK {
		t.Fatalf("follower statusz: %d", code)
	}
	var fs struct {
		ReadOnly    bool `json:"read_only"`
		Replication *struct {
			LastAppliedSeq uint64 `json:"last_applied_seq"`
			Resyncs        uint64 `json:"resyncs"`
		} `json:"replication"`
	}
	if err := json.Unmarshal(raw, &fs); err != nil {
		t.Fatal(err)
	}
	if !fs.ReadOnly {
		t.Error("follower does not report read_only")
	}
	if fs.Replication == nil {
		t.Fatal("follower statusz missing replication section")
	}
	if fs.Replication.LastAppliedSeq != inv.Seq() {
		t.Errorf("replication.last_applied_seq %d, want %d", fs.Replication.LastAppliedSeq, inv.Seq())
	}
}

// slotListBytes renders an inventory's free list in the persist wire
// encoding — the exact /v1/slots body — for byte comparison.
func slotListBytes(t *testing.T, inv *inventory.Inventory) string {
	t.Helper()
	var buf bytes.Buffer
	if err := persist.WriteSlotList(&buf, inv.Snapshot().Slots); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestFollowerSweepInertAcrossExpire pins the frozen-clock contract: a
// hold whose TTL lapses in wall time must NOT expire on the follower —
// not via the read-path sweep, not via an explicit Sweep — until the
// leader's own OpExpire arrives, after which /v1/slots is byte-identical
// on both sides again.
func TestFollowerSweepInertAcrossExpire(t *testing.T) {
	leader, follower, inv, f, _ := newLeaderFollowerPair(t)
	code, out := postJSON(t, leader.URL+"/v1/reserve", map[string]any{
		"request": requestJSON(t, 1, 30), "ttl_seconds": 0.05,
	})
	if code != http.StatusOK {
		t.Fatalf("reserve: status %d: %v", code, out)
	}
	catchUp(t, f, inv)
	heldVersion := f.Inventory().Snapshot().Version
	_, _, heldBody := getBody(t, follower.URL+"/v1/slots")

	time.Sleep(120 * time.Millisecond) // the hold is now wall-clock lapsed

	// Follower reads trigger the server's sweep path; an explicit Sweep is
	// the harshest case. Both must leave the replica untouched.
	_, _, again := getBody(t, follower.URL+"/v1/slots")
	f.Inventory().Sweep()
	if got := f.Inventory().Snapshot().Version; got != heldVersion {
		t.Fatalf("follower expired locally: version %d -> %d", heldVersion, got)
	}
	if string(again) != string(heldBody) {
		t.Fatalf("follower /v1/slots changed without a leader event:\nbefore %s\nafter  %s", heldBody, again)
	}

	// The leader's sweep journals the expiry; the follower applies it.
	inv.Sweep()
	if inv.Status().Counters.Expiries == 0 {
		t.Fatal("leader never expired the lapsed hold")
	}
	catchUp(t, f, inv)
	lc, lh, lb := getBody(t, leader.URL+"/v1/slots")
	fc, fh, fb := getBody(t, follower.URL+"/v1/slots")
	if lc != http.StatusOK || fc != http.StatusOK {
		t.Fatalf("slots: leader %d, follower %d", lc, fc)
	}
	if lv, fv := lh.Get("X-Inventory-Version"), fh.Get("X-Inventory-Version"); lv != fv {
		t.Fatalf("version headers differ across OpExpire: leader %s, follower %s", lv, fv)
	}
	if string(lb) != string(fb) {
		t.Errorf("slots bodies differ across OpExpire:\nleader   %s\nfollower %s", lb, fb)
	}
}

// TestFollowerResyncFromSnapshotKeepsLapsedHold: a follower that
// bootstraps (resyncs) from a snapshot containing a hold whose TTL has
// already lapsed in wall time must keep it live under the frozen clock —
// expiry belongs to the leader's journal, even through resync.
func TestFollowerResyncFromSnapshotKeepsLapsedHold(t *testing.T) {
	dir := t.TempDir()
	invOpts := inventory.Options{MinSlotLength: 1, DefaultTTL: time.Hour}
	_, store, _, err := wal.Open(dir, invOpts, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	seedOpts := invOpts
	seedOpts.Sink = store
	inv, err := inventory.New(testkit.SlotList(testkit.Slot(testkit.Node(0, 5, 1), 0, 200)), seedOpts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inv.Reserve(&job.Request{TaskCount: 1, Volume: 50, MaxCost: 10000}, core.AMP{}, 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := store.Snapshot(inv.ExportState()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(120 * time.Millisecond) // lapse the hold in wall time

	f, err := wal.NewFollower(dir, invOpts)
	if err != nil {
		t.Fatal(err)
	}
	catchUp(t, f, inv)
	repl := f.Inventory()
	v := repl.Snapshot().Version
	repl.Sweep()
	if got := repl.Snapshot().Version; got != v {
		t.Fatalf("Sweep expired a recovered hold during resync: version %d -> %d", v, got)
	}
	if holds := repl.Status().Holds; holds != 1 {
		t.Fatalf("recovered hold count = %d, want 1", holds)
	}
	if got, want := slotListBytes(t, repl), slotListBytes(t, inv); got != want {
		t.Fatalf("replica free list diverged before the leader expired:\nreplica %s\nleader  %s", got, want)
	}

	// Only the leader's OpExpire may retire it.
	inv.Sweep()
	if inv.Status().Counters.Expiries != 1 {
		t.Fatalf("leader expiries = %d, want 1", inv.Status().Counters.Expiries)
	}
	catchUp(t, f, inv)
	if holds := repl.Status().Holds; holds != 0 {
		t.Fatalf("replica still holds %d after the leader's OpExpire", holds)
	}
	if got, want := slotListBytes(t, repl), slotListBytes(t, inv); got != want {
		t.Fatalf("replica free list diverged after OpExpire:\nreplica %s\nleader  %s", got, want)
	}
}
