package cli

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"slotsel/internal/core"
	"slotsel/internal/inventory"
	"slotsel/internal/job"
	"slotsel/internal/randx"
	"slotsel/internal/slots"
	"slotsel/internal/testkit"
	"slotsel/internal/wal"
)

func runSlotserve(t *testing.T, args ...string) (int, string, string) {
	return run(t, func(a []string, o, e *bytes.Buffer) int { return Slotserve(a, o, e) }, args...)
}

func TestSlotserveUsageErrors(t *testing.T) {
	if code, _, stderr := runSlotserve(t); code != 2 || !strings.Contains(stderr, "-slots is required") {
		t.Errorf("no args: exit %d, stderr %q", code, stderr)
	}
	if code, _, _ := runSlotserve(t, "-not-a-flag"); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
	if code, _, stderr := runSlotserve(t, "-slots", "does-not-exist.json"); code != 1 || stderr == "" {
		t.Errorf("missing file: exit %d, want 1", code)
	}
	if code, _, stderr := runSlotserve(t, "-shards", "0"); code != 2 || !strings.Contains(stderr, "-shards") {
		t.Errorf("zero shards: exit %d, stderr %q, want 2", code, stderr)
	}
}

// served is a Slotserve run in-process on a free localhost port.
type served struct {
	base           string
	stdout, stderr syncBuf
	stop           func()   // takes the SIGTERM path
	done           chan int // receives the exit code
}

// startSlotserve starts Slotserve with args. A run that exits before it
// listens fails the test.
func startSlotserve(t *testing.T, args ...string) *served {
	t.Helper()
	s := &served{done: make(chan int, 1)}
	addrc := make(chan string, 1)
	slotserveTestHook = func(addr string, stop func()) {
		s.stop = stop
		addrc <- addr
	}
	t.Cleanup(func() { slotserveTestHook = nil })
	go func() { s.done <- Slotserve(append([]string{"-addr", "localhost:0"}, args...), &s.stdout, &s.stderr) }()
	select {
	case addr := <-addrc:
		s.base = "http://" + addr
		return s
	case code := <-s.done:
		t.Fatalf("slotserve %v exited %d before listening: %s", args, code, s.stderr.String())
		return nil
	}
}

// TestSlotservePipeline is the end-to-end CLI walkthrough: slotgen writes a
// snapshot (both formats), slotserve loads it, and a reserve/commit cycle
// runs over real HTTP before a clean shutdown.
func TestSlotservePipeline(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"environment snapshot", nil},
		{"bare slot list", []string{"-slots-only"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			file := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "-")+".json")
			genArgs := append([]string{"-nodes", "10", "-seed", "7", "-o", file}, tc.args...)
			if code, _, stderr := runSlotgen(t, genArgs...); code != 0 {
				t.Fatalf("slotgen: exit %d, stderr %q", code, stderr)
			}

			srv := startSlotserve(t, "-slots", file)
			base := srv.base

			resp, err := http.Post(base+"/v1/reserve", "application/json",
				strings.NewReader(`{"request":{"tasks":2,"volume":20,"max_cost":100000}}`))
			if err != nil {
				t.Fatal(err)
			}
			var res struct {
				ID string `json:"id"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || res.ID == "" {
				t.Fatalf("reserve: status %d, id %q", resp.StatusCode, res.ID)
			}

			resp, err = http.Post(base+"/v1/commit", "application/json",
				strings.NewReader(`{"id":"`+res.ID+`"}`))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("commit: status %d", resp.StatusCode)
			}

			resp, err = http.Get(base + "/v1/statusz")
			if err != nil {
				t.Fatal(err)
			}
			var status struct {
				Inventory struct {
					Counters struct {
						Commits uint64 `json:"commits"`
					} `json:"counters"`
				} `json:"inventory"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if status.Inventory.Counters.Commits != 1 {
				t.Fatalf("statusz commits = %d, want 1", status.Inventory.Counters.Commits)
			}

			srv.stop()
			if code := <-srv.done; code != 0 {
				t.Fatalf("slotserve exit %d, stderr %q", code, srv.stderr.String())
			}
			if stderr := srv.stderr.String(); !strings.Contains(stderr, "listening on") || !strings.Contains(stderr, "drained") {
				t.Errorf("stderr missing lifecycle lines: %q", stderr)
			}
		})
	}
}

// TestSlotserveDrainMidCycle: a shutdown signal arriving while a reserve is
// mid-flight must let the request complete — the client gets its 200 and
// reservation ID, and the process still exits 0 with a clean drain.
//
// The in-flight state is constructed deterministically over raw TCP: the
// request headers and half the declared body are sent, which makes the
// connection active (the handler blocks reading the rest of the body), then
// the shutdown path fires, then the body is completed. http.Server.Shutdown
// must wait out the active request rather than killing it.
func TestSlotserveDrainMidCycle(t *testing.T) {
	file := filepath.Join(t.TempDir(), "env.json")
	if code, _, stderr := runSlotgen(t, "-nodes", "10", "-seed", "7", "-o", file); code != 0 {
		t.Fatalf("slotgen: exit %d, stderr %q", code, stderr)
	}

	srv := startSlotserve(t, "-slots", file)
	addr := strings.TrimPrefix(srv.base, "http://")

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	body := `{"request":{"tasks":2,"volume":20,"max_cost":100000}}`
	head := fmt.Sprintf("POST /v1/reserve HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		addr, len(body))
	half := len(body) / 2
	if _, err := io.WriteString(conn, head+body[:half]); err != nil {
		t.Fatal(err)
	}
	// Give the server time to read the headers and block in the body read:
	// the request is now provably in-flight.
	time.Sleep(50 * time.Millisecond)

	// SIGTERM path fires mid-cycle.
	srv.stop()
	time.Sleep(50 * time.Millisecond)

	// Complete the body; the drained server must still answer in full.
	if _, err := io.WriteString(conn, body[half:]); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("reading mid-drain response: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mid-drain reserve: status %d, want 200", resp.StatusCode)
	}
	var res struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.ID == "" {
		t.Fatal("mid-drain reserve completed without a reservation ID")
	}

	if code := <-srv.done; code != 0 {
		t.Fatalf("slotserve exit %d, stderr %q", code, srv.stderr.String())
	}
	if stderr := srv.stderr.String(); !strings.Contains(stderr, "drained") {
		t.Errorf("stderr missing drain line: %q", stderr)
	}
}

// TestSlotserveBootContract pins how slotserve boots a -data-dir: a fresh
// one needs -slots to seed it; a populated one keeps its recovered state
// over another -slots file, at 1 and 4 shards; and a flat boot of a
// 4-shard directory is refused and leaves the directory as it was.
func TestSlotserveBootContract(t *testing.T) {
	dir := t.TempDir()
	seedA, seedB := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	for file, seed := range map[string]string{seedA: "7", seedB: "8"} {
		if code, _, stderr := runSlotgen(t, "-nodes", "10", "-seed", seed, "-o", file); code != 0 {
			t.Fatalf("slotgen: exit %d, stderr %q", code, stderr)
		}
	}

	if code, _, stderr := runSlotserve(t, "-data-dir", filepath.Join(dir, "fresh")); code != 2 || !strings.Contains(stderr, "-slots is required to seed") {
		t.Errorf("fresh -data-dir without -slots: exit %d, stderr %q, want 2", code, stderr)
	}

	freeSlots := func(base string) string {
		t.Helper()
		resp, err := http.Get(base + "/v1/slots")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("/v1/slots: status %d, %v", resp.StatusCode, err)
		}
		return string(body)
	}
	for _, shards := range []string{"1", "4"} {
		data := filepath.Join(dir, "data-"+shards)
		srv := startSlotserve(t, "-slots", seedA, "-data-dir", data, "-shards", shards)
		before := freeSlots(srv.base)
		srv.stop()
		if code := <-srv.done; code != 0 {
			t.Fatalf("shards=%s: first boot exit %d, stderr %q", shards, code, srv.stderr.String())
		}

		srv = startSlotserve(t, "-slots", seedB, "-data-dir", data, "-shards", shards)
		after := freeSlots(srv.base)
		srv.stop()
		if code, stderr := <-srv.done, srv.stderr.String(); code != 0 || !strings.Contains(stderr, "recovered state wins") {
			t.Errorf("shards=%s: second boot with -slots: exit %d, stderr %q", shards, code, stderr)
		}
		if after != before {
			t.Errorf("shards=%s: the second boot serves other free slots than the first left:\n%s\nwant\n%s", shards, after, before)
		}
	}

	// A flat boot that got past the layout check would listen: shut it
	// down at once, so the test fails instead of hanging.
	slotserveTestHook = func(_ string, stop func()) { stop() }
	sharded := filepath.Join(dir, "data-4")
	was, _ := filepath.Glob(filepath.Join(sharded, "*"))
	if code, _, stderr := runSlotserve(t, "-addr", "localhost:0", "-slots", seedA, "-data-dir", sharded, "-shards", "1"); code != 1 || !strings.Contains(stderr, "shard-00") {
		t.Errorf("-shards 1 on a 4-shard directory: exit %d, stderr %q, want 1 naming shard-00", code, stderr)
	}
	if now, _ := filepath.Glob(filepath.Join(sharded, "*")); fmt.Sprint(now) != fmt.Sprint(was) {
		t.Errorf("a refused flat boot changed the directory: %v, was %v", now, was)
	}
}

// TestSlotgenSlotsOnlyFormat: -slots-only output has no horizon field and
// parses as a bare slot list.
func TestSlotgenSlotsOnlyFormat(t *testing.T) {
	file := filepath.Join(t.TempDir(), "slots.json")
	if code, _, stderr := runSlotgen(t, "-nodes", "5", "-seed", "3", "-o", file, "-slots-only"); code != 0 {
		t.Fatalf("slotgen: exit %d, stderr %q", code, stderr)
	}
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(raw, &probe); err != nil {
		t.Fatal(err)
	}
	if _, has := probe["horizon"]; has {
		t.Error("-slots-only output still has a horizon field")
	}
	l, err := loadSlotFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if len(l) == 0 {
		t.Fatal("empty slot list")
	}
}

// TestSnapshotLoopOutlivesRefusal: a snapshot the store refuses without
// latching an error is logged and tried again an interval later; the loop
// ends when it is stopped, not at the refusal.
func TestSnapshotLoopOutlivesRefusal(t *testing.T) {
	boot := func(cycles int) *wal.Stack {
		st, err := wal.Boot(t.TempDir(), func() (slots.List, error) { return testkit.RandomList(randx.New(3), 8, 3, 300), nil },
			inventory.Options{}, wal.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		req := job.Request{TaskCount: 1, Volume: 10}
		for i := 0; i < cycles; i++ {
			res, err := st.Pool.Reserve(&req, core.AMP{}, time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Pool.Release(res.ID); err != nil {
				t.Fatal(err)
			}
		}
		return st
	}
	// ahead's state is past the end of behind's log, so behind's store
	// refuses it every time, and latches nothing.
	ahead, behind := boot(5), boot(1)
	var log syncBuf
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		snapshotLoop(ahead.Shards[0], behind.Stores[0], 5*time.Millisecond, 0, stop, &log)
		close(done)
	}()
	for deadline := time.Now().Add(10 * time.Second); strings.Count(log.String(), "slotserve: snapshot:") < 2; time.Sleep(5 * time.Millisecond) {
		select {
		case <-done:
			t.Fatalf("the loop ended at a refusal that latched nothing:\n%s", log.String())
		default:
		}
		if time.Now().After(deadline) {
			close(stop)
			t.Fatalf("no second attempt within 10 s:\n%s", log.String())
		}
	}
	close(stop)
	<-done
	if err := behind.Stores[0].Err(); err != nil {
		t.Fatalf("the refusal latched the store: %v", err)
	}
}
