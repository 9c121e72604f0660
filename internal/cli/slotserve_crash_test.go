package cli

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"slotsel/internal/inventory"
	"slotsel/internal/slots"
	"slotsel/internal/wal"
)

// noState is the seed of an in-process boot that must recover state: a
// directory with none fails it.
func noState() (slots.List, error) { return nil, errors.New("recovery found no state at all") }

// TestMain doubles the test binary as a slotserve executable: the SIGKILL
// e2e needs a real separate process to kill (an in-process server cannot
// be killed without taking the test down with it). With SLOTSERVE_REEXEC
// set, the binary runs Slotserve with the JSON-encoded args and exits.
func TestMain(m *testing.M) {
	if os.Getenv("SLOTSERVE_REEXEC") == "1" {
		var args []string
		if err := json.Unmarshal([]byte(os.Getenv("SLOTSERVE_ARGS")), &args); err != nil {
			fmt.Fprintln(os.Stderr, "slotserve reexec: bad SLOTSERVE_ARGS:", err)
			os.Exit(2)
		}
		os.Exit(Slotserve(args, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// serveProc is a slotserve child process started via re-exec.
type serveProc struct {
	cmd    *exec.Cmd
	addr   string
	stderr *syncBuf
}

// startServeProc launches the test binary as slotserve and waits for its
// "listening on" line to learn the bound address.
func startServeProc(t *testing.T, args ...string) *serveProc {
	t.Helper()
	raw, err := json.Marshal(args)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "SLOTSERVE_REEXEC=1", "SLOTSERVE_ARGS="+string(raw))
	pipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &serveProc{cmd: cmd, stderr: &syncBuf{}}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(p.stderr, line)
			if _, rest, ok := strings.Cut(line, "listening on http://"); ok {
				select {
				case addrc <- strings.TrimSpace(rest):
				default:
				}
			}
		}
	}()
	select {
	case p.addr = <-addrc:
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("slotserve child never reported its address; stderr:\n%s", p.stderr)
	}
	return p
}

// TestSlotserveKillDuringChurn is the durability e2e: a real slotserve
// process with -data-dir takes concurrent reserve/commit/release traffic
// and is SIGKILLed mid-churn. Every commit the server acknowledged before
// the kill must be present in the recovered state, with zero overlapping
// allocations — and a second slotserve must boot from the directory and
// serve again.
func TestSlotserveKillDuringChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	scratch := t.TempDir()
	slotFile := filepath.Join(scratch, "env.json")
	if code, _, stderr := runSlotgen(t, "-nodes", "12", "-seed", "11", "-o", slotFile); code != 0 {
		t.Fatalf("slotgen: exit %d, stderr %q", code, stderr)
	}
	walDir := filepath.Join(scratch, "wal")

	p := startServeProc(t,
		"-addr", "127.0.0.1:0", "-slots", slotFile, "-data-dir", walDir,
		"-snapshot-interval", "300ms", "-snapshot-every", "16", "-ttl", "1h")
	base := "http://" + p.addr

	// Churn: concurrent clients reserve and then commit or release. Acked
	// commits — the server answered 200 after the WAL fsync — are the
	// records that must survive the kill.
	var (
		mu    sync.Mutex
		acked []string
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	client := &http.Client{Timeout: 2 * time.Second}
	post := func(path, body string) (int, map[string]json.RawMessage, error) {
		resp, err := client.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		var out map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return resp.StatusCode, nil, err
		}
		return resp.StatusCode, out, nil
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				body := fmt.Sprintf(`{"request":{"tasks":%d,"volume":%d,"max_cost":100000}}`, 1+(w+i)%3, 10+(i%7)*5)
				code, out, err := post("/v1/reserve", body)
				if err != nil {
					return // the process died under us: done churning
				}
				if code != http.StatusOK {
					continue // no window / conflict: keep hammering
				}
				var id string
				if err := json.Unmarshal(out["id"], &id); err != nil {
					t.Errorf("worker %d: bad reserve response: %v", w, err)
					return
				}
				path := "/v1/commit"
				if (w+i)%4 == 3 {
					path = "/v1/release"
				}
				code, _, err = post(path, fmt.Sprintf(`{"id":%q}`, id))
				if err != nil {
					return
				}
				if path == "/v1/commit" && code == http.StatusOK {
					mu.Lock()
					acked = append(acked, id)
					mu.Unlock()
				}
			}
		}(w)
	}

	// Kill mid-churn once enough commits are acknowledged, with workers
	// still in flight — some requests die between fsync and response,
	// which is exactly the window the WAL contract covers.
	deadline := time.Now().Add(30 * time.Second)
	for {
		mu.Lock()
		n := len(acked)
		mu.Unlock()
		if n >= 12 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d commits acked in 30s; stderr:\n%s", n, p.stderr)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	p.cmd.Wait()
	close(stop)
	wg.Wait()

	// Recover the directory in-process and check the contract.
	stack, err := wal.Boot(walDir, noState, inventory.Options{}, wal.Options{})
	if err != nil {
		t.Fatalf("recovery after SIGKILL failed: %v", err)
	}
	inv, store, res := stack.Shards[0], stack.Stores[0], stack.Results[0]
	defer store.Close()
	st := inv.ExportState()
	committed := map[string]bool{}
	for _, c := range st.Committed {
		committed[c.ID] = true
	}
	mu.Lock()
	defer mu.Unlock()
	for _, id := range acked {
		if !committed[id] {
			t.Errorf("acked commit %s lost in the crash (recovered seq %d, %d events)", id, res.LastSeq, len(res.Events))
		}
	}
	// Zero double-booking: no two recovered allocations may overlap on any
	// node. Holds and commits both occupy capacity, so check them together.
	type span struct {
		id         string
		start, end float64
	}
	occupied := map[int][]span{}
	check := func(id string, m map[int][]slots.Interval) {
		for nid, ivs := range m {
			for _, iv := range ivs {
				for _, prev := range occupied[nid] {
					if prev.id != id && prev.start < iv.End && iv.Start < prev.end {
						t.Errorf("double-booking on node %d: %s [%g,%g) overlaps %s [%g,%g)",
							nid, prev.id, prev.start, prev.end, id, iv.Start, iv.End)
					}
				}
				occupied[nid] = append(occupied[nid], span{id: id, start: iv.Start, end: iv.End})
			}
		}
	}
	for _, c := range st.Committed {
		check(c.ID, c.Window.UsedIntervals())
	}
	for _, h := range st.Holds {
		check(h.ID, h.Window.UsedIntervals())
	}
	if len(st.Committed) < len(acked) {
		t.Errorf("recovered %d commits, but %d were acked", len(st.Committed), len(acked))
	}
	store.Close()

	// And the real boot path: a fresh slotserve on the same directory
	// recovers and serves, then exits cleanly on SIGTERM with a final
	// snapshot on disk.
	p2 := startServeProc(t, "-addr", "127.0.0.1:0", "-data-dir", walDir)
	resp, err := http.Get("http://" + p2.addr + "/v1/statusz")
	if err != nil {
		t.Fatalf("restarted server unreachable: %v", err)
	}
	var status struct {
		Durability struct {
			JournalSeq uint64 `json:"journal_seq"`
		} `json:"durability"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if status.Durability.JournalSeq < res.LastSeq {
		t.Errorf("restarted server at seq %d, recovery saw %d", status.Durability.JournalSeq, res.LastSeq)
	}
	if err := p2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := p2.cmd.Wait(); err != nil {
		t.Fatalf("SIGTERM exit: %v; stderr:\n%s", err, p2.stderr)
	}
	snaps, err := filepath.Glob(filepath.Join(walDir, "snap-*.snap"))
	if err != nil || len(snaps) == 0 {
		t.Errorf("no snapshot after clean shutdown (%v)", err)
	}
}

// TestSlotserveShardedKillDuringChurn is the sharded durability e2e: a
// slotserve with -shards 4 -data-dir takes concurrent traffic and is
// SIGKILLed mid-churn. Every acked commit must survive into the recovered
// 4-shard layout with zero overlapping allocations, a torn tail in one
// shard's log must not disturb the others, and a second slotserve must
// boot the same directory and serve again.
func TestSlotserveShardedKillDuringChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	const nShards = 4
	scratch := t.TempDir()
	slotFile := filepath.Join(scratch, "env.json")
	if code, _, stderr := runSlotgen(t, "-nodes", "12", "-seed", "23", "-o", slotFile); code != 0 {
		t.Fatalf("slotgen: exit %d, stderr %q", code, stderr)
	}
	walDir := filepath.Join(scratch, "wal")

	p := startServeProc(t,
		"-addr", "127.0.0.1:0", "-slots", slotFile, "-data-dir", walDir, "-shards", "4",
		"-snapshot-interval", "300ms", "-snapshot-every", "16", "-ttl", "1h")
	base := "http://" + p.addr

	var (
		mu    sync.Mutex
		acked []string
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	client := &http.Client{Timeout: 2 * time.Second}
	post := func(path, body string) (int, map[string]json.RawMessage, error) {
		resp, err := client.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		var out map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return resp.StatusCode, nil, err
		}
		return resp.StatusCode, out, nil
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Multi-task requests span nodes, so a share of the traffic
				// exercises the two-phase cross-shard path under fire.
				body := fmt.Sprintf(`{"request":{"tasks":%d,"volume":%d,"max_cost":100000}}`, 1+(w+i)%3, 10+(i%7)*5)
				code, out, err := post("/v1/reserve", body)
				if err != nil {
					return
				}
				if code != http.StatusOK {
					continue
				}
				var id string
				if err := json.Unmarshal(out["id"], &id); err != nil {
					t.Errorf("worker %d: bad reserve response: %v", w, err)
					return
				}
				path := "/v1/commit"
				if (w+i)%4 == 3 {
					path = "/v1/release"
				}
				code, _, err = post(path, fmt.Sprintf(`{"id":%q}`, id))
				if err != nil {
					return
				}
				if path == "/v1/commit" && code == http.StatusOK {
					mu.Lock()
					acked = append(acked, id)
					mu.Unlock()
				}
			}
		}(w)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		mu.Lock()
		n := len(acked)
		mu.Unlock()
		if n >= 12 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d commits acked in 30s; stderr:\n%s", n, p.stderr)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	p.cmd.Wait()
	close(stop)
	wg.Wait()

	// Recover the 4-shard layout in-process and check the contract.
	stack, err := wal.Boot(walDir, noState, inventory.Options{Shards: nShards}, wal.Options{})
	if err != nil {
		t.Fatalf("sharded recovery after SIGKILL failed: %v", err)
	}
	pool, stores, results := stack.Pool, stack.Stores, stack.Results
	committed := pool.Committed()
	mu.Lock()
	for _, id := range acked {
		if _, ok := committed[id]; !ok {
			t.Errorf("acked commit %s lost in the crash", id)
		}
	}
	nAcked := len(acked)
	mu.Unlock()
	if len(committed) < nAcked {
		t.Errorf("recovered %d commits, but %d were acked", len(committed), nAcked)
	}

	// Zero double-booking across the whole recovered pool: holds and
	// commits from every shard together.
	type span struct {
		id         string
		start, end float64
	}
	occupied := map[int][]span{}
	check := func(id string, m map[int][]slots.Interval) {
		for nid, ivs := range m {
			for _, iv := range ivs {
				for _, prev := range occupied[nid] {
					if prev.id != id && prev.start < iv.End && iv.Start < prev.end {
						t.Errorf("double-booking on node %d: %s [%g,%g) overlaps %s [%g,%g)",
							nid, prev.id, prev.start, prev.end, id, iv.Start, iv.End)
					}
				}
				occupied[nid] = append(occupied[nid], span{id: id, start: iv.Start, end: iv.End})
			}
		}
	}
	for i := 0; i < nShards; i++ {
		st := stack.Shards[i].ExportState()
		for _, c := range st.Committed {
			check(c.ID, c.Window.UsedIntervals())
		}
		for _, h := range st.Holds {
			check(h.ID, h.Window.UsedIntervals())
		}
	}
	// A torn tail is at most one frame per shard — SIGKILL interrupts at
	// most one in-flight group commit per log — and recovery repairs it
	// without failing any sibling shard (results all non-nil above).
	var replayed int
	for i, res := range results {
		if res == nil {
			t.Fatalf("shard %d: no recovery result", i)
		}
		replayed += len(res.Events)
	}
	if replayed == 0 {
		t.Error("no events recovered across any shard")
	}
	for _, st := range stores {
		st.Close()
	}

	// Real boot path: a fresh slotserve -shards 4 on the same directory
	// recovers every shard, serves, and snapshots each shard on SIGTERM.
	p2 := startServeProc(t, "-addr", "127.0.0.1:0", "-data-dir", walDir, "-shards", "4")
	if !strings.Contains(p2.stderr.String(), "recovered 4 shards") {
		t.Errorf("restarted server did not report sharded recovery; stderr:\n%s", p2.stderr)
	}
	resp, err := http.Get("http://" + p2.addr + "/v1/statusz")
	if err != nil {
		t.Fatalf("restarted server unreachable: %v", err)
	}
	var status struct {
		Inventory  inventory.Status `json:"inventory"`
		Durability struct {
			Shards []struct {
				Shard      int    `json:"shard"`
				JournalSeq uint64 `json:"journal_seq"`
			} `json:"shards"`
		} `json:"durability"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := len(status.Durability.Shards); got != nShards {
		t.Errorf("statusz durability lists %d shards, want %d", got, nShards)
	}
	if status.Inventory.Committed < nAcked {
		t.Errorf("restarted server reports %d committed, acked %d", status.Inventory.Committed, nAcked)
	}
	if err := p2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := p2.cmd.Wait(); err != nil {
		t.Fatalf("SIGTERM exit: %v; stderr:\n%s", err, p2.stderr)
	}
	for i := 0; i < nShards; i++ {
		snaps, err := filepath.Glob(filepath.Join(walDir, wal.ShardDirName(i), "snap-*.snap"))
		if err != nil || len(snaps) == 0 {
			t.Errorf("shard %d: no snapshot after clean shutdown (%v)", i, err)
		}
	}
}
