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

			addrc := make(chan string, 1)
			var shutdown func()
			slotserveTestHook = func(addr string, stop func()) {
				shutdown = stop
				addrc <- addr
			}
			t.Cleanup(func() { slotserveTestHook = nil })

			done := make(chan struct {
				code   int
				stderr string
			}, 1)
			go func() {
				var out, errBuf bytes.Buffer
				code := Slotserve([]string{"-addr", "localhost:0", "-slots", file}, &out, &errBuf)
				done <- struct {
					code   int
					stderr string
				}{code, errBuf.String()}
			}()

			addr := <-addrc
			base := "http://" + addr

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

			shutdown()
			r := <-done
			if r.code != 0 {
				t.Fatalf("slotserve exit %d, stderr %q", r.code, r.stderr)
			}
			if !strings.Contains(r.stderr, "listening on") || !strings.Contains(r.stderr, "drained") {
				t.Errorf("stderr missing lifecycle lines: %q", r.stderr)
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

	addrc := make(chan string, 1)
	var shutdown func()
	slotserveTestHook = func(addr string, stop func()) {
		shutdown = stop
		addrc <- addr
	}
	t.Cleanup(func() { slotserveTestHook = nil })

	done := make(chan struct {
		code   int
		stderr string
	}, 1)
	go func() {
		var out, errBuf bytes.Buffer
		code := Slotserve([]string{"-addr", "localhost:0", "-slots", file}, &out, &errBuf)
		done <- struct {
			code   int
			stderr string
		}{code, errBuf.String()}
	}()
	addr := <-addrc

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
	shutdown()
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

	r := <-done
	if r.code != 0 {
		t.Fatalf("slotserve exit %d, stderr %q", r.code, r.stderr)
	}
	if !strings.Contains(r.stderr, "drained") {
		t.Errorf("stderr missing drain line: %q", r.stderr)
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
