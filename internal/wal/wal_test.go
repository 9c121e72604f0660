package wal

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"slotsel/internal/core"
	"slotsel/internal/inventory"
	"slotsel/internal/job"
	"slotsel/internal/obs"
	"slotsel/internal/randx"
	"slotsel/internal/testkit"
)

// stateSig renders everything that defines an inventory's durable state:
// snapshot version, sequence, free list, holds, committed set, counters.
// NoWindow is excluded (failed searches journal nothing).
func stateSig(inv *inventory.Inventory) string {
	var b strings.Builder
	snap := inv.Snapshot()
	fmt.Fprintf(&b, "v%d seq%d\n", snap.Version, inv.Seq())
	for _, s := range snap.Slots {
		fmt.Fprintf(&b, "[n%d %x..%x]", s.Node.ID, s.Start, s.End)
	}
	b.WriteString("\nholds:")
	for _, id := range inv.Holds() {
		fmt.Fprintf(&b, " %s", id)
	}
	committed := inv.Committed()
	ids := make([]string, 0, len(committed))
	for id := range committed {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	b.WriteString("\ncommitted:\n")
	for _, id := range ids {
		fmt.Fprintf(&b, "%s: %s\n", id, testkit.WindowSignature(committed[id]))
	}
	c := inv.Status().Counters
	c.NoWindow = 0
	fmt.Fprintf(&b, "%+v", c)
	return b.String()
}

// churnLeader builds a WAL-backed inventory in dir and drives a
// deterministic workload against it.
func churnLeader(t *testing.T, dir string, seed uint64, ops int, minLen float64, walOpts Options) (*inventory.Inventory, *Store) {
	t.Helper()
	rec, store, _, err := Open(dir, inventory.Options{MinSlotLength: minLen}, walOpts)
	if err != nil {
		t.Fatal(err)
	}
	inv := rec
	if inv == nil {
		rng := randx.New(seed)
		inv, err = inventory.New(testkit.RandomList(rng, 10, 3, 300), inventory.Options{MinSlotLength: minLen, Sink: store})
		if err != nil {
			t.Fatal(err)
		}
	}
	drive(t, inv, seed, ops)
	return inv, store
}

// drive performs a deterministic op mix against inv (a plain inventory or
// a sharded router — the workload is the same either way).
func drive(t testing.TB, inv inventory.Pool, seed uint64, ops int) {
	t.Helper()
	rng := randx.New(seed + 999)
	var held []string
	for op := 0; op < ops; op++ {
		switch k := rng.Intn(10); {
		case k < 5:
			req := &job.Request{
				TaskCount: rng.IntRange(1, 3),
				Volume:    float64(rng.IntRange(20, 80)),
				MaxCost:   5000,
			}
			if res, err := inv.Reserve(req, core.AMP{}, time.Minute); err == nil {
				held = append(held, res.ID)
			}
		case k < 7:
			if len(held) > 0 {
				inv.Commit(held[rng.Intn(len(held))])
			}
		case k < 9:
			if len(held) > 0 {
				i := rng.Intn(len(held))
				inv.Release(held[i])
				held = append(held[:i], held[i+1:]...)
			}
		default:
			inv.Withdraw(rng.Intn(10))
		}
	}
}

func TestFrameDamageClassification(t *testing.T) {
	payload := []byte(`{"hello":"world"}`)
	frame := appendFrame(nil, payload)

	if got, err := readFrame(frameReader(frame)); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("clean frame: %v", err)
	}
	// Every proper prefix is torn, never corrupt (the crash shape).
	for cut := 1; cut < len(frame); cut++ {
		if _, err := readFrame(frameReader(frame[:cut])); err != errTorn {
			t.Fatalf("cut at %d: got %v, want errTorn", cut, err)
		}
	}
	// Empty input is a clean EOF, not damage.
	if _, err := readFrame(frameReader(nil)); err == errTorn {
		t.Fatal("empty input misclassified as torn")
	}
	// A complete frame with a flipped payload byte is corrupt.
	bad := append([]byte(nil), frame...)
	bad[frameHeaderSize] ^= 0xff
	if _, err := readFrame(frameReader(bad)); !strings.Contains(fmt.Sprint(err), "corrupt") {
		t.Fatalf("flipped byte: got %v, want corrupt", err)
	}
	// An absurd length prefix is corrupt, not an allocation attempt.
	huge := append([]byte(nil), frame...)
	huge[3] = 0xff
	if _, err := readFrame(frameReader(huge)); !strings.Contains(fmt.Sprint(err), "corrupt") {
		t.Fatalf("huge length: got %v, want corrupt", err)
	}
}

func TestEventCodecRoundTrip(t *testing.T) {
	// Record a real journal (covers every op kind with real windows),
	// round-trip each event through the codec, and check the decoded
	// journal replays to the same state.
	forMinLens(t, func(t *testing.T, minLen float64) {
		rng := randx.New(5)
		inv, err := inventory.New(testkit.RandomList(rng, 10, 3, 300), inventory.Options{MinSlotLength: minLen, Record: true})
		if err != nil {
			t.Fatal(err)
		}
		drive(t, inv, 5, 80)
		events := inv.Journal()
		ops := map[inventory.Op]bool{}
		decoded := make([]inventory.Event, 0, len(events))
		for _, ev := range events {
			ops[ev.Op] = true
			payload, err := EncodeEvent(ev)
			if err != nil {
				t.Fatalf("encode seq %d: %v", ev.Seq, err)
			}
			back, err := DecodeEvent(payload)
			if err != nil {
				t.Fatalf("decode seq %d: %v", ev.Seq, err)
			}
			decoded = append(decoded, back)
		}
		for _, op := range []inventory.Op{inventory.OpAdd, inventory.OpReserve, inventory.OpCommit, inventory.OpRelease} {
			if !ops[op] {
				t.Fatalf("workload never exercised %v", op)
			}
		}
		a, err := inventory.Replay(events, inventory.Options{MinSlotLength: minLen})
		if err != nil {
			t.Fatal(err)
		}
		b, err := inventory.Replay(decoded, inventory.Options{MinSlotLength: minLen})
		if err != nil {
			t.Fatalf("decoded journal diverges: %v", err)
		}
		if got, want := stateSig(b), stateSig(a); got != want {
			t.Fatalf("decoded replay differs:\n got %s\nwant %s", got, want)
		}
		if got, want := stateSig(a), stateSig(inv); got != want {
			t.Fatalf("replay differs from the recorded inventory:\n got %s\nwant %s", got, want)
		}
	})
}

func TestStateCodecRoundTrip(t *testing.T) {
	forMinLens(t, func(t *testing.T, minLen float64) {
		rng := randx.New(9)
		inv, err := inventory.New(testkit.RandomList(rng, 10, 3, 300), inventory.Options{MinSlotLength: minLen})
		if err != nil {
			t.Fatal(err)
		}
		drive(t, inv, 9, 60)
		st := inv.ExportState()
		payload, err := EncodeState(st)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeState(payload)
		if err != nil {
			t.Fatal(err)
		}
		re, err := inventory.Restore(back, inventory.Options{MinSlotLength: minLen})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := stateSig(re), stateSig(inv); got != want {
			t.Fatalf("state codec round trip differs:\n got %s\nwant %s", got, want)
		}
		// Hold deadlines survive to the nanosecond.
		reSt := re.ExportState()
		for i := range st.Holds {
			if !reSt.Holds[i].Expires.Equal(st.Holds[i].Expires) {
				t.Fatalf("hold %s expiry drifted: %v vs %v", st.Holds[i].ID, reSt.Holds[i].Expires, st.Holds[i].Expires)
			}
		}
	})
}

func TestStoreRecoverRoundTrip(t *testing.T) {
	forMinLens(t, func(t *testing.T, minLen float64) {
		dir := t.TempDir()
		inv, store := churnLeader(t, dir, 1, 120, minLen, Options{})
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		rec, store2, res, err := Open(dir, inventory.Options{MinSlotLength: minLen}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer store2.Close()
		if rec == nil {
			t.Fatal("recovery found nothing")
		}
		if res.Truncated {
			t.Fatal("clean close produced a torn tail")
		}
		if got, want := stateSig(rec), stateSig(inv); got != want {
			t.Fatalf("recovered state differs:\n got %s\nwant %s", got, want)
		}
		// The recovered leader keeps working and journaling.
		drive(t, rec, 2, 20)
		if store2.Err() != nil {
			t.Fatal(store2.Err())
		}
	})
}

func TestSnapshotCompactionAndRecovery(t *testing.T) {
	forMinLens(t, func(t *testing.T, minLen float64) {
		dir := t.TempDir()
		// Tiny segments force frequent rotation so compaction has targets.
		inv, store := churnLeader(t, dir, 3, 60, minLen, Options{SegmentBytes: 4 << 10})
		if err := store.Snapshot(inv.ExportState()); err != nil {
			t.Fatal(err)
		}
		drive(t, inv, 4, 60)
		if err := store.Snapshot(inv.ExportState()); err != nil {
			t.Fatal(err)
		}
		segs, _ := listSegments(dir)
		snaps, _ := listSnapshots(dir)
		if len(snaps) > DefaultSnapshotKeep {
			t.Fatalf("compaction kept %d snapshots, want <= %d", len(snaps), DefaultSnapshotKeep)
		}
		if len(segs) == 0 {
			t.Fatal("no segments left at all")
		}
		stats := store.Stats()
		if stats.SnapshotSeq == 0 || stats.DurableSeq < stats.SnapshotSeq {
			t.Fatalf("implausible stats: %+v", stats)
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		rec, store2, _, err := Open(dir, inventory.Options{MinSlotLength: minLen}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer store2.Close()
		if got, want := stateSig(rec), stateSig(inv); got != want {
			t.Fatalf("post-compaction recovery differs:\n got %s\nwant %s", got, want)
		}
	})
}

func TestGroupCommitUnderConcurrency(t *testing.T) {
	forMinLens(t, func(t *testing.T, minLen float64) {
		dir := t.TempDir()
		_, store, _, err := Open(dir, inventory.Options{MinSlotLength: minLen}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rng := randx.New(11)
		inv, err := inventory.New(testkit.RandomList(rng, 12, 3, 300), inventory.Options{MinSlotLength: minLen, Sink: store})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				drive(t, inv, uint64(100+g), 30)
			}(g)
		}
		wg.Wait()
		stats := store.Stats()
		if stats.DurableSeq != inv.Seq() {
			t.Fatalf("acked mutations not durable: durable %d, inventory seq %d", stats.DurableSeq, inv.Seq())
		}
		// Group commit must have batched: strictly fewer fsyncs than events.
		if stats.Fsyncs >= stats.DurableSeq {
			t.Logf("note: no batching observed (%d fsyncs for %d events)", stats.Fsyncs, stats.DurableSeq)
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		rec, store2, _, err := Open(dir, inventory.Options{MinSlotLength: minLen}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer store2.Close()
		if got, want := stateSig(rec), stateSig(inv); got != want {
			t.Fatalf("concurrent run recovery differs:\n got %s\nwant %s", got, want)
		}
	})
}

// TestLogOnlyRecoveryKeepsCallerOptions: a directory holding a log but no
// snapshot must recover under the caller's options like one with a
// snapshot does — searches reach the Collector and a default-TTL hold
// lapses after Options.DefaultTTL.
func TestLogOnlyRecoveryKeepsCallerOptions(t *testing.T) {
	forMinLens(t, func(t *testing.T, minLen float64) {
		dir := t.TempDir()
		inv, store := churnLeader(t, dir, 5, 20, minLen, Options{NoSync: true})
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		if snaps, _ := listSnapshots(dir); len(snaps) != 0 {
			t.Fatalf("fixture broken: %d snapshots in a log-only directory", len(snaps))
		}
		stats, trace := &obs.Stats{}, obs.NewTrace(16)
		now := time.Unix(1_900_000_000, 0)
		rec, store2, _, err := Open(dir, inventory.Options{
			MinSlotLength: minLen,
			DefaultTTL:    5 * time.Second,
			Collector:     obs.Combine(stats, trace),
			Clock:         func() time.Time { return now },
		}, Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		defer store2.Close()
		if got, want := stateSig(rec), stateSig(inv); got != want {
			t.Fatalf("log-only recovery differs:\n got %s\nwant %s", got, want)
		}
		res, err := rec.Reserve(&job.Request{TaskCount: 1, Volume: 20, MaxCost: 5000}, core.AMP{}, 0)
		if err != nil {
			t.Fatalf("reserve on the recovered pool: %v", err)
		}
		if want := now.Add(5 * time.Second); !res.Expires.Equal(want) {
			t.Errorf("default-TTL hold expires %v, want %v", res.Expires, want)
		}
		if got := stats.Snapshot().Selects["AMP"].Searches; got != 1 {
			t.Errorf("collector saw %d AMP searches, want 1", got)
		}
		spans := trace.Spans()
		if len(spans) == 0 || spans[len(spans)-1].Name != "inventory.Reserve" {
			t.Errorf("collector saw spans %v, want a final inventory.Reserve", spans)
		}
	})
}

func TestRecoverRepairsTornTail(t *testing.T) {
	dir := t.TempDir()
	inv, store := churnLeader(t, dir, 7, 80, 1, Options{})
	_ = inv
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	seg := segs[len(segs)-1].path
	whole, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the tail: drop the last 3 bytes (mid-payload).
	if err := os.WriteFile(seg, whole[:len(whole)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Recover(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("torn tail not reported")
	}
	after, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) >= len(whole)-3 {
		t.Fatalf("torn tail not truncated: %d bytes left", len(after))
	}
	// The repaired log must recover cleanly and end exactly at LastSeq.
	res2, err := Recover(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Truncated {
		t.Fatal("repair left a torn tail behind")
	}
	if res2.LastSeq != res.LastSeq {
		t.Fatalf("repair changed the recovered prefix: %d vs %d", res2.LastSeq, res.LastSeq)
	}
}

func TestRecoverRejectsMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	_, store := churnLeader(t, dir, 13, 60, 1, Options{})
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	seg := segs[0].path
	whole, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte well inside the file: a complete-but-bad frame.
	mod := append([]byte(nil), whole...)
	mod[len(mod)/3] ^= 0xff
	if err := os.WriteFile(seg, mod, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir, true); err == nil {
		t.Fatal("mid-log corruption accepted")
	}
}

func TestRecoverSkipsCorruptSnapshot(t *testing.T) {
	forMinLens(t, func(t *testing.T, minLen float64) { recoverSkipsCorruptSnapshot(t, minLen, Options{}) })
}

// TestRecoverSkipsCorruptSnapshotSmallSegments: the same fallback when
// every batch rotates the segment and every snapshot seals one, so
// compaction has segments to delete between the two snapshots — and must
// keep those the older snapshot still needs.
func TestRecoverSkipsCorruptSnapshotSmallSegments(t *testing.T) {
	forMinLens(t, func(t *testing.T, minLen float64) {
		recoverSkipsCorruptSnapshot(t, minLen, Options{SegmentBytes: 1})
	})
}

func recoverSkipsCorruptSnapshot(t *testing.T, minLen float64, walOpts Options) {
	dir := t.TempDir()
	inv, store := churnLeader(t, dir, 17, 60, minLen, walOpts)
	if err := store.Snapshot(inv.ExportState()); err != nil {
		t.Fatal(err)
	}
	drive(t, inv, 18, 30)
	if err := store.Snapshot(inv.ExportState()); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, _ := listSnapshots(dir)
	latest := snaps[len(snaps)-1]
	data, _ := os.ReadFile(latest.path)
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(latest.path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// With the newest snapshot corrupt, recovery falls back to the older
	// one. The events between the two snapshots were compacted only up to
	// the OLDER snapshot's boundary (compaction keeps 2 snapshots and
	// only deletes segments the older snapshot covers), so the tail from
	// the older snapshot is still complete and recovery still lands on
	// the exact final state.
	res, err := Recover(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.SkippedSnapshots != 1 {
		t.Fatalf("skipped %d snapshots, want 1", res.SkippedSnapshots)
	}
	if res.State == nil || res.State.Seq != snaps[0].seq {
		t.Fatalf("did not fall back to snapshot %d", snaps[0].seq)
	}
	rec, store2, _, err := Open(dir, inventory.Options{MinSlotLength: minLen}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if got, want := stateSig(rec), stateSig(inv); got != want {
		t.Fatalf("fallback recovery differs:\n got %s\nwant %s", got, want)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	store, err := Create(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	wait := store.Append(inventory.Event{Seq: 1, Op: inventory.OpAdd, OK: true})
	if err := wait(); err == nil {
		t.Fatal("append after close acked")
	}
}

func TestSnapshotWaitsForDurability(t *testing.T) {
	// Snapshot(state) with state.Seq beyond anything appended must not
	// succeed silently — it waits; with a closed store it errors.
	dir := t.TempDir()
	store, err := Create(dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	st := &inventory.State{Seq: 99, Version: 1}
	if err := store.Snapshot(st); err == nil {
		t.Fatal("snapshot of never-durable seq succeeded")
	}
}

// frameReader wraps a byte slice for readFrame.
func frameReader(b []byte) *bufio.Reader { return bufio.NewReader(bytes.NewReader(b)) }
