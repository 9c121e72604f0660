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
	"slotsel/internal/slots"
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
	stack, err := Boot(dir, func() (slots.List, error) { return testkit.RandomList(randx.New(seed), 10, 3, 300), nil },
		inventory.Options{MinSlotLength: minLen}, walOpts)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, stack.Pool, seed, ops)
	return stack.Shards[0], stack.Stores[0]
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
			payload, err := encodeEvent(ev)
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
		inv, store := seedFlat(t, dir, testkit.RandomList(randx.New(11), 12, 3, 300),
			inventory.Options{MinSlotLength: minLen, Record: true}, Options{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				drive(t, inv, uint64(100+g), 30)
			}(g)
		}
		wg.Wait()
		// Every awaited ack is durable; the unawaited events after the
		// last one may still be queued.
		var awaited uint64
		for _, ev := range inv.Journal() {
			if ev.AckWaits() {
				awaited = ev.Seq
			}
		}
		stats := store.Stats()
		if stats.DurableSeq < awaited {
			t.Fatalf("acked mutations not durable: durable %d, last awaited seq %d", stats.DurableSeq, awaited)
		}
		// Group commit must have batched: strictly fewer fsyncs than events.
		if stats.Fsyncs >= stats.DurableSeq {
			t.Logf("note: no batching observed (%d fsyncs for %d events)", stats.Fsyncs, stats.DurableSeq)
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		if got := store.Stats().DurableSeq; got != inv.Seq() {
			t.Fatalf("Close left events unwritten: durable %d, inventory seq %d", got, inv.Seq())
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

// segmentBytes is the total size of dir's log segments.
func segmentBytes(t *testing.T, dir string) int64 {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, sg := range segs {
		fi, err := os.Stat(sg.path)
		if err != nil {
			t.Fatal(err)
		}
		n += fi.Size()
	}
	return n
}

// TestUnawaitedEventsWriteOnDemand pins the demand-driven writer: releases,
// expiries and refusals cost no fsync and no segment byte until an awaited
// event makes them durable with one fsync of its own, and a snapshot over
// a tail of them alone returns rather than waiting for a demand that never
// comes.
func TestUnawaitedEventsWriteOnDemand(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1_700_000_000, 0)
	inv, store := seedFlat(t, dir, testkit.RandomList(randx.New(3), 8, 3, 300),
		inventory.Options{Clock: func() time.Time { return now }}, Options{})
	defer store.Close()
	req := &job.Request{TaskCount: 1, Volume: 20, MaxCost: 5000}
	var held []*inventory.Reservation
	for i := 0; i < 6; i++ {
		res, err := inv.Reserve(req, core.AMP{}, time.Duration(i+1)*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, res)
	}
	fsyncs, size := store.Stats().Fsyncs, segmentBytes(t, dir)
	quiet := func(what string) {
		t.Helper()
		if st := store.Stats(); st.Fsyncs != fsyncs || st.AppendedSeq != inv.Seq() || st.DurableSeq >= st.AppendedSeq {
			t.Fatalf("after %s: %+v, want %d fsyncs and seq %d appended, not durable", what, st, fsyncs, inv.Seq())
		}
		if got := segmentBytes(t, dir); got != size {
			t.Fatalf("after %s: segments hold %d bytes, want %d", what, got, size)
		}
	}
	for _, res := range held[:3] {
		if err := inv.Release(res.ID); err != nil {
			t.Fatal(err)
		}
	}
	quiet("releases")
	if _, err := inv.ReserveWindow(held[3].Window, time.Minute); err != inventory.ErrConflict {
		t.Fatalf("reserve over a hold: %v, want a conflict", err)
	}
	if _, err := inv.Commit(held[0].ID); err != inventory.ErrUnknownReservation {
		t.Fatalf("commit of a released hold: %v", err)
	}
	if err := inv.Release("r99999999"); err != inventory.ErrUnknownReservation {
		t.Fatalf("release of an unknown hold: %v", err)
	}
	if _, err := inv.Withdraw(999); err != inventory.ErrUnknownNode {
		t.Fatalf("withdraw of an unknown node: %v", err)
	}
	quiet("refusals")
	now = now.Add(4*time.Minute + time.Second)
	if n := inv.Sweep(); n != 1 {
		t.Fatalf("swept %d holds, want 1", n)
	}
	quiet("an expiry")

	// The next awaited event carries the whole tail in one fsync.
	if _, err := inv.Commit(held[4].ID); err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Fsyncs != fsyncs+1 || st.DurableSeq != inv.Seq() {
		t.Fatalf("after a commit: %+v, want %d fsyncs and seq %d durable", st, fsyncs+1, inv.Seq())
	}
	if segmentBytes(t, dir) <= size {
		t.Fatal("the commit wrote nothing")
	}

	if err := inv.Release(held[5].ID); err != nil {
		t.Fatal(err)
	}
	if err := snapshotWithin(t, func() error { return store.Snapshot(inv.ExportState()) }); err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.DurableSeq != inv.Seq() || st.SnapshotSeq != inv.Seq() {
		t.Fatalf("after the snapshot: %+v, want seq %d durable and covered", st, inv.Seq())
	}
}

// frameReader wraps a byte slice for readFrame.
func frameReader(b []byte) *bufio.Reader { return bufio.NewReader(bytes.NewReader(b)) }

// snapshotWithin runs snap and fails the test if it has not returned
// within 10 s: a snapshot that waits for a sequence nothing pending
// can reach never returns.
func snapshotWithin(t *testing.T, snap func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- snap() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("snapshot did not return")
		return nil
	}
}

// TestSnapshotAheadOfLog: a state whose Seq is ahead of everything the
// store appended is refused with an error naming both sequences, on a fresh
// store and on one with a log, and the refusal leaves the store healthy:
// not latched, and a true snapshot still goes through. Before the check the
// snapshot waited forever for a sequence no append would bring.
// Over a Stack whose stores are paired with the wrong shards, Snapshot
// returns the same refusal for the store handed a state ahead of its log.
func TestSnapshotAheadOfLog(t *testing.T) {
	fresh, err := Create(t.TempDir(), 0, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	err = snapshotWithin(t, func() error { return fresh.Snapshot(&inventory.State{Seq: 5}) })
	if err == nil || !strings.Contains(err.Error(), "seq 5") || !strings.Contains(err.Error(), "seq 0") {
		t.Fatalf("snapshot at seq 5 of an empty log: %v, want an error naming seq 5 and seq 0", err)
	}

	dir := t.TempDir()
	inv, store := seedFlat(t, dir, testkit.RandomList(randx.New(5), 8, 3, 300), inventory.Options{}, Options{NoSync: true})
	defer store.Close()
	drive(t, inv, 5, 40)
	st := inv.ExportState()
	appended := st.Seq
	st.Seq += 1000
	err = snapshotWithin(t, func() error { return store.Snapshot(st) })
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("seq %d", st.Seq)) || !strings.Contains(err.Error(), fmt.Sprintf("seq %d", appended)) {
		t.Fatalf("snapshot at seq %d of a log at seq %d: %v, want an error naming both", st.Seq, appended, err)
	}
	if err := store.Err(); err != nil {
		t.Fatalf("the refusal latched the store: %v", err)
	}
	if stats := store.Stats(); stats.SnapshotSeq != 0 {
		t.Fatalf("the refusal recorded snapshot seq %d", stats.SnapshotSeq)
	}
	if err := snapshotWithin(t, func() error { return store.Snapshot(inv.ExportState()) }); err != nil {
		t.Fatalf("a true snapshot after the refusal: %v", err)
	}

	stack, err := Boot(t.TempDir(), func() (slots.List, error) { return testkit.RandomList(randx.New(6), 12, 3, 300), nil },
		inventory.Options{Shards: 4}, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	drive(t, stack.Pool, 6, 60)
	hi, lo := 0, 0
	for i := range stack.Shards {
		if stack.Shards[i].Seq() > stack.Shards[hi].Seq() {
			hi = i
		}
		if stack.Stores[i].Stats().AppendedSeq < stack.Stores[lo].Stats().AppendedSeq {
			lo = i
		}
	}
	if stack.Shards[hi].Seq() <= stack.Stores[lo].Stats().AppendedSeq {
		t.Fatalf("every shard is at seq %d: nothing to mis-pair", stack.Shards[hi].Seq())
	}
	stack.Stores[hi], stack.Stores[lo] = stack.Stores[lo], stack.Stores[hi]
	err = snapshotWithin(t, stack.Snapshot)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("store %d: wal: snapshot of seq %d is ahead", hi, stack.Shards[hi].Seq())) {
		t.Fatalf("Stack.Snapshot with store %d journaling shard %d: %v, want store %d's refusal", lo, hi, err, hi)
	}
	stack.Stores[hi], stack.Stores[lo] = stack.Stores[lo], stack.Stores[hi]
	for i, s := range stack.Stores {
		if err := s.Err(); err != nil {
			t.Fatalf("store %d latched: %v", i, err)
		}
	}
	if err := snapshotWithin(t, stack.Snapshot); err != nil {
		t.Fatalf("Stack.Snapshot once paired again: %v", err)
	}
}

// TestOversizedSnapshotRefused: a state whose snapshot payload exceeds
// MaxRecordBytes — a base of 300 001 slots — is refused before any file is
// made, because every boot would reject such a snapshot as corrupt, and
// once two existed compaction would delete the segments they cover. Both
// refusals name the size and the bound, the directory is left as it was,
// the store is not latched, and a boot recovers the same free list from
// the log alone.
func TestOversizedSnapshotRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("encodes and replays a 300 001-slot pool")
	}
	const nodeCount, perNode = 1000, 300
	list := make(slots.List, 0, nodeCount*perNode+1)
	for i := 0; i < nodeCount; i++ {
		n := testkit.Node(i, 4.125, 1.0625)
		for j := 0; j < perNode; j++ {
			start := float64(j)*10 + 0.123456789 // keep the encoding long
			list = append(list, testkit.Slot(n, start, start+5.987654321))
		}
	}
	list = append(list, testkit.Slot(testkit.Node(nodeCount, 4, 1), 0, 100))

	dir := t.TempDir()
	seed := func() (slots.List, error) { return nil, nil }
	stack, err := Boot(dir, seed, inventory.Options{}, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	// Added in parts, so that every event frames under the bound.
	for lo := 0; lo < len(list); lo += 100000 {
		if err := stack.Pool.Add(list[lo:min(lo+100000, len(list))]); err != nil {
			t.Fatal(err)
		}
	}
	inv, store := stack.Shards[0], stack.Stores[0]
	st := inv.ExportState()
	if len(st.Base) != len(list) {
		t.Fatalf("the base holds %d slots, want %d", len(st.Base), len(list))
	}
	listing := func() string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, e := range entries {
			info, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s %d\n", e.Name(), info.Size())
		}
		return b.String()
	}
	before := listing()
	for i := 0; i < 2; i++ {
		err := store.Snapshot(st)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%d-byte record bound", MaxRecordBytes)) {
			t.Fatalf("snapshot %d of a %d-slot base: %v, want a refusal naming the bound", i+1, len(list), err)
		}
		t.Log(err)
	}
	if after := listing(); after != before {
		t.Fatalf("the refusals changed the directory:\nbefore %s\nafter %s", before, after)
	}
	if err := store.Err(); err != nil {
		t.Fatalf("the refusal latched the store: %v", err)
	}
	want := stateSig(inv)
	if err := stack.Close(); err != nil {
		t.Fatal(err)
	}
	rebooted, err := Boot(dir, seed, inventory.Options{}, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rebooted.Close()
	if rebooted.Results == nil {
		t.Fatal("the boot seeded a fresh pool instead of recovering")
	}
	if got := stateSig(rebooted.Shards[0]); got != want {
		t.Fatal("the boot recovered another free list than the pool had")
	}
}
