package wal

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"slotsel/internal/core"
	"slotsel/internal/inventory"
	"slotsel/internal/job"
	"slotsel/internal/randx"
	"slotsel/internal/slots"
	"slotsel/internal/testkit"
)

// seedSharded boots a fresh n-shard layout under dir and seeds it with a
// deterministic instance.
func seedSharded(t *testing.T, dir string, n int, seed uint64, invOpts inventory.Options, walOpts Options) *Stack {
	t.Helper()
	invOpts.Shards = n
	stack, err := Boot(dir, func() (slots.List, error) { return testkit.RandomList(randx.New(seed), 10, 3, 300), nil }, invOpts, walOpts)
	if err != nil {
		t.Fatal(err)
	}
	if stack.Results != nil {
		t.Fatal("expected a fresh layout, got a recovered pool")
	}
	return stack
}

// TestShardedSeedReopenRoundTrip: seed a 4-shard layout, churn it, close,
// reopen — every shard must come back byte-identical, and the first
// reservation after recovery must get an ID no recovered hold or commit
// carries on any shard: IDs are one namespace across the shards.
func TestShardedSeedReopenRoundTrip(t *testing.T) {
	forMinLens(t, func(t *testing.T, minLen float64) {
		const n = 4
		dir := t.TempDir()
		stack := seedSharded(t, dir, n, 11, inventory.Options{MinSlotLength: minLen}, Options{NoSync: true})
		drive(t, stack.Pool, 11, 20)
		wantSigs := make([]string, n)
		for i := 0; i < n; i++ {
			wantSigs[i] = stateSig(stack.Shards[i])
		}
		if err := stack.Close(); err != nil {
			t.Fatal(err)
		}

		re, stores2, results, err := OpenSharded(dir, n, inventory.Options{MinSlotLength: minLen}, Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		if re == nil {
			t.Fatal("reopen treated a populated layout as fresh")
		}
		defer func() {
			for _, st := range stores2 {
				st.Close()
			}
		}()
		for i, res := range results {
			if res == nil || res.Truncated {
				t.Fatalf("shard %d: clean close recovered with damage: %+v", i, res)
			}
		}
		for i := 0; i < n; i++ {
			if got := stateSig(re.Shard(i)); got != wantSigs[i] {
				t.Errorf("shard %d state diverged across reopen:\n got %s\nwant %s", i, got, wantSigs[i])
			}
		}
		// IDs are zero-padded, so string order is mint order: a fresh ID
		// must sort after every recovered one, not only differ from them
		// (a released ID handed out again is a reuse too).
		var recovered []string
		for i := 0; i < n; i++ {
			recovered = append(recovered, re.Shard(i).Holds()...)
			for id := range re.Shard(i).Committed() {
				recovered = append(recovered, id)
			}
		}
		if len(recovered) == 0 {
			t.Fatal("the seed churn left no hold or commit to recover")
		}
		res, err := re.Reserve(&job.Request{TaskCount: 1, Volume: 30, MaxCost: 5000}, core.AMP{}, time.Minute)
		if err != nil {
			t.Fatalf("post-recovery reserve: %v", err)
		}
		for _, id := range recovered {
			if res.ID <= id {
				t.Errorf("post-recovery reserve got ID %s, not past recovered hold or commit %s", res.ID, id)
			}
		}
	})
}

// withGseqKey adds the "gseq" key that older writers put into every event
// frame and snapshot payload (a cross-shard event order nothing read).
func withGseqKey(payload []byte, g uint64) []byte {
	return append([]byte(fmt.Sprintf(`{"gseq":%d,`, g)), payload[1:]...)
}

// rewriteWithGseqKey rewrites every frame of a segment or snapshot file with
// the "gseq" key, drawing values from *g the way the shared counter did.
func rewriteWithGseqKey(t *testing.T, path string, g *uint64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r := frameReader(data)
	var out []byte
	for {
		payload, err := readFrame(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		*g++
		out = appendFrame(out, withGseqKey(payload, *g))
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLegacyGseqKeyIgnored: directories written while events carried the
// global "gseq" order still boot. An event frame and a snapshot payload
// with the key decode to what they decode to without it, and a 4-shard
// layout (snapshot plus log tail on every shard) whose every record
// carries the key reopens to the same state on every shard.
func TestLegacyGseqKeyIgnored(t *testing.T) {
	forMinLens(t, func(t *testing.T, minLen float64) {
		rng := randx.New(5)
		inv, err := inventory.New(testkit.RandomList(rng, 10, 3, 300), inventory.Options{MinSlotLength: minLen, Record: true})
		if err != nil {
			t.Fatal(err)
		}
		drive(t, inv, 5, 40)
		for i, ev := range inv.Journal() {
			payload, err := encodeEvent(ev)
			if err != nil {
				t.Fatal(err)
			}
			back, err := DecodeEvent(withGseqKey(payload, uint64(i+7)))
			if err != nil {
				t.Fatalf("seq %d with gseq: %v", ev.Seq, err)
			}
			if again, err := encodeEvent(back); err != nil || !bytes.Equal(again, payload) {
				t.Fatalf("seq %d: the gseq key changed the decoded event (%v):\n got %s\nwant %s", ev.Seq, err, again, payload)
			}
		}
		payload, err := EncodeState(inv.ExportState())
		if err != nil {
			t.Fatal(err)
		}
		var sigs [2][]byte
		for i, p := range [][]byte{payload, withGseqKey(payload, 99)} {
			st, err := DecodeState(p)
			if err != nil {
				t.Fatal(err)
			}
			if sigs[i], err = EncodeState(st); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(sigs[1], sigs[0]) {
			t.Fatalf("the gseq key changed the decoded state:\n got %s\nwant %s", sigs[1], sigs[0])
		}

		const n = 4
		dir := t.TempDir()
		stack := seedSharded(t, dir, n, 21, inventory.Options{MinSlotLength: minLen}, Options{NoSync: true})
		drive(t, stack.Pool, 21, 12)
		if err := stack.Snapshot(); err != nil {
			t.Fatal(err)
		}
		drive(t, stack.Pool, 22, 12)
		wantSigs := make([]string, n)
		for i, inv := range stack.Shards {
			wantSigs[i] = stateSig(inv)
		}
		if err := stack.Close(); err != nil {
			t.Fatal(err)
		}
		var g uint64
		for i := 0; i < n; i++ {
			shardDir := filepath.Join(dir, ShardDirName(i))
			snaps, err := listSnapshots(shardDir)
			if err != nil || len(snaps) == 0 {
				t.Fatalf("shard %d: no snapshot (%v)", i, err)
			}
			for _, sn := range snaps {
				rewriteWithGseqKey(t, sn.path, &g)
			}
			segs, err := listSegments(shardDir)
			if err != nil {
				t.Fatal(err)
			}
			for _, seg := range segs {
				rewriteWithGseqKey(t, seg.path, &g)
			}
		}
		re, stores2, results, err := OpenSharded(dir, n, inventory.Options{MinSlotLength: minLen}, Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			for _, st := range stores2 {
				st.Close()
			}
		}()
		tail := 0
		for i, res := range results {
			if res == nil || res.Truncated || res.State == nil {
				t.Fatalf("shard %d: want a clean snapshot recovery, got %+v", i, res)
			}
			tail += len(res.Events)
			if got := stateSig(re.Shard(i)); got != wantSigs[i] {
				t.Errorf("shard %d state diverged with gseq keys on disk:\n got %s\nwant %s", i, got, wantSigs[i])
			}
		}
		if tail == 0 {
			t.Fatal("no shard replayed a log tail past its snapshot")
		}
	})
}

// TestOpenShardedRejectsShardCountChange: the shard count is part of the
// on-disk contract; reopening at a different n must refuse.
func TestOpenShardedRejectsShardCountChange(t *testing.T) {
	forMinLens(t, func(t *testing.T, minLen float64) {
		dir := t.TempDir()
		seedSharded(t, dir, 4, 5, inventory.Options{MinSlotLength: minLen}, Options{NoSync: true}).Close()
		if _, _, _, err := OpenSharded(dir, 2, inventory.Options{MinSlotLength: minLen}, Options{NoSync: true}); err == nil {
			t.Fatal("4-shard layout opened at 2 shards")
		}
		if _, _, _, err := OpenSharded(dir, 1, inventory.Options{MinSlotLength: minLen}, Options{NoSync: true}); err == nil {
			t.Fatal("OpenSharded accepted a single shard")
		}
	})
}

// TestOpenShardedRejectsMixedEmptiness: every shard journals its own
// construction, so an empty shard directory next to populated ones means
// that shard's log was lost — recovery must refuse rather than boot a
// silently partial pool.
func TestOpenShardedRejectsMixedEmptiness(t *testing.T) {
	forMinLens(t, func(t *testing.T, minLen float64) {
		dir := t.TempDir()
		stack := seedSharded(t, dir, 4, 6, inventory.Options{MinSlotLength: minLen}, Options{NoSync: true})
		drive(t, stack.Pool, 6, 6)
		stack.Close()
		victim := filepath.Join(dir, ShardDirName(2))
		if err := os.RemoveAll(victim); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := OpenSharded(dir, 4, inventory.Options{MinSlotLength: minLen}, Options{NoSync: true}); err == nil {
			t.Fatal("recovery booted a pool with one shard's log missing")
		}
	})
}

// TestShardedCrashInjectionTornTailContained is the sharded extension of
// the every-byte crash suite: one shard's log is cut at every byte offset,
// and (a) that shard alone must recover exactly its complete-frame prefix
// at every cut, and (b) a full sharded boot across representative cuts
// must bring every OTHER shard back byte-identical — damage never leaks
// across shard directories. 6 seeds run at MinSlotLength 1 and 4 more at 7
// and 30.
func TestShardedCrashInjectionTornTailContained(t *testing.T) {
	const nShards = 4
	const seeds, shortSeeds = 6, 4
	for seed := uint64(1); seed <= seeds+shortSeeds; seed++ {
		seed := seed
		invOpts := inventory.Options{MinSlotLength: crashMinLen(seed, seeds)}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			stack := seedSharded(t, dir, nShards, seed, invOpts, Options{NoSync: true})
			drive(t, stack.Pool, seed, 12)
			liveSigs := make([]string, nShards)
			for i := range liveSigs {
				liveSigs[i] = stateSig(stack.Shards[i])
			}
			if err := stack.Close(); err != nil {
				t.Fatal(err)
			}

			// Victim: the shard with the longest log (most frames to tear).
			victim, seg := -1, ""
			var data []byte
			for i := 0; i < nShards; i++ {
				segs, err := listSegments(filepath.Join(dir, ShardDirName(i)))
				if err != nil || len(segs) != 1 {
					t.Fatalf("shard %d: want exactly one segment, got %d (%v)", i, len(segs), err)
				}
				b, err := os.ReadFile(segs[0].path)
				if err != nil {
					t.Fatal(err)
				}
				if len(b) > len(data) {
					victim, data, seg = i, b, segs[0].path
				}
			}
			bounds := frameBoundaries(t, data)

			// (a) Every byte offset, read-only per-shard recovery: the
			// victim recovers exactly the events whose frames are complete.
			victimDir := filepath.Join(dir, ShardDirName(victim))
			for off := int64(len(data)); off >= 0; off-- {
				if err := os.Truncate(seg, off); err != nil {
					t.Fatal(err)
				}
				res, err := Recover(victimDir, false)
				if err != nil {
					t.Fatalf("offset %d: victim recovery failed: %v", off, err)
				}
				k := completeFrames(bounds, off)
				if len(res.Events) != k {
					t.Fatalf("offset %d: recovered %d events, want %d", off, len(res.Events), k)
				}
				if wantTorn := bounds[k] != off; res.Truncated != wantTorn {
					t.Fatalf("offset %d: Truncated=%v, want %v", off, res.Truncated, wantTorn)
				}
			}

			// (b) Full sharded boots at frame boundaries, one byte past and
			// mid-frame cuts (a cut before the victim's first frame is the
			// lost-shard case, tested separately). The other shards must be
			// untouched by the victim's repair.
			var cuts []int64
			for k := 1; k+1 < len(bounds); k++ {
				cuts = append(cuts, bounds[k], bounds[k]+1, bounds[k]+(bounds[k+1]-bounds[k])/2)
			}
			cuts = append(cuts, int64(len(data)))
			for _, off := range cuts {
				// Repair truncates, so rewrite the exact crash image.
				if err := os.WriteFile(seg, data[:off], 0o644); err != nil {
					t.Fatal(err)
				}
				re, sts, results, err := OpenSharded(dir, nShards, invOpts, Options{NoSync: true})
				if err != nil {
					t.Fatalf("cut %d: sharded recovery failed: %v", off, err)
				}
				k := completeFrames(bounds, off)
				if got := len(results[victim].Events); got != k {
					t.Fatalf("cut %d: victim recovered %d events, want %d", off, got, k)
				}
				for i := 0; i < nShards; i++ {
					if i == victim {
						continue
					}
					if got := stateSig(re.Shard(i)); got != liveSigs[i] {
						t.Fatalf("cut %d: torn tail on shard %d corrupted shard %d:\n got %s\nwant %s",
							off, victim, i, got, liveSigs[i])
					}
				}
				for _, st := range sts {
					st.Close()
				}
			}
		})
	}
}
