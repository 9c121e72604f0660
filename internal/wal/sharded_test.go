package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"slotsel/internal/core"
	"slotsel/internal/inventory"
	"slotsel/internal/job"
	"slotsel/internal/randx"
	"slotsel/internal/testkit"
)

// seedSharded boots a fresh n-shard layout under dir and seeds it with a
// deterministic instance.
func seedSharded(t *testing.T, dir string, n int, seed uint64, invOpts inventory.Options, walOpts Options) (*inventory.Sharded, []*Store) {
	t.Helper()
	pool, stores, _, err := OpenSharded(dir, n, invOpts, walOpts)
	if err != nil {
		t.Fatal(err)
	}
	if pool != nil {
		t.Fatal("expected a fresh layout, got a recovered pool")
	}
	rng := randx.New(seed)
	pool, err = SeedSharded(testkit.RandomList(rng, 10, 3, 300), invOpts, stores)
	if err != nil {
		t.Fatal(err)
	}
	return pool, stores
}

// TestShardedSeedReopenRoundTrip: seed a 4-shard layout, churn it, close,
// reopen — every shard must come back byte-identical, the GSeq watermark
// must survive, and fresh mutations must mint GSeqs strictly beyond it.
func TestShardedSeedReopenRoundTrip(t *testing.T) {
	forMinLens(t, func(t *testing.T, minLen float64) {
		const n = 4
		dir := t.TempDir()
		pool, stores := seedSharded(t, dir, n, 11, inventory.Options{MinSlotLength: minLen}, Options{NoSync: true})
		drive(t, pool, 11, 20)
		wantSigs := make([]string, n)
		for i := 0; i < n; i++ {
			wantSigs[i] = stateSig(pool.Shard(i))
		}
		gBefore := pool.GSeq()
		if gBefore == 0 {
			t.Fatal("no GSeq minted by the seed churn")
		}
		for _, st := range stores {
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
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
		if got := re.GSeq(); got != gBefore {
			t.Errorf("GSeq watermark %d after reopen, want %d", got, gBefore)
		}
		// New work must continue the global order, not restart it.
		if _, err := re.Reserve(&job.Request{TaskCount: 1, Volume: 30, MaxCost: 5000}, core.AMP{}, time.Minute); err != nil {
			t.Fatalf("post-recovery reserve: %v", err)
		}
		if got := re.GSeq(); got <= gBefore {
			t.Errorf("post-recovery GSeq %d did not advance past the recovered watermark %d", got, gBefore)
		}
	})
}

// TestOpenShardedRejectsFlatLayout: a directory holding a single-pool WAL
// must not be silently reinterpreted as a sharded one.
func TestOpenShardedRejectsFlatLayout(t *testing.T) {
	dir := t.TempDir()
	_, store := churnLeader(t, dir, 3, 5, 1, Options{NoSync: true})
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := OpenSharded(dir, 4, inventory.Options{MinSlotLength: 1}, Options{NoSync: true}); err == nil {
		t.Fatal("flat single-pool WAL accepted as a sharded layout")
	}
}

// TestOpenShardedRejectsShardCountChange: the shard count is part of the
// on-disk contract; reopening at a different n must refuse.
func TestOpenShardedRejectsShardCountChange(t *testing.T) {
	forMinLens(t, func(t *testing.T, minLen float64) {
		dir := t.TempDir()
		_, stores := seedSharded(t, dir, 4, 5, inventory.Options{MinSlotLength: minLen}, Options{NoSync: true})
		for _, st := range stores {
			st.Close()
		}
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
		pool, stores := seedSharded(t, dir, 4, 6, inventory.Options{MinSlotLength: minLen}, Options{NoSync: true})
		drive(t, pool, 6, 6)
		for _, st := range stores {
			st.Close()
		}
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
			pool, stores := seedSharded(t, dir, nShards, seed, invOpts, Options{NoSync: true})
			drive(t, pool, seed, 12)
			liveSigs := make([]string, nShards)
			for i := range liveSigs {
				liveSigs[i] = stateSig(pool.Shard(i))
			}
			for _, st := range stores {
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
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
