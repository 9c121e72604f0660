package wal

import (
	"fmt"
	"os"
	"testing"

	"slotsel/internal/inventory"
	"slotsel/internal/randx"
	"slotsel/internal/testkit"
)

// frameBoundaries scans a segment's bytes and returns the cumulative
// offsets at which complete frames end (boundary[0] = 0).
func frameBoundaries(t *testing.T, data []byte) []int64 {
	t.Helper()
	bounds := []int64{0}
	off := int64(0)
	r := frameReader(data)
	for {
		payload, err := readFrame(r)
		if err != nil {
			return bounds
		}
		off += frameHeaderSize + int64(len(payload))
		bounds = append(bounds, off)
	}
}

// completeFrames returns how many whole frames fit in the first off bytes.
func completeFrames(bounds []int64, off int64) int {
	k := 0
	for k+1 < len(bounds) && bounds[k+1] <= off {
		k++
	}
	return k
}

// crashMinLen is the MinSlotLength of sweep seed seed when the first base
// seeds run at 1: the seeds past them alternate 7 and 30, above the length
// of some base spans (1..150 here), where a span shorter than the minimum
// is published whole until an allocation touches it — the inventory
// differential's split.
func crashMinLen(seed, base uint64) float64 {
	if seed <= base {
		return 1
	}
	return []float64{7, 30}[seed%2]
}

// forMinLens runs f as one subtest per MinSlotLength of the sweep: 1, 7
// and 30 (crashMinLen's).
func forMinLens(t *testing.T, f func(t *testing.T, minLen float64)) {
	for _, m := range []float64{1, 7, 30} {
		t.Run(fmt.Sprintf("minlen=%g", m), func(t *testing.T) { f(t, m) })
	}
}

// TestCrashInjectionEveryByteOffset is the crash-recovery acceptance
// suite: for 64 seeded workloads at MinSlotLength 1 and 16 more at 7 and 30
// (crashMinLen), the WAL is truncated at EVERY byte
// offset — simulating a crash at any possible point of an append — and
// recovery must (a) never fail, (b) recover exactly the events whose
// frames are complete, and (c) rebuild a state byte-identical to the
// in-memory oracle replay of that event prefix, snapshot version
// included.
//
// Offsets descend so plain os.Truncate moves the crash point; recovery
// runs in read-only mode so the file is undisturbed between offsets.
// Rebuild cost is memoized by recovered prefix length: equal prefixes
// recover equal states, so each distinct prefix is rebuilt and diffed
// once while every offset still runs the real on-disk recovery scan.
func TestCrashInjectionEveryByteOffset(t *testing.T) {
	const seeds, shortSeeds = 64, 16
	for seed := uint64(1); seed <= seeds+shortSeeds; seed++ {
		seed := seed
		invOpts := inventory.Options{MinSlotLength: crashMinLen(seed, seeds)}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			list := testkit.RandomList(randx.New(seed), 6, 3, 300)
			if len(list) == 0 {
				t.Skip("empty instance")
			}
			inv, store := seedFlat(t, dir, list, inventory.Options{MinSlotLength: invOpts.MinSlotLength, Record: true}, Options{NoSync: true})
			drive(t, inv, seed, 10)
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
			oracle := inv.Journal()

			segs, err := listSegments(dir)
			if err != nil || len(segs) != 1 {
				t.Fatalf("want exactly one segment, got %d (%v)", len(segs), err)
			}
			seg := segs[0].path
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			bounds := frameBoundaries(t, data)
			if got, want := len(bounds)-1, len(oracle); got != want {
				t.Fatalf("segment has %d frames, oracle has %d events", got, want)
			}

			oracleSig := map[int]string{}
			diskSig := map[int]string{}
			for off := int64(len(data)); off >= 0; off-- {
				if err := os.Truncate(seg, off); err != nil {
					t.Fatal(err)
				}
				res, err := Recover(dir, false)
				if err != nil {
					t.Fatalf("offset %d: recovery failed: %v", off, err)
				}
				k := completeFrames(bounds, off)
				if len(res.Events) != k {
					t.Fatalf("offset %d: recovered %d events, want %d", off, len(res.Events), k)
				}
				if wantTorn := bounds[k] != off; res.Truncated != wantTorn {
					t.Fatalf("offset %d: Truncated=%v, want %v", off, res.Truncated, wantTorn)
				}
				if res.LastSeq != uint64(k) {
					t.Fatalf("offset %d: LastSeq=%d, want %d", off, res.LastSeq, k)
				}
				if _, seen := diskSig[k]; !seen {
					rec, err := rebuild(res, invOpts)
					if err != nil {
						t.Fatalf("offset %d: rebuild: %v", off, err)
					}
					diskSig[k] = stateSig(rec)
					ref, err := inventory.Replay(oracle[:k], invOpts)
					if err != nil {
						t.Fatalf("oracle replay of %d events: %v", k, err)
					}
					oracleSig[k] = stateSig(ref)
				}
				if diskSig[k] != oracleSig[k] {
					t.Fatalf("offset %d (prefix %d): recovered state diverges from oracle:\n got %s\nwant %s",
						off, k, diskSig[k], oracleSig[k])
				}
			}
			// Sanity: the full-length prefix equals the live final state.
			if full := len(oracle); diskSig[full] != stateSig(inv) {
				t.Fatalf("full recovery differs from live state")
			}
		})
	}
}

// TestCrashInjectionAfterSnapshot runs the same every-byte-offset sweep
// over the log tail BEHIND a snapshot, with repair enabled — the leader
// boot path: recovery loads the snapshot, replays the surviving tail,
// truncates the torn frame, and the result must equal the oracle replay
// of the corresponding full event prefix. 16 seeds run at MinSlotLength 1
// and 8 more at 7 and 30.
func TestCrashInjectionAfterSnapshot(t *testing.T) {
	const seeds, shortSeeds = 16, 8
	for seed := uint64(1); seed <= seeds+shortSeeds; seed++ {
		seed := seed
		invOpts := inventory.Options{MinSlotLength: crashMinLen(seed, seeds)}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			list := testkit.RandomList(randx.New(seed*77), 6, 3, 300)
			if len(list) == 0 {
				t.Skip("empty instance")
			}
			inv, store := seedFlat(t, dir, list, inventory.Options{MinSlotLength: invOpts.MinSlotLength, Record: true}, Options{NoSync: true})
			drive(t, inv, seed, 8)
			if err := store.Snapshot(inv.ExportState()); err != nil {
				t.Fatal(err)
			}
			snapSeq := inv.ExportState().Seq
			drive(t, inv, seed+500, 8)
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
			oracle := inv.Journal()

			segs, err := listSegments(dir)
			if err != nil || len(segs) == 0 {
				t.Fatalf("no segments: %v", err)
			}
			seg := segs[len(segs)-1].path
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}

			// Every byte offset of the post-snapshot tail is a distinct
			// crash to sweep. Cuts in the snapshot-covered region all
			// recover to the identical snapshot-only state, so that region
			// is sampled at frame boundaries plus mid-frame cuts instead.
			bounds := frameBoundaries(t, data)
			tailStart := bounds[snapSeq] // frames 1..snapSeq precede the tail
			var offsets []int64
			for off := int64(len(data)); off >= tailStart; off-- {
				offsets = append(offsets, off)
			}
			for i := uint64(0); i < snapSeq; i++ {
				offsets = append(offsets, bounds[i])
				if mid := bounds[i] + (bounds[i+1]-bounds[i])/2; mid > bounds[i] {
					offsets = append(offsets, mid, bounds[i]+1, bounds[i+1]-1)
				}
			}

			sigByK := map[uint64]string{}
			for _, off := range offsets {
				// Repair may have truncated the file below off already, and
				// extending via os.Truncate would zero-fill — rewrite the
				// exact crash image instead.
				if err := os.WriteFile(seg, data[:off], 0o644); err != nil {
					t.Fatal(err)
				}
				res, err := Recover(dir, true)
				if err != nil {
					t.Fatalf("offset %d: %v", off, err)
				}
				if res.State == nil || res.State.Seq != snapSeq {
					t.Fatalf("offset %d: snapshot not used (state=%v)", off, res.State)
				}
				if res.LastSeq < snapSeq {
					t.Fatalf("offset %d: LastSeq %d went behind the snapshot %d", off, res.LastSeq, snapSeq)
				}
				// Equal recovered prefixes rebuild equal states (recovery is
				// deterministic), so rebuild+diff runs once per distinct
				// prefix while every offset still runs the on-disk recovery.
				if _, seen := sigByK[res.LastSeq]; !seen {
					rec, err := rebuild(res, invOpts)
					if err != nil {
						t.Fatalf("offset %d: rebuild: %v", off, err)
					}
					ref, err := inventory.Replay(oracle[:res.LastSeq], invOpts)
					if err != nil {
						t.Fatal(err)
					}
					sigByK[res.LastSeq] = stateSig(ref)
					if got := stateSig(rec); got != sigByK[res.LastSeq] {
						t.Fatalf("offset %d: state diverges from oracle at seq %d:\n got %s\nwant %s",
							off, res.LastSeq, got, sigByK[res.LastSeq])
					}
				}
			}
		})
	}
}
