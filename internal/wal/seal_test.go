package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"slotsel/internal/inventory"
	"slotsel/internal/randx"
	"slotsel/internal/testkit"
)

// readCountFS is the real filesystem counting the segments and snapshots
// opened for reading, by file name.
type readCountFS struct {
	osFS

	mu    sync.Mutex
	reads map[string]int
}

func (fs *readCountFS) OpenFile(name string, flag int, perm os.FileMode) (file, error) {
	if base := filepath.Base(name); flag == os.O_RDONLY && (strings.HasPrefix(base, "wal-") || strings.HasPrefix(base, "snap-")) {
		fs.mu.Lock()
		fs.reads[base]++
		fs.mu.Unlock()
	}
	return fs.osFS.OpenFile(name, flag, perm)
}

// sealedLeader builds a WAL-backed inventory in dir over a list of the
// given node count, with every snapshot sealing the active segment however
// small it is.
func sealedLeader(t *testing.T, dir string, seed uint64, nodes int, minLen float64, record bool) (*inventory.Inventory, *Store) {
	t.Helper()
	inv, store := seedFlat(t, dir, testkit.RandomList(randx.New(seed), nodes, 3, 300),
		inventory.Options{MinSlotLength: minLen, Record: record}, Options{NoSync: true})
	store.sealBytes = 1
	return inv, store
}

// TestBootReadsOnlyWhatTheSnapshotMisses: once a snapshot has sealed the
// segment it covers, a boot opens the snapshot and the segment after it,
// and nothing else. The pool is large enough that its construction event
// alone passes sealBytes, so the default threshold seals.
func TestBootReadsOnlyWhatTheSnapshotMisses(t *testing.T) {
	forMinLens(t, func(t *testing.T, minLen float64) {
		dir := t.TempDir()
		inv, store := seedFlat(t, dir, testkit.RandomList(randx.New(23), 400, 3, 300),
			inventory.Options{MinSlotLength: minLen}, Options{NoSync: true})
		drive(t, inv, 23, 40)
		segs, _ := listSegments(dir)
		if fi, err := os.Stat(segs[len(segs)-1].path); err != nil || fi.Size() < sealBytes {
			t.Fatalf("fixture broken: the active segment is under sealBytes (%v, %v)", fi, err)
		}
		if err := store.Snapshot(inv.ExportState()); err != nil {
			t.Fatal(err)
		}
		snapSeq := inv.ExportState().Seq
		drive(t, inv, 24, 40)
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		segs, _ = listSegments(dir)
		tail := segs[len(segs)-1]
		if len(segs) != 2 || tail.firstSeq != snapSeq+1 {
			t.Fatalf("snapshot at %d did not seal its segment: %v", snapSeq, segs)
		}

		fs := &readCountFS{reads: map[string]int{}}
		rec, store2, res, err := openFS(fs, dir, inventory.Options{MinSlotLength: minLen}, Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		defer store2.Close()
		want := map[string]int{snapshotName(snapSeq): 1, filepath.Base(tail.path): 1}
		if !reflect.DeepEqual(fs.reads, want) {
			t.Errorf("boot read %v, want %v", fs.reads, want)
		}
		if want := int(inv.ExportState().Seq - snapSeq); len(res.Events) != want {
			t.Errorf("boot decoded %d events, want the %d after the snapshot", len(res.Events), want)
		}
		if got, want := stateSig(rec), stateSig(inv); got != want {
			t.Fatalf("sealed recovery differs:\n got %s\nwant %s", got, want)
		}
	})
}

// TestSnapshotRacedByAppends: snapshots taken while eight clients mutate
// the pool seal segments at whatever boundary the writer reached, and the
// directory still recovers to the live state — from the newest snapshot,
// and from the older one kept when the newest is lost.
func TestSnapshotRacedByAppends(t *testing.T) {
	forMinLens(t, func(t *testing.T, minLen float64) {
		dir := t.TempDir()
		inv, store := sealedLeader(t, dir, 29, 12, minLen, false)
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for round := uint64(0); ; round++ {
					select {
					case <-stop:
						return
					default:
						drive(t, inv, uint64(300+g)+100*round, 5)
					}
				}
			}(g)
		}
		for i := 0; i < 6; i++ {
			if err := store.Snapshot(inv.ExportState()); err != nil {
				t.Fatal(err)
			}
		}
		close(stop)
		wg.Wait()
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		want := stateSig(inv)
		for round := 0; round < 2; round++ {
			rec, store2, res, err := Open(dir, inventory.Options{MinSlotLength: minLen}, Options{NoSync: true})
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if got := stateSig(rec); got != want {
				t.Fatalf("round %d: raced snapshots recover to\n%s\nwant\n%s", round, got, want)
			}
			if err := store2.Close(); err != nil {
				t.Fatal(err)
			}
			if round == 0 {
				// Lose the newest snapshot: the older one kept and the
				// segments compaction left behind it must still do.
				if res.State == nil {
					t.Fatal("no snapshot recovered")
				}
				if err := os.Remove(filepath.Join(dir, snapshotName(res.State.Seq))); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}

// TestCrashInjectionSealedTail is TestCrashInjectionAfterSnapshot over a
// sealed directory: the log tail lives in its own segment after the
// snapshot, and a crash at every byte offset of it recovers the snapshot
// plus the complete frames before the cut, equal to the oracle replay.
func TestCrashInjectionSealedTail(t *testing.T) {
	const seeds, shortSeeds = 8, 4
	for seed := uint64(1); seed <= seeds+shortSeeds; seed++ {
		seed := seed
		invOpts := inventory.Options{MinSlotLength: crashMinLen(seed, seeds)}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			inv, store := sealedLeader(t, dir, seed*91, 6, invOpts.MinSlotLength, true)
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
			if err != nil || len(segs) != 2 || segs[1].firstSeq != snapSeq+1 {
				t.Fatalf("want the sealed segment and one tail segment from %d, got %v (%v)", snapSeq+1, segs, err)
			}
			seg := segs[1].path
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			bounds := frameBoundaries(t, data)
			sigByK := map[uint64]string{}
			for off := int64(len(data)); off >= 0; off-- {
				if err := os.WriteFile(seg, data[:off], 0o644); err != nil {
					t.Fatal(err)
				}
				res, err := Recover(dir, true)
				if err != nil {
					t.Fatalf("offset %d: %v", off, err)
				}
				k := completeFrames(bounds, off)
				if res.State == nil || res.State.Seq != snapSeq || res.LastSeq != snapSeq+uint64(k) {
					t.Fatalf("offset %d: recovered to %d (snapshot %v), want %d", off, res.LastSeq, res.State, snapSeq+uint64(k))
				}
				if wantTorn := bounds[k] != off; res.Truncated != wantTorn {
					t.Fatalf("offset %d: Truncated=%v, want %v", off, res.Truncated, wantTorn)
				}
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
