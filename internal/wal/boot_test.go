package wal

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"strings"
	"testing"
	"time"

	"slotsel/internal/inventory"
	"slotsel/internal/randx"
	"slotsel/internal/slots"
	"slotsel/internal/testkit"
)

// noSeed is the seed of a boot that must recover: a directory with no
// state fails it.
func noSeed() (slots.List, error) { return nil, errors.New("wal: no state to recover") }

// seedFlat boots a flat WAL in dir, seeded with list if dir is fresh, and
// returns the inventory and the store that journals it.
func seedFlat(t testing.TB, dir string, list slots.List, invOpts inventory.Options, walOpts Options) (*inventory.Inventory, *Store) {
	t.Helper()
	stack, err := Boot(dir, func() (slots.List, error) { return list, nil }, invOpts, walOpts)
	if err != nil {
		t.Fatal(err)
	}
	return stack.Shards[0], stack.Stores[0]
}

// TestBoot: a fresh directory is seeded by one call of seed, Stores[i]
// journals Shards[i], a boot at another shard count is refused without
// calling seed or changing a file, a reboot recovers the same free list
// without calling seed, and after Snapshot and Close a reboot replays
// nothing — flat and at 4 shards. A flat boot of the sharded layout names
// the shard subdirectory it found: before that check, Open found no flat
// log there and seeded one beside the shards.
func TestBoot(t *testing.T) {
	list := testkit.RandomList(randx.New(3), 12, 3, 300)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			invOpts := inventory.Options{MinSlotLength: 1, Shards: shards}
			seeds := 0
			seed := func() (slots.List, error) {
				seeds++
				return list, nil
			}
			stack, err := Boot(dir, seed, invOpts, Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			if seeds != 1 || stack.Results != nil {
				t.Fatalf("fresh boot: seed called %d times, results %v; want once and nil", seeds, stack.Results)
			}
			if len(stack.Stores) != shards || len(stack.Shards) != shards || stack.Pool.Shards() != shards {
				t.Fatalf("%d stores, %d shards, a pool of %d shards; want %d of each", len(stack.Stores), len(stack.Shards), stack.Pool.Shards(), shards)
			}
			drive(t, stack.Pool, 3, 60)
			for i, st := range stack.Stores {
				if got, want := st.Stats().AppendedSeq, stack.Shards[i].Seq(); got != want {
					t.Fatalf("store %d appended seq %d, shard %d is at seq %d", i, got, i, want)
				}
			}
			want := fmt.Sprint(stack.Pool.Snapshot().Slots)
			if err := stack.Close(); err != nil {
				t.Fatal(err)
			}

			was := readTree(t, dir)
			for _, other := range map[int][]int{1: {4}, 4: {1, 2}}[shards] {
				_, err := Boot(dir, seed, inventory.Options{Shards: other}, Options{NoSync: true})
				if err == nil || (other == 1 && !strings.Contains(err.Error(), ShardDirName(0))) {
					t.Errorf("the %d-shard directory booted at %d shards: error %v", shards, other, err)
				}
			}
			if !maps.EqualFunc(readTree(t, dir), was, bytes.Equal) {
				t.Error("a refused boot changed the directory")
			}

			re, err := Boot(dir, seed, invOpts, Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			if seeds != 1 || len(re.Results) != shards {
				t.Fatalf("reboot: seed called %d times in all, %d results; want once and %d", seeds, len(re.Results), shards)
			}
			if got := fmt.Sprint(re.Pool.Snapshot().Slots); got != want {
				t.Errorf("reboot free list\n%s\nwant\n%s", got, want)
			}
			if err := re.Snapshot(); err != nil {
				t.Fatal(err)
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}

			again, err := Boot(dir, noSeed, invOpts, Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer again.Close()
			for i, res := range again.Results {
				if len(res.Events) != 0 {
					t.Errorf("store %d replayed %d events after a parting snapshot, want 0", i, len(res.Events))
				}
			}
		})
	}
}

// TestBootSeedError: a failing seed is Boot's error, in memory and on
// disk, and every store Boot opened for the seeding is closed again — a
// store left open keeps its writer goroutine.
func TestBootSeedError(t *testing.T) {
	errSeed := errors.New("no slots")
	failing := func() (slots.List, error) { return nil, errSeed }
	for _, shards := range []int{1, 4} {
		for _, dir := range []string{"", t.TempDir()} {
			before := runtime.NumGoroutine()
			if _, err := Boot(dir, failing, inventory.Options{Shards: shards}, Options{NoSync: true}); !errors.Is(err, errSeed) {
				t.Fatalf("shards=%d, dir %q: Boot error %v, want the seed's", shards, dir, err)
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("shards=%d: %d goroutines after the failed boot, %d before: a store was left open", shards, runtime.NumGoroutine(), before)
				}
			}
		}
	}
}
