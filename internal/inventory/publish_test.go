package inventory

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"slotsel/internal/core"
	"slotsel/internal/job"
	"slotsel/internal/obs"
	"slotsel/internal/randx"
	"slotsel/internal/slots"
	"slotsel/internal/testkit"
)

// This file tests publication by edit: what a mutation costs (flat in the
// pool size), when a version's flat Snapshot is built (once, on first
// read, and never for a version nobody reads), and that the published
// sequence, the per-node index and the from-scratch oracle stay one pool.

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes one
// call of f allocates, after a warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	f()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// deepInventory is the book_deep pool at the given horizon, with the
// reserve→release cycle that workload runs on it.
func deepInventory(t testing.TB, horizon float64) (inv *Inventory, cycle func()) {
	list, req := testkit.DeepPool(horizon)
	inv, err := New(list, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return inv, func() {
		res, err := inv.Reserve(&req, core.AMP{}, time.Hour)
		if err != nil {
			t.Fatalf("reserve: %v", err)
		}
		if err := inv.Release(res.ID); err != nil {
			t.Fatalf("release: %v", err)
		}
	}
}

// TestPublishAllocsFlatInPoolSize gates O(touched) publication: a
// Reserve→Release cycle on a 48 k-slot pool may allocate at most 1.5x the
// bytes it allocates on a 6 k-slot pool. Republishing the whole list, as
// every mutation once did, costs 8 bytes per free slot twice a cycle —
// 7x between these two pools.
func TestPublishAllocsFlatInPoolSize(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	inv6k, cycle6k := deepInventory(t, 600)
	inv48k, cycle48k := deepInventory(t, 6000)
	small, deep := bytesPerRun(50, cycle6k), bytesPerRun(50, cycle48k)
	t.Logf("%d slots: %.0f B/cycle; %d slots: %.0f B/cycle", inv6k.Status().FreeSlots, small, inv48k.Status().FreeSlots, deep)
	if deep > 1.5*small {
		t.Errorf("a cycle allocates %.0f B on the deep pool, %.0f B on the small one: more than 1.5x", deep, small)
	}
}

// TestUnreadVersionAllocs: a version that is superseded before anyone
// calls Snapshot() is never flattened — a booking cycle publishes two
// versions and allocates less than one flat list would take — while a
// reader pays for exactly the versions it reads.
func TestUnreadVersionAllocs(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	inv, cycle := deepInventory(t, 6000)
	flat := float64(8 * inv.Status().FreeSlots)

	var unread []*published
	if got := bytesPerRun(20, func() {
		cycle()
		unread = append(unread, inv.pub.Load())
	}); got > flat/2 {
		t.Errorf("a cycle nobody reads allocates %.0f B; one flat list is %.0f B", got, flat)
	}
	cycle()
	for _, p := range unread {
		if p.snap != nil {
			t.Fatalf("version %d was flattened though nobody read it", p.version)
		}
	}

	if got := bytesPerRun(20, func() {
		cycle()
		inv.Snapshot()
		inv.Snapshot()
	}); got < flat || got > 2*flat {
		t.Errorf("a cycle whose last version is read twice allocates %.0f B; want one flat list of %.0f B and little else", got, flat)
	}
}

// TestSnapshotFlattensOncePerVersion: Snapshot() called from many
// goroutines on a fresh version returns one shared list, equal to the
// from-scratch free list.
func TestSnapshotFlattensOncePerVersion(t *testing.T) {
	inv, cycle := deepInventory(t, 600)
	for round := 0; round < 5; round++ {
		cycle()
		snaps := make([]*Snapshot, 8)
		var wg sync.WaitGroup
		for g := range snaps {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				snaps[g] = inv.Snapshot()
			}(g)
		}
		wg.Wait()
		for g, s := range snaps {
			if s != snaps[0] {
				t.Fatalf("round %d: goroutine %d got its own Snapshot of version %d", round, g, s.Version)
			}
		}
		if got, want := freeSignature(snaps[0].Slots), inv.oracleSignature(); got != want {
			t.Fatalf("round %d: the flattened snapshot is not freeLocked()", round)
		}
		if st := inv.Status(); st.Version != snaps[0].Version || st.FreeSlots != len(snaps[0].Slots) || st.FreeSpan != snaps[0].Slots.TotalSpan() {
			t.Fatalf("round %d: Status %+v disagrees with snapshot version %d (%d slots, span %v)",
				round, st, snaps[0].Version, len(snaps[0].Slots), snaps[0].Slots.TotalSpan())
		}
	}
}

// TestStatusReadsOneVersionUnderMutation: Status() takes its free figures
// from the sequence of the version it reports, outside the mutex. Four
// mutators each add one-slot nodes, so version v holds exactly
// v - v0 + n0 slots of equal length — whatever the interleaving — and a
// Status that mixed two versions would show.
func TestStatusReadsOneVersionUnderMutation(t *testing.T) {
	inv, err := New(twoNodeList(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	first := inv.Status()
	const mutators, adds, length = 4, 150, 16.0
	base := first.FreeSpan - length*float64(first.FreeSlots) // twoNodeList's own two slots are longer than the added ones
	var wg sync.WaitGroup
	for m := 0; m < mutators; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				n := testkit.Node(1000+m*adds+i, 4, 1)
				if err := inv.Add(testkit.SlotList(testkit.Slot(n, 0, length))); err != nil {
					t.Error(err)
				}
			}
		}(m)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for checked := 0; ; checked++ {
		st := inv.Status()
		wantSlots := first.FreeSlots + int(st.Version-first.Version)
		if st.FreeSlots != wantSlots || st.FreeSpan != base+length*float64(wantSlots) {
			t.Fatalf("Status reports version %d with %d slots, span %v; that version has %d slots, span %v",
				st.Version, st.FreeSlots, st.FreeSpan, wantSlots, base+length*float64(wantSlots))
		}
		select {
		case <-done:
			if last := inv.Status(); last.Version != first.Version+mutators*adds {
				t.Fatalf("ended on version %d, want %d", last.Version, first.Version+mutators*adds)
			}
			t.Logf("%d Status reads raced %d publications", checked+1, mutators*adds)
			return
		default:
		}
	}
}

// TestPublishedSequenceMatchesOracleAcrossLeaves is the index differential
// on pools deep enough to span several leaves (the 64-seed suites run on
// pools of one leaf): after every mutation the flattened sequence is
// freeLocked() slot for slot, and it holds the very slots the per-node
// index holds.
func TestPublishedSequenceMatchesOracleAcrossLeaves(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := randx.New(seed)
			inv, err := New(testkit.RandomList(rng, 1000, 6, 600), Options{MinSlotLength: 1})
			if err != nil {
				t.Fatal(err)
			}
			var held []string
			for op := 0; op < 150; op++ {
				held = churnStep(t, inv, rng, held)
				snap := inv.Snapshot()
				if got, want := freeSignature(snap.Slots), inv.oracleSignature(); got != want {
					t.Fatalf("op %d: published sequence diverged from the oracle", op)
				}
				inv.mu.Lock()
				indexed := make(map[*slots.Slot]bool)
				for _, free := range inv.free {
					for _, s := range free {
						indexed[s] = true
					}
				}
				inv.mu.Unlock()
				if len(indexed) != len(snap.Slots) {
					t.Fatalf("op %d: the index holds %d slots, the sequence %d", op, len(indexed), len(snap.Slots))
				}
				for _, s := range snap.Slots {
					if !indexed[s] {
						t.Fatalf("op %d: %v is published but not the index's slot", op, s)
					}
				}
			}
			if n := inv.Status().FreeSlots; n < 1200 { // leaves hold a few hundred slots
				t.Fatalf("a pool of %d slots does not span several leaves", n)
			}
		})
	}
}

// TestSequenceSearchMatchesSnapshotSearch: for every algorithm, the search
// a reservation runs over the published sequence returns the window and
// the ScanStats that a search over Snapshot().Slots of the same version
// returns. (The router searches its merged Snapshot().Slots itself.)
func TestSequenceSearchMatchesSnapshotSearch(t *testing.T) {
	algs := []core.Algorithm{
		core.AMP{}, core.MinCost{}, core.MinRunTime{}, core.MinRunTime{Exact: true}, core.MinFinish{},
		core.MinFinish{Exact: true}, core.MinProcTime{Seed: 7}, core.MinProcTimeGreedy{}, core.MinEnergy{},
	}
	rng := randx.New(41)
	inv, err := New(testkit.RandomList(rng, 450, 6, 600), Options{MinSlotLength: 1})
	if err != nil {
		t.Fatal(err)
	}
	sc := core.NewScanner()
	for op := 0; op < 4; op++ {
		req := &job.Request{TaskCount: rng.IntRange(1, 4), Volume: float64(rng.IntRange(20, 90)), MaxCost: 4000}
		if res, err := inv.Reserve(req, core.AMP{}, time.Hour); err == nil && rng.Intn(2) == 0 {
			inv.Release(res.ID)
		}
		cur, snap := inv.freeCursor(), inv.Snapshot()
		if len(cur.List()) != len(snap.Slots) {
			t.Fatalf("op %d: sequence and snapshot are different versions", op)
		}
		for _, alg := range algs {
			var overSeq, overList obs.Stats
			r1, r2 := *req, *req
			sig := func(w *core.Window, err error) string {
				if err != nil {
					return err.Error()
				}
				return testkit.WindowSignature(w)
			}
			got := sig(sc.Find(alg, cur, &r1, &overSeq))
			want := sig(sc.Find(alg, snap.Slots.Cursor(), &r2, &overList))
			if got != want {
				t.Errorf("op %d %s: window over the sequence %s, over the snapshot %s", op, alg.Name(), got, want)
			}
			if g, w := overSeq.Snapshot().Scan, overList.Snapshot().Scan; g != w || g.Scans != 1 {
				t.Errorf("op %d %s: ScanStats %+v over the sequence, %+v over the snapshot", op, alg.Name(), g, w)
			}
		}
	}
}
