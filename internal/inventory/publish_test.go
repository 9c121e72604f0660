package inventory

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"slotsel/internal/baseline"
	"slotsel/internal/core"
	"slotsel/internal/csa"
	"slotsel/internal/job"
	"slotsel/internal/obs"
	"slotsel/internal/randx"
	"slotsel/internal/slots"
	"slotsel/internal/testkit"
)

// This file tests publication by edit: what a mutation costs (flat in the
// pool size), when a version's flat Snapshot is built (once, on the first
// Snapshot() call, and never for a version only searches read), and that
// the published sequence, the per-node index, the from-scratch oracle and a
// search of the flat list stay one pool.

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
			t.Fatalf("version %d was flattened though nobody read it", p.view.Version)
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

// TestShardedUnreadVersionAllocs is TestUnreadVersionAllocs for the router:
// an assembly that only searches and bookings read — Reserve, the find
// cache, a Find over Latest — is never flattened, so a booking cycle that
// assembles three versions allocates less than one flat merged list; a
// reader of Pool.Snapshot() pays one flat list for the version it reads,
// however often it reads it.
func TestShardedUnreadVersionAllocs(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	list, req := testkit.DeepPool(1200)
	pool, err := NewSharded(list, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewFindCache(pool, 8)
	key, search := NewCacheKey(&req, "AMP"), cacheSearch(core.AMP{}, &req)
	flat := float64(8 * pool.Status().FreeSlots)
	cycle := func() {
		res, err := pool.Reserve(&req, core.AMP{}, time.Hour)
		if err != nil {
			t.Fatalf("reserve: %v", err)
		}
		if _, _, err := cache.Find(key, search); err != nil {
			t.Fatalf("cached find: %v", err)
		}
		if err := pool.Release(res.ID); err != nil {
			t.Fatalf("release: %v", err)
		}
		if _, err := Latest(pool).Find(core.AMP{}, &req, nil); err != nil {
			t.Fatalf("find: %v", err)
		}
	}

	var unread []*combined
	unreadCost := bytesPerRun(20, func() {
		cycle()
		unread = append(unread, pool.cur.Load())
	})
	if unreadCost > flat {
		t.Errorf("a cycle nobody flattens allocates %.0f B; one flat list is %.0f B", unreadCost, flat)
	}
	for _, c := range unread {
		if c.snap != nil {
			t.Fatalf("assembly %d was flattened though nobody asked for its list", c.view.Version)
		}
	}

	readCost := bytesPerRun(20, func() {
		cycle()
		pool.Snapshot()
		pool.Snapshot()
	})
	if extra := readCost - unreadCost; extra < 0.9*flat || extra > 1.2*flat {
		t.Errorf("reading the last assembly twice adds %.0f B to a cycle; want one flat list of %.0f B", extra, flat)
	}
}

// TestFallbackFindAllocs: an algorithm the scanner does not dispatch
// itself (ALP and FirstFit, which /v1/find accepts by name) walks the
// published sequence leaf by leaf too: a miss over a pool of several
// leaves, single or routed, allocates what the same miss over the flat
// list allocates (the algorithm's own visit closure), never a copy of the
// version.
func TestFallbackFindAllocs(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	list := testkit.RandomList(randx.New(43), 450, 6, 600)
	// More tasks than nodes: the scan walks every slot and never visits.
	req := &job.Request{TaskCount: 451, Volume: 40}
	for _, shards := range []int{1, 4} {
		var p Pool
		var err error
		if shards == 1 {
			p, err = New(list, Options{})
		} else {
			p, err = NewSharded(list, Options{Shards: shards})
		}
		if err != nil {
			t.Fatal(err)
		}
		view := Latest(p)
		leaves := 0
		for cur := view.seq.Cursor(); cur.Next() != nil; {
			leaves++
		}
		if leaves < 2 {
			t.Fatalf("shards=%d: the view is %d leaf of %d slots", shards, leaves, view.Len())
		}
		byHand := &Snapshot{Slots: p.Snapshot().Slots}
		flat := float64(8 * view.Len())
		for _, alg := range []core.Algorithm{baseline.ALP{}, baseline.FirstFit{}} {
			if _, err := view.Find(alg, req, nil); !errors.Is(err, core.ErrNoWindow) {
				t.Fatalf("shards=%d %s: %v, want no window", shards, alg.Name(), err)
			}
			overView := testing.AllocsPerRun(50, func() { view.Find(alg, req, nil) })
			overList := testing.AllocsPerRun(50, func() { byHand.Find(alg, req, nil) })
			if overView != overList {
				t.Errorf("shards=%d %s: a miss allocates %v times over the view, %v over the flat list", shards, alg.Name(), overView, overList)
			}
			if b := bytesPerRun(50, func() { view.Find(alg, req, nil) }); b > flat/4 {
				t.Errorf("shards=%d %s: a miss over the view allocates %.0f B; one flat list is %.0f B", shards, alg.Name(), b, flat)
			}
		}
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

// TestSequenceSearchMatchesSnapshotSearch: over a single pool and a 4-shard
// router, for every algorithm and for each CSA criterion (one per op), a
// search of the latest version as it was published — Latest(p), and through
// a FindCache — returns the window and the ScanStats that a search over
// Pool.Snapshot().Slots of the same version returns, across bookings, a
// Withdraw and an Add. The flat side is also what a snapshot built by hand
// from Slots alone searches.
func TestSequenceSearchMatchesSnapshotSearch(t *testing.T) {
	algs := []core.Algorithm{
		core.AMP{}, core.MinCost{}, core.MinRunTime{}, core.MinRunTime{Exact: true}, core.MinFinish{},
		core.MinFinish{Exact: true}, core.MinProcTime{Seed: 7}, core.MinProcTimeGreedy{}, core.MinEnergy{},
	}
	crits := []csa.Criterion{csa.ByStart, csa.ByFinish, csa.ByCost, csa.ByRuntime, csa.ByProcTime}
	sig := func(w *core.Window, err error) string {
		if err != nil {
			return err.Error()
		}
		return testkit.WindowSignature(w)
	}
	for _, shards := range []int{1, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			t.Parallel()
			rng := randx.New(41)
			list := testkit.RandomList(rng, 450, 6, 600)
			opts := Options{MinSlotLength: 1}
			var p Pool
			var err error
			if shards == 1 {
				p, err = New(list, opts)
			} else {
				opts.Shards = shards
				p, err = NewSharded(list, opts)
			}
			if err != nil {
				t.Fatal(err)
			}
			cache := NewFindCache(p, 64)
			for op := 0; op < 6; op++ {
				req := &job.Request{TaskCount: rng.IntRange(1, 4), Volume: float64(rng.IntRange(20, 90)), MaxCost: 4000}
				switch op {
				case 3:
					if _, err := p.Withdraw(list[rng.Intn(len(list))].Node.ID); err != nil {
						t.Fatal(err)
					}
				case 4:
					n := testkit.Node(9000, 5, 1)
					if err := p.Add(testkit.SlotList(testkit.Slot(n, 10, 400))); err != nil {
						t.Fatal(err)
					}
				default:
					if res, err := p.Reserve(req, core.AMP{}, time.Hour); err == nil && rng.Intn(2) == 0 {
						p.Release(res.ID)
					}
				}
				view, snap := Latest(p), p.Snapshot()
				if view.Slots != nil || view.Version != snap.Version || view.Len() != len(snap.Slots) {
					t.Fatalf("op %d: Latest is version %d of %d slots (Slots set: %v), Snapshot() version %d of %d",
						op, view.Version, view.Len(), view.Slots != nil, snap.Version, len(snap.Slots))
				}
				leaves := 0
				for cur := view.seq.Cursor(); cur.Next() != nil; {
					leaves++
				}
				if leaves < 2 {
					t.Fatalf("op %d: the view is %d leaf of %d slots; the search must cross a leaf boundary", op, leaves, view.Len())
				}
				byHand := &Snapshot{Version: snap.Version, Slots: snap.Slots, MinSlotLength: snap.MinSlotLength}
				// compare runs a search over the view and over the flat list,
				// with ScanStats, and the same search through the cache. An AEP
				// search is one scan; CSA runs one per alternative.
				compare := func(name string, oneScan bool, search func(*Snapshot, obs.Collector) (*core.Window, error)) {
					var overView, overList obs.Stats
					got, want := sig(search(view, &overView)), sig(search(byHand, &overList))
					if got != want {
						t.Errorf("op %d %s: window over the view %s, over the flat list %s", op, name, got, want)
					}
					g, w := overView.Snapshot().Scan, overList.Snapshot().Scan
					if g != w || g.Scans == 0 || (oneScan && g.Scans != 1) {
						t.Errorf("op %d %s: ScanStats %+v over the view, %+v over the flat list", op, name, g, w)
					}
					cached, at, err := cache.Find(NewCacheKey(req, name), func(s *Snapshot) (*core.Window, error) {
						return search(s, nil)
					})
					if at.Version != snap.Version {
						t.Fatalf("op %d %s: the cache searched version %d, not %d", op, name, at.Version, snap.Version)
					}
					if got := sig(cached, err); got != want {
						t.Errorf("op %d %s: cached window %s, over the flat list %s", op, name, got, want)
					}
				}
				for _, alg := range algs {
					compare(alg.Name(), true, func(s *Snapshot, col obs.Collector) (*core.Window, error) {
						r := *req
						return s.Find(alg, &r, col)
					})
				}
				// One criterion per op, in turn: the alternatives a criterion
				// picks from are the same scans for all five.
				crit := crits[op%len(crits)]
				compare("csa:"+crit.String(), false, func(s *Snapshot, col obs.Collector) (*core.Window, error) {
					r := *req
					return s.BestAlternative(&r, crit, 0, col)
				})
			}
		})
	}
}
