package inventory

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"slotsel/internal/core"
	"slotsel/internal/job"
	"slotsel/internal/randx"
	"slotsel/internal/slots"
	"slotsel/internal/testkit"
)

// cacheSearch binds an algorithm into the FindCache search callback: a
// search of the version the cache hands it, as that version was published.
func cacheSearch(alg core.Algorithm, req *job.Request) func(*Snapshot) (*core.Window, error) {
	return func(snap *Snapshot) (*core.Window, error) {
		return snap.Find(alg, req, nil)
	}
}

// signatureBytes is the encoding the tests hand FindEncoded: recognisably
// one window's.
func signatureBytes(w *core.Window) ([]byte, error) {
	return []byte(testkit.WindowSignature(w)), nil
}

// oracleFind is the stateless full scan the cached path is compared to:
// the algorithm over the snapshot's version as one flat list.
func oracleFind(alg core.Algorithm, snap *Snapshot, req *job.Request) (*core.Window, error) {
	return alg.Find(flatList(snap), req)
}

// flatList is the snapshot's version as one list, whichever form the
// snapshot carries: Slots on a Pool.Snapshot(), the flattened sequence on
// a search view.
func flatList(snap *Snapshot) slots.List {
	if snap.seq == nil {
		return snap.Slots
	}
	return snap.seq.Flatten()
}

// requestShapes builds a deterministic pool of request shapes, some with
// deadlines (bounded horizons — the interesting cache-validity case) and
// some without.
func requestShapes(rng *randx.Rand, n int) []*job.Request {
	reqs := make([]*job.Request, n)
	for i := range reqs {
		reqs[i] = &job.Request{
			TaskCount: rng.IntRange(1, 3),
			Volume:    float64(rng.IntRange(20, 60)),
			MaxCost:   5000,
		}
		if rng.Intn(2) == 0 {
			reqs[i].Deadline = rng.FloatRange(50, 300)
		}
	}
	return reqs
}

// TestFindCacheDifferential is the cached-path acceptance suite: across
// 64 seeds of interleaved churn, every result the cache serves (hit or
// miss, window or no-window) must equal a fresh stateless full scan of
// the snapshot returned alongside it — for multiple algorithms and both
// bounded and unbounded horizons.
func TestFindCacheDifferential(t *testing.T) {
	const seeds = 64
	algs := []core.Algorithm{core.AMP{}, core.MinCost{}, core.MinFinish{}}
	for seed := uint64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := randx.New(seed)
			list := testkit.RandomList(rng, 12, 3, 300)
			if len(list) == 0 {
				t.Skip("empty instance")
			}
			inv, err := New(list, Options{MinSlotLength: 1})
			if err != nil {
				t.Fatal(err)
			}
			cache := NewFindCache(inv, 64)
			reqs := requestShapes(rng, 6)
			var held []string
			for op := 0; op < 150; op++ {
				if rng.Intn(3) == 0 {
					held = churnStep(t, inv, rng, held)
				}
				req := reqs[rng.Intn(len(reqs))]
				alg := algs[rng.Intn(len(algs))]
				win, snap, err := cache.Find(NewCacheKey(req, alg.Name()), cacheSearch(alg, req))
				want, werr := oracleFind(alg, snap, req)
				if (err != nil) != (werr != nil) || (err != nil && !errors.Is(err, core.ErrNoWindow)) {
					t.Fatalf("op %d: cache err %v, oracle err %v", op, err, werr)
				}
				if err != nil {
					continue
				}
				if got, wantSig := testkit.WindowSignature(win), testkit.WindowSignature(want); got != wantSig {
					st := cache.Stats()
					t.Fatalf("op %d (alg %s, deadline %g, stats %+v): cached window differs from oracle\ncached: %s\noracle: %s",
						op, alg.Name(), req.Deadline, st, got, wantSig)
				}
			}
			st := cache.Stats()
			if st.Hits == 0 {
				t.Errorf("suite never hit the cache (stats %+v); the hit path went untested", st)
			}
		})
	}
}

// TestFindCacheConcurrentChurn is the adversarial suite: goroutines
// hammer the cached Find path while others churn the pool under -race.
// Every served result must equal a fresh full scan of its returned
// (immutable) snapshot — which also proves no served window ever
// overlaps a span that was committed or withdrawn as of that snapshot,
// since the full scan only places work on free capacity.
func TestFindCacheConcurrentChurn(t *testing.T) {
	const (
		seeds   = 8
		finders = 6
		ops     = 60
	)
	algs := []core.Algorithm{core.AMP{}, core.MinCost{}}
	for seed := uint64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := randx.New(seed)
			list := testkit.RandomList(rng, 12, 3, 300)
			if len(list) == 0 {
				t.Skip("empty instance")
			}
			inv, err := New(list, Options{MinSlotLength: 1})
			if err != nil {
				t.Fatal(err)
			}
			cache := NewFindCache(inv, 64)
			reqs := requestShapes(rng, 5)

			var wg sync.WaitGroup
			stop := make(chan struct{})
			wg.Add(1)
			go func() { // churn actor
				defer wg.Done()
				crng := randx.New(seed * 7)
				var held []string
				for i := 0; i < ops*2; i++ {
					held = churnStep(t, inv, crng, held)
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
			for g := 0; g < finders; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					frng := randx.New(seed*100 + uint64(g))
					for i := 0; i < ops; i++ {
						req := reqs[frng.Intn(len(reqs))]
						alg := algs[frng.Intn(len(algs))]
						win, enc, snap, err := cache.FindEncoded(NewCacheKey(req, alg.Name()), cacheSearch(alg, req), signatureBytes)
						want, werr := oracleFind(alg, snap, req)
						if (err != nil) != (werr != nil) {
							t.Errorf("finder %d op %d: cache err %v, oracle err %v", g, i, err, werr)
							return
						}
						if err != nil {
							continue
						}
						if enc != nil && string(enc) != testkit.WindowSignature(win) {
							t.Errorf("finder %d op %d: a hit's encoding %q is not its window's, %s", g, i, enc, testkit.WindowSignature(win))
							return
						}
						if got, wantSig := testkit.WindowSignature(win), testkit.WindowSignature(want); got != wantSig {
							t.Errorf("finder %d op %d: cached window diverged at version %d\ncached: %s\noracle: %s",
								g, i, snap.Version, got, wantSig)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(stop)
		})
	}
}

// TestFindCacheServesStaleEntryAcrossDisjointChurn pins the hit
// mechanics: churn strictly beyond a deadline-bounded horizon must not
// invalidate the entry (the hit counter advances), while churn inside
// the horizon must (the entry is re-computed).
func TestFindCacheServesStaleEntryAcrossDisjointChurn(t *testing.T) {
	n1 := testkit.Node(1, 4, 1)
	n2 := testkit.Node(2, 8, 1) // higher perf: MinPerf pins churn here
	inv, err := New(testkit.SlotList(
		testkit.Slot(n1, 0, 100),
		testkit.Slot(n2, 200, 300), // beyond the deadline horizon
	), Options{MinSlotLength: 1})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewFindCache(inv, 8)
	req := &job.Request{TaskCount: 1, Volume: 40, MaxCost: 5000, Deadline: 100}
	key := NewCacheKey(req, "AMP")

	w1, _, err := cache.Find(key, cacheSearch(core.AMP{}, req))
	if err != nil {
		t.Fatal(err)
	}
	// Churn entirely beyond the horizon: reserve on node 2 at [200, 250).
	res, err := inv.Reserve(&job.Request{TaskCount: 1, Volume: 200, MaxCost: 5000, MinPerf: 8}, core.MinFinish{}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Window.Placements[0].Slot.Node.ID; got != 2 {
		t.Fatalf("setup: expected the far reservation on node 2, got node %d", got)
	}
	w2, snap, err := cache.Find(key, cacheSearch(core.AMP{}, req))
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != 1 {
		t.Fatalf("churn beyond the horizon must preserve the entry; stats %+v", st)
	}
	if testkit.WindowSignature(w1) != testkit.WindowSignature(w2) {
		t.Fatal("hit returned a different window")
	}
	if snap.Version == 1 {
		t.Fatal("hit must be served against the CURRENT snapshot version")
	}
	// Now churn inside the horizon: the entry must be invalidated.
	if _, err := inv.Reserve(req, core.AMP{}, time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cache.Find(key, cacheSearch(core.AMP{}, req)); err != nil && !errors.Is(err, core.ErrNoWindow) {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Invalidated != 1 {
		t.Fatalf("churn inside the horizon must invalidate; stats %+v", st)
	}
}

// TestFindCacheHitAllocs pins the cache-hit path at zero allocations:
// the steady state of a hot request shape against a quiet pool must cost
// a map lookup and a ring walk, nothing more.
func TestFindCacheHitAllocs(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	rng := randx.New(3)
	inv, err := New(testkit.RandomList(rng, 8, 3, 300), Options{MinSlotLength: 1})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewFindCache(inv, 8)
	req := &job.Request{TaskCount: 2, Volume: 40, MaxCost: 5000, Deadline: 200}
	key := NewCacheKey(req, "AMP")
	search := cacheSearch(core.AMP{}, req)
	if _, _, err := cache.Find(key, search); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := cache.Find(key, search); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("cache-hit path allocates %.1f objects per run, want 0", allocs)
	}
	if st := cache.Stats(); st.Hits < 200 {
		t.Fatalf("expected hits, stats %+v", st)
	}
}

// TestFindEncodedKeepsEncodingFromFirstHit pins when an entry's encoding
// exists: not on the miss (the caller encodes its own reply, and a window
// never asked for again is never held twice), made once on the first hit,
// handed back unchanged on every later one, dropped with the entry, never
// made for a no-window outcome, and not kept when encode fails.
func TestFindEncodedKeepsEncodingFromFirstHit(t *testing.T) {
	inv, err := New(testkit.SlotList(
		testkit.Slot(testkit.Node(0, 5, 1), 0, 200),
		testkit.Slot(testkit.Node(1, 4, 1), 0, 200),
	), Options{MinSlotLength: 1})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewFindCache(inv, 8)
	req := &job.Request{TaskCount: 2, Volume: 40, MaxCost: 5000}
	key := NewCacheKey(req, "AMP")
	encodes, fail := 0, false
	encode := func(w *core.Window) ([]byte, error) {
		encodes++
		if fail {
			return nil, errors.New("cannot encode")
		}
		return []byte(testkit.WindowSignature(w)), nil
	}
	find := func() (*core.Window, []byte, error) {
		win, enc, _, err := cache.FindEncoded(key, cacheSearch(core.AMP{}, req), encode)
		return win, enc, err
	}

	if win, enc, err := find(); err != nil || win == nil || enc != nil || encodes != 0 {
		t.Fatalf("miss: window %v, encoding %q, %d encodes, err %v; want a window and no encoding yet", win, enc, encodes, err)
	}
	fail = true
	if _, _, err := find(); err == nil || encodes != 1 {
		t.Fatalf("first hit with a failing encoder: err %v after %d encodes", err, encodes)
	}
	fail = false
	win, first, err := find()
	if err != nil || string(first) != testkit.WindowSignature(win) || encodes != 2 {
		t.Fatalf("first good hit: encoding %q for %s after %d encodes, err %v", first, testkit.WindowSignature(win), encodes, err)
	}
	for i := 0; i < 3; i++ {
		if _, enc, err := find(); err != nil || &enc[0] != &first[0] || encodes != 2 {
			t.Fatalf("later hit %d: a new encoding (%d encodes), err %v", i, encodes, err)
		}
	}
	if _, err := inv.Reserve(req, core.AMP{}, time.Minute); err != nil { // invalidates the entry
		t.Fatal(err)
	}
	if _, enc, err := find(); err != nil || enc != nil {
		t.Fatalf("after invalidation: encoding %q, err %v; want a fresh miss", enc, err)
	}

	none := &job.Request{TaskCount: 9, Volume: 40}
	for i := 0; i < 2; i++ {
		_, enc, _, err := cache.FindEncoded(NewCacheKey(none, "AMP"), cacheSearch(core.AMP{}, none), encode)
		if !errors.Is(err, core.ErrNoWindow) || enc != nil {
			t.Fatalf("no-window find %d: encoding %q, err %v", i, enc, err)
		}
	}
	if encodes != 2 {
		t.Fatalf("%d encodes in all, want 2", encodes)
	}
}
