package inventory

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"slotsel/internal/core"
	"slotsel/internal/csa"
	"slotsel/internal/job"
	"slotsel/internal/randx"
	"slotsel/internal/slots"
	"slotsel/internal/testkit"
)

// manualClock is the shared controlled clock of the differential suite:
// both pools read the same instant, and time only moves at explicit
// advance points (each immediately followed by a Sweep on both sides, so
// the per-mutation shard sweepers never observe an expiry the oracle has
// not also processed).
type manualClock struct {
	mu  sync.Mutex
	now time.Time
}

func newManualClock() *manualClock { return &manualClock{now: time.Unix(0, 0)} }

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// freeSig renders a free list value-by-value: the byte-identical claim of
// the merged snapshot is checked on this, not on pointer identity.
func freeSig(l slots.List) string {
	var b strings.Builder
	for _, s := range l {
		fmt.Fprintf(&b, "n%d:%x..%x;", s.Node.ID, s.Interval.Start, s.Interval.End)
	}
	return b.String()
}

// committedSig renders the committed map deterministically.
func committedSig(m map[string]*core.Window) string {
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var b strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&b, "%s{%s} ", id, testkit.WindowSignature(m[id]))
	}
	return b.String()
}

func winSigOrNil(w *core.Window) string {
	if w == nil {
		return "<nil>"
	}
	return testkit.WindowSignature(w)
}

// diffStep compares the full observable state of the two pools.
func diffStep(t *testing.T, step int, oracle, sharded Pool) {
	t.Helper()
	if o, s := freeSig(oracle.Snapshot().Slots), freeSig(sharded.Snapshot().Slots); o != s {
		t.Fatalf("step %d: free lists diverged\n oracle:  %s\n sharded: %s", step, o, s)
	}
	oh, sh := oracle.Holds(), sharded.Holds()
	if fmt.Sprint(oh) != fmt.Sprint(sh) {
		t.Fatalf("step %d: hold IDs diverged\n oracle:  %v\n sharded: %v", step, oh, sh)
	}
	if o, s := committedSig(oracle.Committed()), committedSig(sharded.Committed()); o != s {
		t.Fatalf("step %d: committed diverged\n oracle:  %s\n sharded: %s", step, o, s)
	}
}

func diffRequest(rng *randx.Rand) job.Request {
	req := job.Request{
		TaskCount: rng.IntRange(1, 4),
		Volume:    rng.FloatRange(20, 90),
		MaxCost:   rng.FloatRange(500, 20000),
	}
	if rng.Bernoulli(0.3) {
		req.Deadline = rng.FloatRange(300, 1800)
	}
	return req
}

// driveShardedDiff drives one oracle (unsharded) and one sharded pool
// through an identical randomized op sequence and requires byte-identical
// observable behavior at every step: search results, reservation IDs,
// windows and deadlines, free lists, hold sets and committed maps.
// Counters are deliberately not compared — per-shard counters count
// sub-operations (documented skew).
func driveShardedDiff(t *testing.T, seed uint64, nShards int, minSlotLength float64) {
	rng := randx.New(seed)
	list := testkit.RandomList(rng, 12, 4, 2000)
	clk := newManualClock()
	oracle, err := New(list, Options{MinSlotLength: minSlotLength, DefaultTTL: time.Hour, Clock: clk.Now})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	sharded, err := NewSharded(list, Options{
		MinSlotLength: minSlotLength, DefaultTTL: time.Hour, Clock: clk.Now, Shards: nShards,
	})
	if err != nil {
		t.Fatalf("sharded: %v", err)
	}
	if got := sharded.Shards(); got != nShards {
		t.Fatalf("Shards() = %d, want %d", got, nShards)
	}

	algs := []core.Algorithm{core.AMP{}, core.MinCost{}, core.MinFinish{}}
	crits := []csa.Criterion{csa.ByCost, csa.ByFinish, csa.ByStart}
	var live []string
	nextNode := 100 // fresh node IDs for Add steps

	for step := 0; step < 40; step++ {
		switch rng.Intn(12) {
		case 0, 1: // stateless find over both snapshots
			req := diffRequest(rng)
			alg := algs[rng.Intn(len(algs))]
			r1, r2 := req, req
			w1, e1 := core.FindObserved(alg, oracle.Snapshot().Slots.Cursor(), &r1, nil)
			w2, e2 := core.FindObserved(alg, sharded.Snapshot().Slots.Cursor(), &r2, nil)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("step %d: find err diverged: oracle %v, sharded %v", step, e1, e2)
			}
			if e1 == nil && testkit.WindowSignature(w1) != testkit.WindowSignature(w2) {
				t.Fatalf("step %d: find window diverged\n oracle:  %s\n sharded: %s",
					step, testkit.WindowSignature(w1), testkit.WindowSignature(w2))
			}
		case 2, 3, 4: // reserve
			req := diffRequest(rng)
			alg := algs[rng.Intn(len(algs))]
			ttl := time.Hour
			if rng.Bernoulli(0.4) {
				ttl = 10 * time.Second
			}
			r1, r2 := req, req
			res1, e1 := oracle.Reserve(&r1, alg, ttl)
			res2, e2 := sharded.Reserve(&r2, alg, ttl)
			if (e1 == nil) != (e2 == nil) || (e1 != nil && !errors.Is(e2, e1) && !errors.Is(e1, e2) && e1.Error() != e2.Error()) {
				t.Fatalf("step %d: reserve err diverged: oracle %v, sharded %v", step, e1, e2)
			}
			if e1 == nil {
				if res1.ID != res2.ID {
					t.Fatalf("step %d: reserve ID diverged: oracle %s, sharded %s", step, res1.ID, res2.ID)
				}
				if !res1.Expires.Equal(res2.Expires) {
					t.Fatalf("step %d: reserve expiry diverged: oracle %v, sharded %v", step, res1.Expires, res2.Expires)
				}
				if a, b := testkit.WindowSignature(res1.Window), testkit.WindowSignature(res2.Window); a != b {
					t.Fatalf("step %d: reserve window diverged\n oracle:  %s\n sharded: %s", step, a, b)
				}
				live = append(live, res1.ID)
			}
		case 5: // reserveBest (CSA extreme-by-criterion)
			req := diffRequest(rng)
			crit := crits[rng.Intn(len(crits))]
			r1, r2 := req, req
			res1, e1 := oracle.ReserveBest(&r1, crit, 4, time.Hour)
			res2, e2 := sharded.ReserveBest(&r2, crit, 4, time.Hour)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("step %d: reserveBest err diverged: oracle %v, sharded %v", step, e1, e2)
			}
			if e1 == nil {
				if res1.ID != res2.ID {
					t.Fatalf("step %d: reserveBest ID diverged: %s vs %s", step, res1.ID, res2.ID)
				}
				if a, b := testkit.WindowSignature(res1.Window), testkit.WindowSignature(res2.Window); a != b {
					t.Fatalf("step %d: reserveBest window diverged\n oracle:  %s\n sharded: %s", step, a, b)
				}
				live = append(live, res1.ID)
			}
		case 6: // commit a random live hold
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			id := live[i]
			live = append(live[:i], live[i+1:]...)
			w1, e1 := oracle.Commit(id)
			w2, e2 := sharded.Commit(id)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("step %d: commit(%s) err diverged: oracle %v, sharded %v", step, id, e1, e2)
			}
			if e1 == nil && winSigOrNil(w1) != winSigOrNil(w2) {
				t.Fatalf("step %d: commit(%s) window diverged\n oracle:  %s\n sharded: %s",
					step, id, winSigOrNil(w1), winSigOrNil(w2))
			}
		case 7: // release a random live hold
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			id := live[i]
			live = append(live[:i], live[i+1:]...)
			e1 := oracle.Release(id)
			e2 := sharded.Release(id)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("step %d: release(%s) err diverged: oracle %v, sharded %v", step, id, e1, e2)
			}
		case 8: // settle an already-dead ID: both must answer unknown
			id := fmt.Sprintf("r%08d", rng.IntRange(500, 600))
			_, e1 := oracle.Commit(id)
			_, e2 := sharded.Commit(id)
			if !errors.Is(e1, ErrUnknownReservation) || !errors.Is(e2, ErrUnknownReservation) {
				t.Fatalf("step %d: commit(dead %s): oracle %v, sharded %v", step, id, e1, e2)
			}
		case 9: // advance time and sweep both sides at the same instant
			clk.Advance(6 * time.Second)
			oracle.Sweep()
			sharded.Sweep()
			still := make(map[string]bool)
			for _, id := range oracle.Holds() {
				still[id] = true
			}
			kept := live[:0]
			for _, id := range live {
				if still[id] {
					kept = append(kept, id)
				}
			}
			live = kept
		case 10: // add fresh capacity
			n := testkit.Node(nextNode, rng.FloatRange(2, 9), rng.FloatRange(0.5, 3))
			nextNode++
			lo := rng.FloatRange(0, 500)
			add := testkit.SlotList(testkit.Slot(n, lo, lo+rng.FloatRange(50, 400)))
			e1 := oracle.Add(add)
			e2 := sharded.Add(add)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("step %d: add err diverged: oracle %v, sharded %v", step, e1, e2)
			}
		case 11: // withdraw a node (existing or not)
			nid := rng.Intn(14)
			c1, e1 := oracle.Withdraw(nid)
			c2, e2 := sharded.Withdraw(nid)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("step %d: withdraw(%d) err diverged: oracle %v, sharded %v", step, nid, e1, e2)
			}
			sort.Strings(c1)
			sort.Strings(c2)
			if fmt.Sprint(c1) != fmt.Sprint(c2) {
				t.Fatalf("step %d: withdraw(%d) cancelled diverged: oracle %v, sharded %v", step, nid, c1, c2)
			}
			still := make(map[string]bool)
			for _, id := range oracle.Holds() {
				still[id] = true
			}
			kept := live[:0]
			for _, id := range live {
				if still[id] {
					kept = append(kept, id)
				}
			}
			live = kept
		}
		diffStep(t, step, oracle, sharded)
	}
}

// TestShardedDifferential is the router's conformance gate: 60 seeds, each
// driven at shard counts 2, 4 and 8 against the unsharded oracle.
// Byte-identical Find/Reserve/ReserveBest outcomes, IDs, deadlines, free
// lists, hold sets and committed maps at every step. Twelve more seeds run
// with a MinSlotLength (30, 150) above the length of some base spans
// (1..1000 here) — CSA cuts, remainders and the merged free list must agree
// there too.
func TestShardedDifferential(t *testing.T) {
	for _, n := range []int{0, 1} {
		if _, err := NewSharded(nil, Options{Shards: n}); err == nil {
			t.Errorf("NewSharded accepted %d shards; a router needs at least 2", n)
		}
	}
	const seeds, shortSeeds = 60, 12
	for _, nShards := range []int{2, 4, 8} {
		nShards := nShards
		t.Run(fmt.Sprintf("shards=%d", nShards), func(t *testing.T) {
			for seed := uint64(1); seed <= seeds+shortSeeds; seed++ {
				minLen := 1.0
				if seed > seeds {
					minLen = []float64{30, 150}[seed%2]
				}
				driveShardedDiff(t, seed, nShards, minLen)
			}
		})
	}
}

// twoShardFixture builds a 2-shard pool with one wide slot on a node of
// each shard (node 0 hashes to shard 0, node 1 to shard 1) plus the same
// layout as an unsharded control.
func twoShardFixture(t *testing.T, clk *manualClock) (*Sharded, *slots.Slot, *slots.Slot) {
	t.Helper()
	if ShardOf(0, 2) == ShardOf(1, 2) {
		t.Fatal("fixture invariant broken: nodes 0 and 1 on one shard")
	}
	s0 := testkit.Slot(testkit.Node(0, 5, 1), 0, 100)
	s1 := testkit.Slot(testkit.Node(1, 4, 1), 0, 100)
	pool, err := NewSharded(testkit.SlotList(s0, s1), Options{
		MinSlotLength: 1, DefaultTTL: time.Hour, Clock: clk.Now, Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pool, s0, s1
}

func spanWindow(ss ...*slots.Slot) *core.Window {
	cands := make([]core.Candidate, 0, len(ss))
	for _, s := range ss {
		cands = append(cands, core.Candidate{Slot: s, Exec: 50, Cost: 50})
	}
	return core.NewWindow(0, cands)
}

// TestCrossShardReserveCommit exercises the two-phase happy path: one ID,
// sub-holds on both shards, a commit that settles both and returns the
// original discovery-order window.
func TestCrossShardReserveCommit(t *testing.T) {
	clk := newManualClock()
	pool, s0, s1 := twoShardFixture(t, clk)
	w := spanWindow(s1, s0) // discovery order deliberately not shard order
	res, err := pool.ReserveWindow(w, time.Hour)
	if err != nil {
		t.Fatalf("cross-shard reserve: %v", err)
	}
	for i := 0; i < 2; i++ {
		if got := pool.Shard(i).Holds(); len(got) != 1 || got[0] != res.ID {
			t.Fatalf("shard %d holds = %v, want [%s]", i, got, res.ID)
		}
	}
	if got := pool.Holds(); len(got) != 1 {
		t.Fatalf("pool holds = %v, want one distinct ID", got)
	}
	win, err := pool.Commit(res.ID)
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	if testkit.WindowSignature(win) != testkit.WindowSignature(w) {
		t.Fatalf("commit window lost discovery order:\n got  %s\n want %s",
			testkit.WindowSignature(win), testkit.WindowSignature(w))
	}
	if got := pool.Committed(); len(got) != 1 ||
		testkit.WindowSignature(got[res.ID]) != testkit.WindowSignature(w) {
		t.Fatalf("Committed() lost the original window: %v", got)
	}
}

// TestCrossShardReserveRollback: when the second shard refuses, the first
// shard's prepared sub-hold must be rolled back — no orphan holds, every
// span free again.
func TestCrossShardReserveRollback(t *testing.T) {
	clk := newManualClock()
	pool, s0, s1 := twoShardFixture(t, clk)
	// Occupy node 1's span so the cross-shard prepare fails on that shard.
	blocker, err := pool.ReserveWindow(spanWindow(s1), time.Hour)
	if err != nil {
		t.Fatalf("blocker: %v", err)
	}
	if _, err := pool.ReserveWindow(spanWindow(s0, s1), time.Hour); !errors.Is(err, ErrConflict) {
		t.Fatalf("cross-shard reserve over a blocked span: err = %v, want ErrConflict", err)
	}
	if got := pool.Holds(); len(got) != 1 || got[0] != blocker.ID {
		t.Fatalf("holds after rollback = %v, want only %v", got, blocker.ID)
	}
	// The rolled-back span on shard 0 must be reservable again.
	if _, err := pool.ReserveWindow(spanWindow(s0), time.Hour); err != nil {
		t.Fatalf("span not freed by rollback: %v", err)
	}
}

// TestCrossShardNoDoubleBooking races many goroutines at the same
// cross-shard window: exactly one may win, and the losers must leave no
// partial sub-holds behind.
func TestCrossShardNoDoubleBooking(t *testing.T) {
	clk := newManualClock()
	pool, s0, s1 := twoShardFixture(t, clk)
	const racers = 16
	var wins atomic32
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := pool.ReserveWindow(spanWindow(s0, s1), time.Hour); err == nil {
				wins.add(1)
			} else if !errors.Is(err, ErrConflict) {
				t.Errorf("unexpected reserve error: %v", err)
			}
		}()
	}
	wg.Wait()
	if got := wins.load(); got != 1 {
		t.Fatalf("%d racers won the same cross-shard window, want exactly 1", got)
	}
	if got := pool.Holds(); len(got) != 1 {
		t.Fatalf("holds after race = %v, want exactly the winner's", got)
	}
	for i := 0; i < 2; i++ {
		if got := pool.Shard(i).Holds(); len(got) != 1 {
			t.Fatalf("shard %d holds = %v, want exactly one sub-hold", i, got)
		}
	}
}

type atomic32 struct {
	mu sync.Mutex
	n  int
}

func (a *atomic32) add(d int) { a.mu.Lock(); a.n += d; a.mu.Unlock() }
func (a *atomic32) load() int { a.mu.Lock(); defer a.mu.Unlock(); return a.n }

// TestCrossShardCommitAfterExpiry: the router is the expiry authority for
// a two-phase hold. A commit past the client deadline (but still inside
// the shard-level grace) must refuse, release the sub-holds, and leave the
// spans reservable.
func TestCrossShardCommitAfterExpiry(t *testing.T) {
	clk := newManualClock()
	pool, s0, s1 := twoShardFixture(t, clk)
	res, err := pool.ReserveWindow(spanWindow(s0, s1), 10*time.Second)
	if err != nil {
		t.Fatalf("reserve: %v", err)
	}
	clk.Advance(11 * time.Second) // past the client deadline, inside the grace
	if _, err := pool.Commit(res.ID); !errors.Is(err, ErrUnknownReservation) {
		t.Fatalf("commit after expiry: err = %v, want ErrUnknownReservation", err)
	}
	if got := pool.Holds(); len(got) != 0 {
		t.Fatalf("holds after expired commit = %v, want none", got)
	}
	if len(pool.Committed()) != 0 {
		t.Fatal("an expired hold must not commit")
	}
	if _, err := pool.ReserveWindow(spanWindow(s0, s1), time.Hour); err != nil {
		t.Fatalf("spans not reclaimed after expired commit: %v", err)
	}
}

// TestCrossShardSweepReclaims: the router's Sweep releases lapsed
// cross-shard holds on every shard.
func TestCrossShardSweepReclaims(t *testing.T) {
	clk := newManualClock()
	pool, s0, s1 := twoShardFixture(t, clk)
	if _, err := pool.ReserveWindow(spanWindow(s0, s1), 10*time.Second); err != nil {
		t.Fatalf("reserve: %v", err)
	}
	clk.Advance(11 * time.Second)
	if n := pool.Sweep(); n == 0 {
		t.Fatal("sweep reclaimed nothing")
	}
	if got := pool.Holds(); len(got) != 0 {
		t.Fatalf("holds after sweep = %v, want none", got)
	}
	if _, err := pool.ReserveWindow(spanWindow(s0, s1), time.Hour); err != nil {
		t.Fatalf("spans not free after sweep: %v", err)
	}
}

// TestCrossShardWithdrawReleasesSiblings: withdrawing a node cancels the
// cross-shard holds touching it and releases their sibling sub-holds on
// the other shards.
func TestCrossShardWithdrawReleasesSiblings(t *testing.T) {
	clk := newManualClock()
	pool, s0, s1 := twoShardFixture(t, clk)
	if _, err := pool.ReserveWindow(spanWindow(s0, s1), time.Hour); err != nil {
		t.Fatalf("reserve: %v", err)
	}
	cancelled, err := pool.Withdraw(0)
	if err != nil {
		t.Fatalf("withdraw: %v", err)
	}
	if len(cancelled) != 1 {
		t.Fatalf("cancelled = %v, want the cross-shard hold", cancelled)
	}
	if got := pool.Holds(); len(got) != 0 {
		t.Fatalf("sibling sub-hold leaked: %v", got)
	}
	// Node 1's span (the sibling shard) must be free again.
	if _, err := pool.ReserveWindow(spanWindow(s1), time.Hour); err != nil {
		t.Fatalf("sibling span not released: %v", err)
	}
}

// TestCrossShardCommitAllOrNothing: a commit that finds one part of its
// hold gone (here released on its shard behind the router's back — what a
// Withdraw racing the commit does) must refuse, commit nothing anywhere and
// return the surviving parts to the pool.
func TestCrossShardCommitAllOrNothing(t *testing.T) {
	clk := newManualClock()
	pool, s0, s1 := twoShardFixture(t, clk)
	res, err := pool.ReserveWindow(spanWindow(s0, s1), time.Hour)
	if err != nil {
		t.Fatalf("reserve: %v", err)
	}
	if err := pool.Shard(1).Release(res.ID); err != nil {
		t.Fatalf("releasing one part: %v", err)
	}
	if _, err := pool.Commit(res.ID); !errors.Is(err, ErrUnknownReservation) {
		t.Fatalf("commit with a lost part: err = %v, want ErrUnknownReservation", err)
	}
	for i := 0; i < pool.Shards(); i++ {
		if got := pool.Shard(i).Committed(); len(got) != 0 {
			t.Fatalf("shard %d committed a part of a refused commit: %v", i, got)
		}
		if got := pool.Shard(i).Holds(); len(got) != 0 {
			t.Fatalf("shard %d still holds a part of a refused commit: %v", i, got)
		}
	}
	if got := pool.Committed(); len(got) != 0 {
		t.Fatalf("pool reports a refused commit as committed: %v", got)
	}
	if _, err := pool.ReserveWindow(spanWindow(s0, s1), time.Hour); err != nil {
		t.Fatalf("spans not free after the refused commit: %v", err)
	}
}

// TestCrossShardCommitVsOwnerChurn runs reserve→commit clients against
// owners withdrawing and re-adding their nodes, with nothing serializing
// the two. Whatever the interleaving, a window the client was told is
// committed must be committed in full on its shards, and no two committed
// windows may share a span.
func TestCrossShardCommitVsOwnerChurn(t *testing.T) {
	const (
		nodeCount = 12
		clients   = 6
		churners  = 3
		bookings  = 60
	)
	var list slots.List
	perNode := make(map[int]slots.List)
	for id := 0; id < nodeCount; id++ {
		n := testkit.Node(id, 4, 1)
		for k := 0; k < 40; k++ {
			sl := testkit.Slot(n, float64(k*100), float64(k*100+90))
			list = append(list, sl)
			perNode[id] = append(perNode[id], sl)
		}
	}
	pool, err := NewSharded(list, Options{MinSlotLength: 1, DefaultTTL: time.Hour, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var churn, book sync.WaitGroup
	for c := 0; c < churners; c++ {
		churn.Add(1)
		go func(c int) {
			defer churn.Done()
			for nid := c; ; nid = (nid + churners) % nodeCount {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := pool.Withdraw(nid); err != nil {
					t.Errorf("withdraw(%d): %v", nid, err)
				}
				if err := pool.Add(perNode[nid]); err != nil {
					t.Errorf("add(%d): %v", nid, err)
				}
			}
		}(c)
	}
	var mu sync.Mutex
	acked := make(map[string]*core.Window)
	for c := 0; c < clients; c++ {
		book.Add(1)
		go func(c int) {
			defer book.Done()
			rng := randx.New(uint64(100 + c))
			for i := 0; i < bookings; i++ {
				req := job.Request{TaskCount: rng.IntRange(2, 4), Volume: rng.FloatRange(20, 80), MaxCost: 1e6}
				res, err := pool.Reserve(&req, core.AMP{}, time.Hour)
				if err != nil {
					continue // conflict or no window: fine under churn
				}
				w, err := pool.Commit(res.ID)
				if errors.Is(err, ErrUnknownReservation) {
					continue // cancelled by a withdraw before the commit
				}
				if err != nil {
					t.Errorf("commit(%s): %v", res.ID, err)
					continue
				}
				mu.Lock()
				acked[res.ID] = w
				mu.Unlock()
			}
		}(c)
	}
	book.Wait()
	close(stop)
	churn.Wait()

	committed := pool.Committed()
	if len(committed) != len(acked) {
		t.Errorf("pool reports %d committed windows, clients were acked %d", len(committed), len(acked))
	}
	used := make(map[int][]slots.Interval)
	for id, w := range acked {
		got := committed[id]
		if got == nil {
			t.Errorf("%s was acked but is not committed", id)
			continue
		}
		onShards := 0
		for i := 0; i < pool.Shards(); i++ {
			if part := pool.Shard(i).Committed()[id]; part != nil {
				onShards += len(part.Placements)
			}
		}
		if len(got.Placements) != len(w.Placements) || onShards != len(w.Placements) {
			t.Errorf("%s: acked %d placements, pool reports %d, shards hold %d",
				id, len(w.Placements), len(got.Placements), onShards)
		}
		for nid, ivs := range w.UsedIntervals() {
			for _, iv := range ivs {
				for _, other := range used[nid] {
					if iv.Overlaps(other) {
						t.Errorf("double booking on node %d: %s takes %v, already committed %v", nid, id, iv, other)
					}
				}
				used[nid] = append(used[nid], iv)
			}
		}
	}
}

// TestShardedPerShardReplay is the recovery determinism argument in test
// form: with per-shard recording on, replaying each shard's journal alone
// reproduces that shard's free list, holds and commits — cross-shard holds
// included, because each of their parts is journaled on its own shard.
func TestShardedPerShardReplay(t *testing.T) {
	clk := newManualClock()
	rng := randx.New(7)
	list := testkit.RandomList(rng, 12, 4, 2000)
	pool, err := NewSharded(list, Options{
		MinSlotLength: 1, DefaultTTL: time.Hour, Clock: clk.Now,
		Shards: 4, Record: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var live []string
	for i := 0; i < 60; i++ {
		req := diffRequest(rng)
		switch rng.Intn(4) {
		case 0, 1:
			if res, err := pool.Reserve(&req, core.AMP{}, time.Hour); err == nil {
				live = append(live, res.ID)
			}
		case 2:
			if len(live) > 0 {
				id := live[0]
				live = live[1:]
				_, _ = pool.Commit(id)
			}
		case 3:
			if len(live) > 0 {
				id := live[0]
				live = live[1:]
				_ = pool.Release(id)
			}
		}
	}

	for i := 0; i < pool.Shards(); i++ {
		local := pool.Shard(i).Journal()
		replayed, err := Replay(local, Options{MinSlotLength: 1, DefaultTTL: time.Hour})
		if err != nil {
			t.Fatalf("shard %d replay: %v", i, err)
		}
		if a, b := freeSig(replayed.Snapshot().Slots), freeSig(pool.Shard(i).Snapshot().Slots); a != b {
			t.Fatalf("shard %d: replayed free list diverged\n replay: %s\n live:   %s", i, a, b)
		}
		if a, b := fmt.Sprint(replayed.Holds()), fmt.Sprint(pool.Shard(i).Holds()); a != b {
			t.Fatalf("shard %d: replayed holds diverged: %s vs %s", i, a, b)
		}
		if a, b := committedSig(replayed.Committed()), committedSig(pool.Shard(i).Committed()); a != b {
			t.Fatalf("shard %d: replayed committed diverged", i)
		}
	}
}

// TestAggregateCounters pins the cross-shard counter fold, including the
// cold-shard row: a shard with all-zero counters must not mask or distort
// the totals of the busy ones.
func TestAggregateCounters(t *testing.T) {
	busy := Counters{Reserves: 5, Conflicts: 1, NoWindow: 2, Commits: 3,
		Releases: 1, Expiries: 1, Adds: 1, Withdrawals: 1, Cancelled: 2}
	warm := Counters{Reserves: 2, Commits: 1}
	cold := Counters{} // a shard no request has touched yet
	cases := []struct {
		name string
		in   []Counters
		want Counters
	}{
		{"no shards", nil, Counters{}},
		{"single shard is the identity", []Counters{busy}, busy},
		{"two busy shards sum fieldwise", []Counters{busy, warm},
			Counters{Reserves: 7, Conflicts: 1, NoWindow: 2, Commits: 4,
				Releases: 1, Expiries: 1, Adds: 1, Withdrawals: 1, Cancelled: 2}},
		{"cold shard contributes zeros, not absence", []Counters{busy, cold, warm},
			Counters{Reserves: 7, Conflicts: 1, NoWindow: 2, Commits: 4,
				Releases: 1, Expiries: 1, Adds: 1, Withdrawals: 1, Cancelled: 2}},
		{"all shards cold", []Counters{cold, cold, cold, cold}, Counters{}},
	}
	for _, tc := range cases {
		if got := AggregateCounters(tc.in...); got != tc.want {
			t.Errorf("%s: AggregateCounters = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestShardedFindCacheHitAllocs holds the zero-allocation cache-hit gate
// over a sharded pool: a hit still costs one merged-snapshot freshness
// probe (n atomic loads) plus the map lookup and ring walk — no
// reassembly, no allocation.
func TestShardedFindCacheHitAllocs(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	rng := randx.New(3)
	pool, err := NewSharded(testkit.RandomList(rng, 8, 3, 300), Options{MinSlotLength: 1, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewFindCache(pool, 8*pool.Shards())
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
		t.Errorf("sharded cache-hit path allocates %.1f objects per run, want 0", allocs)
	}
	if st := cache.Stats(); st.Hits < 200 {
		t.Fatalf("expected hits, stats %+v", st)
	}
}

// TestShardOfStability pins the node→shard mapping, which is part of the
// on-disk contract of sharded WAL layouts: these values must never change.
func TestShardOfStability(t *testing.T) {
	cases := []struct {
		node, n, want int
	}{
		{0, 2, 0}, {1, 2, 1}, {2, 2, 0}, {3, 2, 1},
		{0, 4, 0}, {1, 4, 1}, {2, 4, 2}, {3, 4, 3}, {4, 4, 0},
		{7, 8, 3}, {100, 8, 4},
		{5, 1, 0}, {5, 0, 0}, // n <= 1 always routes to shard 0
	}
	for _, tc := range cases {
		if got := ShardOf(tc.node, tc.n); got != tc.want {
			t.Errorf("ShardOf(%d, %d) = %d, want %d", tc.node, tc.n, got, tc.want)
		}
	}
}
