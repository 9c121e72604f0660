package inventory

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"slotsel/internal/core"
	"slotsel/internal/randx"
	"slotsel/internal/slots"
	"slotsel/internal/testkit"
)

// This file tests the merged snapshot by splice: every assembly must read
// exactly as a from-scratch merge of the shard sequences it was cut from,
// however many publications it skipped, and cost the merged list plus a
// constant number of small objects.

// remerge is the merged list built from scratch: every shard's sequence
// flattened, concatenated and sorted.
func remerge(seqs []*slots.Seq) slots.List {
	var l slots.List
	for _, q := range seqs {
		l = append(l, q.Flatten()...)
	}
	l.SortByStart()
	return l
}

// assemblyErr checks an assembly against remerge of the sequences it was
// cut from, pointer for pointer: its flat list, and the leaves reservation
// searches walk.
func assemblyErr(c *combined) error {
	want := remerge(c.seqs)
	if got := c.snap.Slots; len(got) != len(want) {
		return fmt.Errorf("version %d: %d slots, a re-merge has %d", c.version, len(got), len(want))
	}
	for i, s := range c.snap.Slots {
		if s != want[i] {
			return fmt.Errorf("version %d: slot %d is %v, a re-merge has %v", c.version, i, s, want[i])
		}
	}
	cur := c.seq.Cursor()
	if !cur.Ordered() {
		return fmt.Errorf("version %d: the merged sequence is not ordered", c.version)
	}
	i := 0
	for leaf := cur.Next(); leaf != nil; leaf = cur.Next() {
		for _, s := range leaf {
			if i >= len(want) || s != want[i] {
				return fmt.Errorf("version %d: the merged sequence differs from its list at slot %d", c.version, i)
			}
			i++
		}
	}
	if i != len(want) {
		return fmt.Errorf("version %d: the merged sequence holds %d slots, its list %d", c.version, i, len(want))
	}
	return nil
}

// shardSeqs returns the shards' currently published sequences.
func shardSeqs(p *Sharded) []*slots.Seq {
	seqs := make([]*slots.Seq, len(p.shards))
	for i, sh := range p.shards {
		seqs[i] = sh.pub.Load().seq
	}
	return seqs
}

// spliceChurn applies one random mutation to the pool without reading its
// merged snapshot: windows are found over a from-scratch merge of the
// shards, so the router assembles only when the test reads it.
type spliceChurn struct {
	rng      *randx.Rand
	clk      *manualClock
	live     []string
	nextNode int
}

func (m *spliceChurn) step(t testing.TB, p *Sharded) {
	rng := m.rng
	switch rng.Intn(8) {
	case 0, 1, 2: // reserve, often across shards
		req := diffRequest(rng)
		alg := []core.Algorithm{core.AMP{}, core.MinCost{}, core.MinFinish{}}[rng.Intn(3)]
		w, err := core.FindObserved(alg, remerge(shardSeqs(p)), &req, nil)
		if err != nil {
			return
		}
		ttl := time.Hour
		if rng.Bernoulli(0.4) {
			ttl = 10 * time.Second
		}
		if res, err := p.ReserveWindow(w, ttl); err == nil {
			m.live = append(m.live, res.ID)
		}
	case 3, 4: // commit or release a live hold
		if len(m.live) == 0 {
			return
		}
		i := rng.Intn(len(m.live))
		id := m.live[i]
		m.live = append(m.live[:i], m.live[i+1:]...)
		if rng.Bernoulli(0.5) {
			_, _ = p.Commit(id)
		} else {
			_ = p.Release(id)
		}
	case 5: // let the short holds lapse
		m.clk.Advance(6 * time.Second)
		p.Sweep()
	case 6: // owner churn: a node leaves
		_, _ = p.Withdraw(rng.Intn(18))
	case 7: // fresh capacity
		n := testkit.Node(m.nextNode, rng.FloatRange(2, 9), rng.FloatRange(0.5, 3))
		m.nextNode++
		lo := rng.FloatRange(0, 500)
		if err := p.Add(testkit.SlotList(testkit.Slot(n, lo, lo+rng.FloatRange(50, 400)))); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedSnapshotMatchesRemerge drives random reserve, commit, release,
// sweep, withdraw and add over shards {2, 4, 8} at MinSlotLength {1, 7,
// 30}, skipping 0–5 mutations between reads. After each read the snapshot
// is the assembly of the shards' current sequences, and reads pointer for
// pointer as their from-scratch merge. Half-way, the router is rebuilt over
// the same shards by NewShardedFrom, as recovery builds it: its first
// assembly splices edited, non-empty shards into an empty list.
func TestShardedSnapshotMatchesRemerge(t *testing.T) {
	for _, nShards := range []int{2, 4, 8} {
		for _, minLen := range []float64{1, 7, 30} {
			t.Run(fmt.Sprintf("shards=%d/minlen=%g", nShards, minLen), func(t *testing.T) {
				for seed := uint64(1); seed <= 8; seed++ {
					driveSnapshotSplice(t, seed, nShards, minLen)
				}
			})
		}
	}
}

func driveSnapshotSplice(t *testing.T, seed uint64, nShards int, minLen float64) {
	rng := randx.New(seed)
	clk := newManualClock()
	opts := Options{MinSlotLength: minLen, DefaultTTL: time.Hour, Clock: clk.Now, Shards: nShards}
	pool, err := NewSharded(testkit.RandomList(rng, 16, 4, 2000), opts)
	if err != nil {
		t.Fatal(err)
	}
	churn := &spliceChurn{rng: rng, clk: clk, nextNode: 100}
	for read := 0; read < 80; read++ {
		if read == 40 {
			pool, err = NewShardedFrom(pool.shards, opts)
			if err != nil {
				t.Fatal(err)
			}
			churn.live = pool.Holds()
		}
		for k := rng.Intn(6); k > 0; k-- {
			churn.step(t, pool)
		}
		snap := pool.Snapshot()
		c := pool.cur.Load()
		if c.snap != snap {
			t.Fatalf("seed %d read %d: Snapshot() is not the current assembly", seed, read)
		}
		for i, q := range shardSeqs(pool) {
			if c.seqs[i] != q {
				t.Fatalf("seed %d read %d: assembled from a stale sequence of shard %d", seed, read, i)
			}
		}
		if err := assemblyErr(c); err != nil {
			t.Fatalf("seed %d read %d: %v", seed, read, err)
		}
		// Status counts the distinct IDs Holds and Committed list.
		if st := pool.Status(); st.Holds != len(pool.Holds()) || st.Committed != len(pool.Committed()) || st.Version != c.version {
			t.Fatalf("seed %d read %d: Status %+v; Holds() %d, Committed() %d, version %d",
				seed, read, st, len(pool.Holds()), len(pool.Committed()), c.version)
		}
	}
}

// TestShardedSnapshotConcurrentReaders races readers of the merged snapshot
// against a mutator (run it under -race): every assembly any reader gets
// reads as the re-merge of the sequences it was cut from, and its leaves
// serve a reservation search.
func TestShardedSnapshotConcurrentReaders(t *testing.T) {
	rng := randx.New(11)
	clk := newManualClock()
	pool, err := NewSharded(testkit.RandomList(rng, 16, 4, 2000), Options{
		MinSlotLength: 1, DefaultTTL: time.Hour, Clock: clk.Now, Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sc := core.AcquireScanner()
			defer core.ReleaseScanner(sc)
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := assemblyErr(pool.current()); err != nil {
					t.Error(err)
					return
				}
				req := diffRequest(randx.New(uint64(g)))
				_, _ = sc.Find(core.AMP{}, pool.freeCursor(), &req, nil)
			}
		}(g)
	}
	churn := &spliceChurn{rng: rng, clk: clk, nextNode: 100}
	for i := 0; i < 300; i++ {
		churn.step(t, pool)
	}
	close(done)
	wg.Wait()
	if err := assemblyErr(pool.current()); err != nil {
		t.Fatal(err)
	}
}

// assemblyAllocs is what one assembly allocates besides scratch it reuses:
// the merged list, its leaves (one block) and spine, the sequence, the
// Snapshot, the combined and its two per-shard vectors.
const assemblyAllocs = 8

// TestShardedSnapshotAllocs pins one assembly after a booking to the merged
// list plus a constant number of small objects, at two pool sizes: the diff
// buffers are reused, and nothing is allocated per shard, leaf or slot.
func TestShardedSnapshotAllocs(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	for _, horizon := range []float64{600, 1200} {
		list, req := testkit.DeepPool(horizon)
		pool, err := NewSharded(list, Options{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		prev := pool.current()
		if _, err := pool.Reserve(&req, core.AMP{}, time.Hour); err != nil {
			t.Fatal(err)
		}
		// Assemble the booking's version from the one before it, again and
		// again: the same diff and splice every run.
		assemble := func() {
			pool.mergeMu.Lock()
			pool.assembleLocked(prev)
			pool.mergeMu.Unlock()
		}
		allocs := testing.AllocsPerRun(50, assemble)
		bytes := bytesPerRun(50, assemble)
		flat := float64(8 * len(pool.Snapshot().Slots))
		t.Logf("%d free slots: %.0f allocs, %.0f B per assembly (flat list %.0f B)", len(pool.Snapshot().Slots), allocs, bytes, flat)
		if allocs > assemblyAllocs {
			t.Errorf("an assembly allocates %.0f objects, want at most %d", allocs, assemblyAllocs)
		}
		if bytes > 1.1*flat+1024 {
			t.Errorf("an assembly allocates %.0f B; the merged list is %.0f B", bytes, flat)
		}
	}
}

// BenchmarkShardedSnapshot is one booking (a reserve and its release) on a
// 4-shard book_deep pool of about 9.5 k slots, then the Snapshot() a reader
// takes of the result.
func BenchmarkShardedSnapshot(b *testing.B) {
	list, req := testkit.DeepPool(1200)
	pool, err := NewSharded(list, Options{Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pool.Reserve(&req, core.AMP{}, time.Hour)
		if err != nil {
			b.Fatal(err)
		}
		if err := pool.Release(res.ID); err != nil {
			b.Fatal(err)
		}
		pool.Snapshot()
	}
}
