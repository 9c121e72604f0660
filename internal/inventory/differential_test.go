package inventory

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"slotsel/internal/core"
	"slotsel/internal/job"
	"slotsel/internal/randx"
	"slotsel/internal/slots"
	"slotsel/internal/testkit"
)

// freeSignature renders a slot list exactly (%x is lossless for float64),
// so two lists are value-identical iff their signatures match.
func freeSignature(l slots.List) string {
	var b strings.Builder
	for _, s := range l {
		fmt.Fprintf(&b, "[n%d %x..%x]", s.Node.ID, s.Start, s.End)
	}
	return b.String()
}

// committedSignature renders the committed map deterministically.
func committedSignature(m map[string]*core.Window) string {
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var b strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&b, "%s: %s\n", id, testkit.WindowSignature(m[id]))
	}
	return b.String()
}

// holdsSignature renders the live holds (IDs + window values).
func holdsSignature(inv *Inventory) string {
	var b strings.Builder
	inv.mu.Lock()
	defer inv.mu.Unlock()
	ids := make([]string, 0, len(inv.holds))
	for id := range inv.holds {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(&b, "%s: %s\n", id, testkit.WindowSignature(inv.holds[id].window))
	}
	return b.String()
}

// TestInventoryDifferential is the determinism acceptance suite: a
// concurrent run's recorded journal, replayed sequentially into a fresh
// inventory, must reproduce the concurrent run's final state exactly —
// committed set, live holds, free list and lifecycle counters. Conflict
// resolution is thereby a pure function of the serialized operation
// sequence: timing, goroutine interleaving and map iteration never leak
// into outcomes. The seeds past the first 64 run with a MinSlotLength (7,
// 30) above the length of some base spans (1..150 here), where a span
// shorter than the minimum is published whole until an allocation touches
// it.
func TestInventoryDifferential(t *testing.T) {
	const (
		seeds      = 64
		shortSeeds = 16
		goroutines = 6
		opsPerG    = 25
	)
	for seed := uint64(1); seed <= seeds+shortSeeds; seed++ {
		seed := seed
		minLen := 1.0
		if seed > seeds {
			minLen = []float64{7, 30}[seed%2]
		}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := randx.New(seed)
			list := testkit.RandomList(rng, 12, 3, 300)
			if len(list) == 0 {
				t.Skip("empty instance")
			}
			inv, err := New(list, Options{MinSlotLength: minLen, Record: true})
			if err != nil {
				t.Fatal(err)
			}

			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					grng := randx.New(seed*1000 + uint64(g))
					var held []string
					addSeq := 0
					for op := 0; op < opsPerG; op++ {
						switch k := grng.Intn(12); {
						case k < 6: // reserve
							req := &job.Request{
								TaskCount: grng.IntRange(1, 3),
								Volume:    float64(grng.IntRange(20, 80)),
								MaxCost:   5000,
							}
							ttl := time.Minute
							if grng.Intn(4) == 0 {
								ttl = time.Nanosecond // expires immediately: swept by a later mutation
							}
							if res, err := inv.Reserve(req, core.AMP{}, ttl); err == nil && ttl == time.Minute {
								held = append(held, res.ID)
							}
						case k < 8: // commit
							if len(held) > 0 {
								id := held[grng.Intn(len(held))]
								inv.Commit(id)
							}
						case k < 10: // release
							if len(held) > 0 {
								i := grng.Intn(len(held))
								inv.Release(held[i])
								held = append(held[:i], held[i+1:]...)
							}
						case k == 10: // add fresh capacity
							addSeq++
							n := testkit.Node(1000+g*100+addSeq, float64(grng.IntRange(2, 10)), 1)
							start := grng.FloatRange(0, 200)
							inv.Add(testkit.SlotList(testkit.Slot(n, start, start+grng.FloatRange(20, 100))))
						default: // withdraw a random original node
							if _, err := inv.Withdraw(grng.Intn(12)); err != nil && !errors.Is(err, ErrUnknownNode) {
								t.Errorf("withdraw: %v", err)
							}
						}
					}
				}(g)
			}
			wg.Wait()
			inv.Sweep()

			events := inv.Journal()
			re, err := Replay(events, Options{MinSlotLength: minLen})
			if err != nil {
				t.Fatalf("replay: %v", err)
			}

			if got, want := committedSignature(re.Committed()), committedSignature(inv.Committed()); got != want {
				t.Errorf("committed sets differ:\nreplay: %s\nlive:   %s", got, want)
			}
			if got, want := holdsSignature(re), holdsSignature(inv); got != want {
				t.Errorf("hold sets differ:\nreplay: %s\nlive:   %s", got, want)
			}
			if got, want := freeSignature(re.Snapshot().Slots), freeSignature(inv.Snapshot().Slots); got != want {
				t.Errorf("free lists differ:\nreplay: %s\nlive:   %s", got, want)
			}
			lc, rc := inv.Status().Counters, re.Status().Counters
			rc.NoWindow = lc.NoWindow // failed searches are not journaled
			if lc != rc {
				t.Errorf("counters differ:\nreplay: %+v\nlive:   %+v", rc, lc)
			}
			// Version parity: the published snapshot version must be a pure
			// function of the journal too (every op publishes the same number
			// of times live and replayed) — the property that lets a
			// recovered pool keep the snapshot_version clients saw.
			if got, want := re.Snapshot().Version, inv.Snapshot().Version; got != want {
				t.Errorf("snapshot versions differ: replay %d, live %d", got, want)
			}
		})
	}
}

// TestReplayRejectsTamperedJournal: flipping a recorded outcome must make
// replay fail loudly instead of silently diverging.
func TestReplayRejectsTamperedJournal(t *testing.T) {
	inv, err := New(twoNodeList(), Options{MinSlotLength: 1, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	res := mustReserve(t, inv, smallReq(1), time.Minute)
	if _, err := inv.Commit(res.ID); err != nil {
		t.Fatal(err)
	}
	events := inv.Journal()
	for i := range events {
		if events[i].Op == OpCommit {
			events[i].OK = false
		}
	}
	if _, err := Replay(events, Options{MinSlotLength: 1}); err == nil {
		t.Fatal("replay accepted a tampered journal")
	}
}

// TestApplyEventRejectsDivergence provokes every recorded-outcome check of
// the replay path: an event whose recorded outcome is not the one its
// transition has on the current state must be refused with an error naming
// the event, before anything changed.
func TestApplyEventRejectsDivergence(t *testing.T) {
	inv, err := New(twoNodeList(), Options{MinSlotLength: 1})
	if err != nil {
		t.Fatal(err)
	}
	held := mustReserve(t, inv, smallReq(1), time.Hour) // takes [0,20) on node 1
	free := core.NewWindow(100, []core.Candidate{{Slot: inv.Snapshot().Slots[0], Exec: 20, Cost: 20}})
	cases := []struct {
		name string
		ev   Event
	}{
		{"reserve recorded OK on a window that no longer fits", Event{Op: OpReserve, ID: "r00000009", Window: held.Window, OK: true}},
		{"reserve recorded refused on a window that fits", Event{Op: OpReserve, Window: free}},
		{"reserve accepted without an ID", Event{Op: OpReserve, Window: free, OK: true}},
		{"commit recorded found on an unknown hold", Event{Op: OpCommit, ID: "r00000009", OK: true}},
		{"commit recorded unknown on a live hold", Event{Op: OpCommit, ID: held.ID}},
		{"release recorded found on an unknown hold", Event{Op: OpRelease, ID: "r00000009", OK: true}},
		{"release recorded unknown on a live hold", Event{Op: OpRelease, ID: held.ID}},
		{"expire of an unknown hold", Event{Op: OpExpire, ID: "r00000009", OK: true}},
		{"withdraw recorded known on an unknown node", Event{Op: OpWithdraw, Node: 77, OK: true}},
		{"withdraw recorded unknown on a known node", Event{Op: OpWithdraw, Node: 1}},
		{"unknown op", Event{Op: Op(99), OK: true}},
	}
	for i, tc := range cases {
		tc.ev.Seq = uint64(40 + i)
		before := inv.ExportState()
		err := inv.ApplyEvent(tc.ev)
		if err == nil {
			t.Fatalf("%s: ApplyEvent accepted the event", tc.name)
		}
		if want := fmt.Sprintf("seq %d (%s)", tc.ev.Seq, tc.ev.Op); !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, want)
		}
		if after := inv.ExportState(); !reflect.DeepEqual(before, after) {
			t.Errorf("%s: refused event changed the state\nbefore: %+v\nafter:  %+v", tc.name, before, after)
		}
	}
}
