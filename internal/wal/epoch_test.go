package wal

import (
	"fmt"
	"testing"
	"time"

	"slotsel/internal/core"
	"slotsel/internal/inventory"
	"slotsel/internal/job"
	"slotsel/internal/randx"
	"slotsel/internal/slots"
	"slotsel/internal/testkit"
)

// TestReopenMintsNoIDTwice: Open, book and Close the same directory three
// times in one process, flat and at 4 shards. No ID is minted twice — a
// released one neither, though no hold or commit carries it any more — and
// the final directory replays to the holds and commits the rounds left.
func TestReopenMintsNoIDTwice(t *testing.T) {
	list := testkit.RandomList(randx.New(5), 40, 3, 300)
	seed := func() (slots.List, error) { return list, nil }
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			opts := inventory.Options{MinSlotLength: 1, Shards: shards}
			minted := map[string]int{} // ID -> the round that minted it
			holds, commits := 0, 0
			for round := 0; round < 3; round++ {
				stack, err := Boot(dir, seed, opts, Options{NoSync: true})
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				for tx := 0; tx < 30; tx++ {
					req := &job.Request{TaskCount: 1 + tx%3, Volume: float64(20 + tx%30), MaxCost: 5000}
					res, err := stack.Pool.Reserve(req, core.AMP{}, time.Hour)
					if err != nil {
						continue
					}
					if r, dup := minted[res.ID]; dup {
						t.Fatalf("round %d minted %s, which round %d minted", round, res.ID, r)
					}
					minted[res.ID] = round
					switch tx % 3 {
					case 0:
						_, err = stack.Pool.Commit(res.ID)
						commits++
					case 1:
						err = stack.Pool.Release(res.ID)
					default:
						holds++
					}
					if err != nil {
						t.Fatalf("round %d, %s: %v", round, res.ID, err)
					}
				}
				if err := stack.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if len(minted) < 30 {
				t.Fatalf("only %d bookings in three rounds: the fixture books out", len(minted))
			}
			stack, err := Boot(dir, noSeed, opts, Options{NoSync: true})
			if err != nil {
				t.Fatalf("the final directory does not replay: %v", err)
			}
			defer stack.Close()
			if got := stack.Pool.Status(); got.Holds != holds || got.Committed != commits {
				t.Fatalf("replayed %d holds and %d commits, want %d and %d", got.Holds, got.Committed, holds, commits)
			}
		})
	}
}

// TestEpochZeroDirectoryBoots: a log written before boot records existed
// holds IDs spelled r%08d. It boots into epoch 1, its holds still commit
// and release, and the IDs minted after the boot carry the epoch, so none
// equals one of the log's.
func TestEpochZeroDirectoryBoots(t *testing.T) {
	dir := t.TempDir()
	inv, err := inventory.New(testkit.RandomList(randx.New(8), 20, 3, 300), inventory.Options{MinSlotLength: 1, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for tx := 0; tx < 4; tx++ {
		res, err := inv.Reserve(&job.Request{TaskCount: 2, Volume: 30, MaxCost: 5000}, core.AMP{}, time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, res.ID)
	}
	if ids[0] != "r00000001" {
		t.Fatalf("an in-memory pool minted %s, want r00000001", ids[0])
	}
	// The journal goes to disk as the build before boot records wrote it.
	store, err := Create(dir, 0, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range inv.Journal() {
		store.Append(ev)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	stack, err := Boot(dir, noSeed, inventory.Options{MinSlotLength: 1}, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	if st := stack.Shards[0].ExportState(); st.Epoch != 1 || len(st.Holds) != len(ids) {
		t.Fatalf("booted into epoch %d with %d holds, want epoch 1 with %d", st.Epoch, len(st.Holds), len(ids))
	}
	if _, err := stack.Pool.Commit(ids[0]); err != nil {
		t.Fatalf("commit of %s from the old log: %v", ids[0], err)
	}
	if err := stack.Pool.Release(ids[1]); err != nil {
		t.Fatalf("release of %s from the old log: %v", ids[1], err)
	}
	res, err := stack.Pool.Reserve(&job.Request{TaskCount: 2, Volume: 30, MaxCost: 5000}, core.AMP{}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "r00000001.1" {
		t.Fatalf("the first ID after the boot is %s, want r00000001.1", res.ID)
	}
}

// countingSink forwards to a store and counts what it is handed.
type countingSink struct {
	next   inventory.JournalSink
	events *int
}

func (c countingSink) Append(ev inventory.Event) func() error {
	*c.events++
	return c.next.Append(ev)
}

// TestAttachSinkSwapKeepsEpoch: a booted pool given a wrapper over its own
// store (what a tracing wrapper does) only swaps the sink. No second boot
// record is journaled, so the epoch and the sequence stay, and the events
// that follow reach the store through the wrapper.
func TestAttachSinkSwapKeepsEpoch(t *testing.T) {
	stack, err := Boot(t.TempDir(), func() (slots.List, error) {
		return testkit.RandomList(randx.New(9), 20, 3, 300), nil
	}, inventory.Options{MinSlotLength: 1}, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()
	inv := stack.Shards[0]
	before := inv.ExportState()
	var events int
	if err := inv.AttachSink(countingSink{next: stack.Stores[0], events: &events}); err != nil {
		t.Fatal(err)
	}
	if after := inv.ExportState(); after.Epoch != before.Epoch || after.Seq != before.Seq || events != 0 {
		t.Fatalf("swapping the sink moved epoch %d -> %d, seq %d -> %d, and journaled %d events",
			before.Epoch, after.Epoch, before.Seq, after.Seq, events)
	}
	res, err := inv.Reserve(&job.Request{TaskCount: 1, Volume: 30, MaxCost: 5000}, core.AMP{}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("r00000001.%d", before.Epoch); res.ID != want || events != 1 {
		t.Fatalf("reserve after the swap minted %s through %d events, want %s through 1", res.ID, events, want)
	}
}
