package wal

import (
	"testing"
	"time"

	"slotsel/internal/core"
	"slotsel/internal/env"
	"slotsel/internal/inventory"
	"slotsel/internal/job"
	"slotsel/internal/randx"
	"slotsel/internal/slots"
	"slotsel/internal/testkit"
)

// These benchmarks price the durability layer against the same
// Reserve→Release cycle that internal/inventory's churn benchmarks
// measure with no sink at all. Three tiers:
//
//	NoWAL   — the slotbench configuration (Sink == nil), which the
//	          kernel bench gate measures.
//	NoSync  — framing + buffered write, no fsync: the encoding overhead.
//	Fsync   — the real durable cycle; dominated by the device, and on CI
//	          tmpfs it is nearly free, so treat absolute numbers as a
//	          floor, not a field measurement. It reports fsyncs/op: the
//	          reserve's ack waits and the release's does not, so a cycle
//	          costs one fsync, which carries the previous release too.
func benchCycleStack(b *testing.B, dir string, opts Options) *Stack {
	b.Helper()
	list := testkit.RandomList(randx.New(9), 24, 4, 2000)
	stack, err := Boot(dir, func() (slots.List, error) { return list, nil }, inventory.Options{MinSlotLength: 1}, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { stack.Close() })
	return stack
}

func benchCycle(b *testing.B, inv *inventory.Inventory) {
	req := job.Request{TaskCount: 2, Volume: 60, MaxCost: 5000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := inv.Reserve(&req, core.AMP{}, time.Hour)
		if err != nil {
			b.Fatalf("reserve: %v", err)
		}
		if err := inv.Release(res.ID); err != nil {
			b.Fatalf("release: %v", err)
		}
	}
}

func BenchmarkReserveReleaseNoWAL(b *testing.B) {
	benchCycle(b, benchCycleStack(b, "", Options{}).Shards[0])
}

func BenchmarkReserveReleaseWALNoSync(b *testing.B) {
	benchCycle(b, benchCycleStack(b, b.TempDir(), Options{NoSync: true}).Shards[0])
}

func BenchmarkReserveReleaseWALFsync(b *testing.B) {
	stack := benchCycleStack(b, b.TempDir(), Options{})
	store := stack.Stores[0]
	before := store.Stats().Fsyncs
	benchCycle(b, stack.Shards[0])
	b.ReportMetric(float64(store.Stats().Fsyncs-before)/float64(b.N), "fsyncs/op")
}

// BenchmarkAppendEncode isolates the journal framing itself — encode one
// event and wait for it, so the writer frames it at once, into a NoSync
// store: an OpCommit (the smallest such record) and an accepted 5-task
// OpReserve (the record a booking writes, its window nested), which does
// not wait on its own and is waited for by sequence.
func BenchmarkAppendEncode(b *testing.B) {
	reserve, _ := reserveEvent(b)
	for _, tc := range []struct {
		name string
		ev   inventory.Event
	}{
		{"commit", inventory.Event{Op: inventory.OpCommit, ID: "h-000001", OK: true}},
		{"reserve", reserve},
	} {
		b.Run(tc.name, func(b *testing.B) {
			store, err := Create(b.TempDir(), 0, Options{NoSync: true})
			if err != nil {
				b.Fatal(err)
			}
			defer store.Close()
			ev := tc.ev
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev.Seq = uint64(i + 1)
				var err error
				if wait := store.Append(ev); wait != nil {
					err = wait()
				} else {
					err = store.waitDurable(ev.Seq)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncodeStateBookDeep prices a snapshot's encoding: EncodeState
// of the base the benchmark's book_deep workload boots from — 1 024
// generated nodes over a 6 000 horizon, seed 1: 48 267 slots.
func BenchmarkEncodeStateBookDeep(b *testing.B) {
	e := env.Generate(env.DefaultConfig().WithNodeCount(1024).WithHorizon(6000), randx.New(1))
	inv, err := inventory.New(e.Slots, inventory.Options{})
	if err != nil {
		b.Fatal(err)
	}
	st := inv.ExportState()
	if len(st.Base) != 48267 {
		b.Fatalf("the base holds %d slots, want 48267", len(st.Base))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeState(st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpenBookDeep prices a boot: Open of a directory shaped like the
// benchmark's book_deep workload — 1 024 generated nodes over a 6 000
// horizon (seed 1, about 48 000 slots), 500 booking transactions with a
// commit in every 8, and a snapshot after the 250th — so the boot decodes
// the snapshot, restores it and replays the 250 transactions after it.
func BenchmarkOpenBookDeep(b *testing.B) { benchOpen(b, 1024, 6000, 500, 1) }

// BenchmarkOpenMixedChurn is its 4-shard twin over the mixed_churn shape —
// 1 024 nodes over a 1 200 horizon, 200 transactions, every shard
// snapshotted after the 100th — so OpenSharded's four restores and the
// router's first assembly are priced too.
func BenchmarkOpenMixedChurn(b *testing.B) { benchOpen(b, 1024, 1200, 200, 4) }

// benchOpen writes a directory of the given shape through the given number
// of shards (1: a flat Open) and times booting it.
func benchOpen(b *testing.B, nodes int, horizon float64, txns, shards int) {
	dir := b.TempDir()
	e := env.Generate(env.DefaultConfig().WithNodeCount(nodes).WithHorizon(horizon), randx.New(1))
	invOpts := inventory.Options{Shards: shards}
	stack, err := Boot(dir, func() (slots.List, error) { return e.Slots, nil }, invOpts, Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	for t := 0; t < txns; t++ {
		volume := 100 + 100*(float64(t%16)+0.5)/16
		res, err := stack.Pool.Reserve(&job.Request{TaskCount: 5, Volume: volume, MaxCost: 25 * volume}, core.AMP{}, 0)
		if err != nil {
			b.Fatal(err)
		}
		if t%8 == 0 {
			_, err = stack.Pool.Commit(res.ID)
		} else {
			err = stack.Pool.Release(res.ID)
		}
		if err != nil {
			b.Fatal(err)
		}
		if t == txns/2 {
			if err := stack.Snapshot(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := stack.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stack, err := Boot(dir, noSeed, invOpts, Options{NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		if err := stack.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
