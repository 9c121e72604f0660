package wal

import (
	"testing"
	"time"

	"slotsel/internal/core"
	"slotsel/internal/env"
	"slotsel/internal/inventory"
	"slotsel/internal/job"
	"slotsel/internal/randx"
	"slotsel/internal/testkit"
)

// These benchmarks price the durability layer against the same
// Reserve→Release cycle that internal/inventory's churn benchmarks
// measure with no sink at all. Three tiers:
//
//	NoWAL   — the slotbench/baseline configuration (Sink == nil); the
//	          regression gate's numbers are this tier, which is why
//	          enabling the WAL cannot invalidate the checked-in baseline.
//	NoSync  — framing + buffered write, no fsync: the encoding overhead.
//	Fsync   — the real durable cycle; dominated by the device, and on CI
//	          tmpfs it is nearly free, so treat absolute numbers as a
//	          floor, not a field measurement.
func benchCycleInventory(b *testing.B, journaled bool, opts Options) (*inventory.Inventory, *Store) {
	b.Helper()
	rng := randx.New(9)
	list := testkit.RandomList(rng, 24, 4, 2000)
	invOpts := inventory.Options{MinSlotLength: 1}
	if !journaled {
		inv, err := inventory.New(list, invOpts)
		if err != nil {
			b.Fatal(err)
		}
		return inv, nil
	}
	inv, store, _, err := Open(b.TempDir(), invOpts, opts)
	if err != nil {
		b.Fatal(err)
	}
	if inv != nil {
		b.Fatal("fresh directory should have no recovered state")
	}
	invOpts.Sink = store
	inv, err = inventory.New(list, invOpts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { store.Close() })
	return inv, store
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
	inv, _ := benchCycleInventory(b, false, Options{})
	benchCycle(b, inv)
}

func BenchmarkReserveReleaseWALNoSync(b *testing.B) {
	inv, _ := benchCycleInventory(b, true, Options{NoSync: true})
	benchCycle(b, inv)
}

func BenchmarkReserveReleaseWALFsync(b *testing.B) {
	inv, _ := benchCycleInventory(b, true, Options{})
	benchCycle(b, inv)
}

// BenchmarkAppendEncode isolates the journal framing itself — encode one
// OpExpire event (the smallest record) into a NoSync store.
func BenchmarkAppendEncode(b *testing.B) {
	_, store, _, err := Open(b.TempDir(), inventory.Options{}, Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wait := store.Append(inventory.Event{Seq: uint64(i + 1), Op: inventory.OpExpire, ID: "h-000001"})
		if err := wait(); err != nil {
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
	var pool inventory.Pool
	var stores []*Store
	var shard func(i int) *inventory.Inventory
	if shards == 1 {
		_, store, _, err := Open(dir, inventory.Options{}, Options{NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		inv, err := inventory.New(e.Slots, inventory.Options{Sink: store})
		if err != nil {
			b.Fatal(err)
		}
		pool, stores, shard = inv, []*Store{store}, func(int) *inventory.Inventory { return inv }
	} else {
		_, sts, _, err := OpenSharded(dir, shards, inventory.Options{}, Options{NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		p, err := SeedSharded(e.Slots, inventory.Options{}, sts)
		if err != nil {
			b.Fatal(err)
		}
		pool, stores, shard = p, sts, p.Shard
	}
	for t := 0; t < txns; t++ {
		volume := 100 + 100*(float64(t%16)+0.5)/16
		res, err := pool.Reserve(&job.Request{TaskCount: 5, Volume: volume, MaxCost: 25 * volume}, core.AMP{}, 0)
		if err != nil {
			b.Fatal(err)
		}
		if t%8 == 0 {
			_, err = pool.Commit(res.ID)
		} else {
			err = pool.Release(res.ID)
		}
		if err != nil {
			b.Fatal(err)
		}
		if t == txns/2 {
			for i, store := range stores {
				if err := store.Snapshot(shard(i).ExportState()); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	closeStores(b, stores)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if shards == 1 {
			stores = stores[:1]
			_, stores[0], _, err = Open(dir, inventory.Options{}, Options{NoSync: true})
		} else {
			_, stores, _, err = OpenSharded(dir, shards, inventory.Options{}, Options{NoSync: true})
		}
		if err != nil {
			b.Fatal(err)
		}
		closeStores(b, stores)
	}
}

func closeStores(b *testing.B, stores []*Store) {
	for _, store := range stores {
		if err := store.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
