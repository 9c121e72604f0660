package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"slotsel/internal/inventory"
	"slotsel/internal/slots"
)

// Sharded WAL layout: a -shards N data directory holds one standard WAL
// directory per shard,
//
//	<dir>/shard-00/ ... <dir>/shard-<N-1>/
//
// each an independent group-committed log + snapshot chain for exactly the
// events of that shard's nodes. Recovery replays each directory on its
// own: shards partition the nodes, and a cross-shard hold is placed and
// settled under all its shards' locks, so no shard's history depends on
// another's order. Each shard journals its own boot record, and the router
// mints in the largest epoch of its shards (inventory.NewShardedFrom).
//
// Every shard directory is seeded at construction (SeedSharded journals an
// OpAdd on every shard, even an empty partition), so a healthy
// layout never has an empty shard directory next to non-empty ones — an
// all-or-nothing invariant OpenSharded checks: mixed emptiness means a
// shard's log was lost, and recovery refuses rather than resurrecting a
// silently partial pool. Damage *within* one shard (torn tail) stays
// contained to that shard's own recovery, exactly like a single-pool WAL.

// ShardDirName returns the subdirectory name of shard i.
func ShardDirName(i int) string { return fmt.Sprintf("shard-%02d", i) }

// OpenSharded is the sharded leader boot path: recover every shard's WAL
// under dir, journal every shard's boot record and assemble the router.
// Like Open, a nil *inventory.Sharded with open stores means the directory
// is fresh — seed it with SeedSharded. The shard count is part of the layout: opening an existing
// layout with a different n (or a directory holding a flat single-pool
// WAL) is an error, never a silent rehash.
func OpenSharded(dir string, n int, invOpts inventory.Options, walOpts Options) (*inventory.Sharded, []*Store, []*RecoverResult, error) {
	return openShardedFS(osFS{}, dir, n, invOpts, walOpts)
}

// openShardedFS is OpenSharded over the given filesystem.
func openShardedFS(fs fsys, dir string, n int, invOpts inventory.Options, walOpts Options) (*inventory.Sharded, []*Store, []*RecoverResult, error) {
	if n < 2 {
		return nil, nil, nil, fmt.Errorf("wal: OpenSharded needs at least 2 shards (use Open for a single pool)")
	}
	if err := checkShardLayout(fs, dir, n); err != nil {
		return nil, nil, nil, err
	}
	invOpts.Sink = nil
	invOpts.Shards = 0

	stores := make([]*Store, 0, n)
	results := make([]*RecoverResult, 0, n)
	invs := make([]*inventory.Inventory, 0, n)
	closeAll := func() {
		for _, st := range stores {
			st.Close()
		}
	}
	recovered := 0
	for i := 0; i < n; i++ {
		inv, st, res, err := reopenFS(fs, filepath.Join(dir, ShardDirName(i)), invOpts, walOpts)
		if err != nil {
			closeAll()
			return nil, nil, nil, fmt.Errorf("wal: shard %d: %w", i, err)
		}
		stores = append(stores, st)
		results = append(results, res)
		invs = append(invs, inv)
		if inv != nil {
			recovered++
		}
	}
	if recovered == 0 {
		return nil, stores, results, nil // fresh layout: caller seeds
	}
	if recovered != n {
		closeAll()
		return nil, nil, nil, fmt.Errorf("wal: %d of %d shard directories are empty — every shard journals its construction, so an empty shard next to recovered ones means lost data", n-recovered, n)
	}
	// The shards journal their boot records at once, so the boot waits for
	// one round of fsyncs, not one per shard.
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, inv := range invs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := inv.AttachSink(stores[i]); err != nil {
				errs[i] = fmt.Errorf("wal: shard %d: %w", i, err)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		closeAll()
		return nil, nil, nil, err
	}
	pool, err := inventory.NewShardedFrom(invs, invOpts)
	if err != nil {
		closeAll()
		return nil, nil, nil, err
	}
	return pool, stores, results, nil
}

// SeedSharded builds a fresh sharded pool over the stores OpenSharded
// created for an empty layout: one shard per store, each journaling its
// construction event (and everything after) to its own log, joined by the
// same constructor recovery uses.
func SeedSharded(list slots.List, invOpts inventory.Options, stores []*Store) (*inventory.Sharded, error) {
	if len(stores) < 2 {
		return nil, fmt.Errorf("wal: SeedSharded needs at least 2 shard stores, got %d", len(stores))
	}
	parts := inventory.PartitionByShard(list, len(stores))
	shards := make([]*inventory.Inventory, len(stores))
	for i, st := range stores {
		so := invOpts
		so.Sink = st
		inv, err := inventory.New(parts[i], so)
		if err != nil {
			return nil, err
		}
		shards[i] = inv
	}
	return inventory.NewShardedFrom(shards, invOpts)
}

// checkShardLayout rejects directories whose on-disk shape disagrees with
// the requested shard count: at n = 1 (a flat boot) any shard
// subdirectory; at n >= 2 a flat single-pool WAL at the top level, or
// shard subdirectories at or beyond index n.
func checkShardLayout(fs fsys, dir string, n int) error {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil // createFS will make it
		}
		return fmt.Errorf("wal: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() {
			if n > 1 && (strings.HasPrefix(name, "wal-") || strings.HasPrefix(name, "snap-")) {
				return fmt.Errorf("wal: %s holds a single-pool WAL (%s); a sharded layout needs a fresh directory", dir, name)
			}
			continue
		}
		if !strings.HasPrefix(name, "shard-") {
			continue
		}
		idx, err := strconv.Atoi(strings.TrimPrefix(name, "shard-"))
		if err != nil {
			continue
		}
		if n == 1 {
			return fmt.Errorf("wal: %s holds a sharded layout (found %s); a flat boot needs a directory without shard subdirectories", dir, name)
		}
		if idx >= n {
			return fmt.Errorf("wal: %s is laid out for more than %d shards (found %s); the shard count of an existing layout cannot change", dir, n, name)
		}
	}
	return nil
}
