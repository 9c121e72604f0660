package wal

import (
	"errors"
	"fmt"

	"slotsel/internal/inventory"
	"slotsel/internal/slots"
)

// Stack is a booted pool and the WAL stores behind it: what Boot returns.
type Stack struct {
	// Pool is the pool: an *inventory.Inventory below 2 shards, the
	// router (*inventory.Sharded) at 2 or more.
	Pool inventory.Pool

	// Stores are the WAL stores, one per shard; nil for an in-memory pool.
	Stores []*Store

	// Shards are the pool's inventories in shard order: the pool itself
	// when it is flat. Shards[i] is the inventory Stores[i] journals.
	Shards []*inventory.Inventory

	// Results are the per-store recovery results, nil when the pool was
	// seeded.
	Results []*RecoverResult
}

// Boot is the one boot path of a pool, and the one place that chooses
// between seeding and recovering, and between a flat and a sharded pool.
// invOpts.Shards picks the shape: below 2 one Inventory, 2 or more the
// router over that many shards.
//
// With dir == "" the pool is in memory, built from seed's list. Otherwise
// Boot recovers dir (Open, or OpenSharded with its per-shard
// subdirectories) and calls seed exactly once if it holds no state yet,
// each store journaling the construction of its inventory. The shard
// count of a directory that holds state is part of its layout: booting it
// at another count is an error, and seed is not called. On any error
// every store Boot opened is closed again.
func Boot(dir string, seed func() (slots.List, error), invOpts inventory.Options, walOpts Options) (*Stack, error) {
	s := &Stack{}
	switch {
	case dir == "": // in memory, seeded below
	case invOpts.Shards >= 2:
		pool, stores, results, err := OpenSharded(dir, invOpts.Shards, invOpts, walOpts)
		if err != nil {
			return nil, err
		}
		s.Stores = stores
		if pool != nil {
			s.Pool, s.Results = pool, results
		}
	default:
		inv, store, res, err := Open(dir, invOpts, walOpts)
		if err != nil {
			return nil, err
		}
		s.Stores = []*Store{store}
		if inv != nil {
			s.Pool, s.Results = inv, []*RecoverResult{res}
		}
	}
	if s.Pool == nil {
		pool, err := seedPool(seed, invOpts, s.Stores)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.Pool = pool
	}
	s.Shards = shardsOf(s.Pool)
	return s, nil
}

// seedPool builds a fresh pool from seed's list: over the stores of an
// empty directory, the one inventory journaling to the one store or a
// shard per store; with no stores, in memory.
func seedPool(seed func() (slots.List, error), invOpts inventory.Options, stores []*Store) (inventory.Pool, error) {
	list, err := seed()
	if err != nil {
		return nil, err
	}
	switch {
	case len(stores) > 1:
		return SeedSharded(list, invOpts, stores)
	case len(stores) == 1:
		invOpts.Sink = stores[0]
		return inventory.New(list, invOpts)
	case invOpts.Shards >= 2:
		return inventory.NewSharded(list, invOpts)
	default:
		return inventory.New(list, invOpts)
	}
}

// shardsOf lists a pool's inventories in shard order.
func shardsOf(pool inventory.Pool) []*inventory.Inventory {
	sp, ok := pool.(*inventory.Sharded)
	if !ok {
		return []*inventory.Inventory{pool.(*inventory.Inventory)}
	}
	shards := make([]*inventory.Inventory, sp.Shards())
	for i := range shards {
		shards[i] = sp.Shard(i)
	}
	return shards
}

// Snapshot snapshots every store whose log grew since its last snapshot,
// each from the inventory it journals, so that the next boot replays
// nothing. It goes on past a failing store and returns every failure.
func (s *Stack) Snapshot() error {
	var errs []error
	for i, st := range s.Stores {
		if stats := st.Stats(); stats.AppendedSeq > stats.SnapshotSeq {
			if err := st.Snapshot(s.Shards[i].ExportState()); err != nil {
				errs = append(errs, fmt.Errorf("store %d: %w", i, err))
			}
		}
	}
	return errors.Join(errs...)
}

// Close closes every store, which writes what each still has queued, and
// returns every failure.
func (s *Stack) Close() error {
	var errs []error
	for i, st := range s.Stores {
		if err := st.Close(); err != nil {
			errs = append(errs, fmt.Errorf("store %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}
