package inventory

import (
	"errors"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"slotsel/internal/core"
	"slotsel/internal/job"
)

// FindCache memoizes window-search results against an Inventory with
// churn-aware invalidation. An entry is keyed by the canonical request
// shape plus the algorithm that ran, and remembers the snapshot version
// it was computed at along with the request's search horizon. A hit is
// served only when the invalidation history proves that no publication
// since the entry's version changed free capacity overlapping that
// horizon — in which case the candidate stream any search would see is
// byte-identical, so the memoized window (or no-window outcome) is
// exactly what a fresh full scan would return. Anything the ring cannot
// prove counts as a miss: correctness never depends on the cache.
//
// The horizon of a request is [0, Deadline) when a deadline is set —
// every candidate start and finish lies under the deadline, and slots
// entirely at or beyond it can never host or displace a candidate — and
// [0, +Inf) otherwise.
type FindCache struct {
	inv Pool

	mu      sync.Mutex
	entries map[CacheKey]*cacheEntry

	// maxEntries bounds the table; an arbitrary entry is evicted past it.
	maxEntries int

	hits        atomic.Uint64
	misses      atomic.Uint64
	invalidated atomic.Uint64
	evicted     atomic.Uint64
}

// CacheKey is the canonical request shape: every field that changes the
// outcome of a search, flattened into a comparable struct. Alg names the
// search that ran (an AEP algorithm name, or "csa:<criterion>"), since
// different algorithms pick different windows from the same snapshot.
type CacheKey struct {
	Alg       string
	TaskCount int
	Volume    float64
	MaxCost   float64
	Deadline  float64
	MinPerf   float64
	MinRAMMB  int
	MinDiskGB int
	OS        string // sorted, comma-joined; empty = any
	Arch      string // sorted, comma-joined; empty = any
}

// NewCacheKey canonicalizes a request for cache lookup. OS/arch sets are
// sorted so permutations of the same constraint share an entry.
func NewCacheKey(req *job.Request, alg string) CacheKey {
	k := CacheKey{
		Alg:       alg,
		TaskCount: req.TaskCount,
		Volume:    req.Volume,
		MaxCost:   req.MaxCost,
		Deadline:  req.Deadline,
		MinPerf:   req.MinPerf,
		MinRAMMB:  req.MinRAMMB,
		MinDiskGB: req.MinDiskGB,
	}
	if len(req.OS) > 0 {
		ss := make([]string, len(req.OS))
		for i, v := range req.OS {
			ss[i] = string(v)
		}
		sort.Strings(ss)
		k.OS = strings.Join(ss, ",")
	}
	if len(req.Arch) > 0 {
		ss := make([]string, len(req.Arch))
		for i, v := range req.Arch {
			ss[i] = string(v)
		}
		sort.Strings(ss)
		k.Arch = strings.Join(ss, ",")
	}
	return k
}

// Horizon returns the time range a request's search outcome depends on —
// the range a watch subscriber or cache entry must be re-evaluated for
// when an overlapping invalidation arrives.
func (k CacheKey) Horizon() (lo, hi float64) {
	if k.Deadline > 0 {
		return 0, k.Deadline
	}
	return 0, math.Inf(1)
}

// cacheEntry is one memoized outcome. win == nil records a no-window
// result (core.ErrNoWindow); the window is detached (caller-owned, never
// scanner-pooled state). enc is FindEncoded's encoding of win, made on the
// entry's first hit: a pure function of the window, so it lives and dies
// with the entry, and an entry that is never asked for again never holds
// one.
type cacheEntry struct {
	version uint64
	lo, hi  float64
	win     *core.Window
	enc     []byte
}

// DefaultFindCacheEntries bounds the cache when NewFindCache is given a
// non-positive capacity. Callers sizing a cache over a sharded pool treat
// this (or their configured value) as a per-shard budget and multiply by
// the shard count — see server.Options.FindCacheSize.
const DefaultFindCacheEntries = 256

// NewFindCache builds a cache over a pool (a single Inventory or a
// Sharded router) holding at most maxEntries memoized request shapes
// (<= 0 means DefaultFindCacheEntries).
func NewFindCache(inv Pool, maxEntries int) *FindCache {
	if maxEntries <= 0 {
		maxEntries = DefaultFindCacheEntries
	}
	return &FindCache{
		inv:        inv,
		entries:    make(map[CacheKey]*cacheEntry, maxEntries),
		maxEntries: maxEntries,
	}
}

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Invalidated uint64 `json:"invalidated"`
	Evicted     uint64 `json:"evicted"`
	Entries     int    `json:"entries"`
}

// Stats returns the lifetime counters. Invalidated counts misses caused
// by an overlapping (or unprovable) invalidation of an existing entry —
// a subset of Misses.
func (c *FindCache) Stats() CacheStats {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return CacheStats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Invalidated: c.invalidated.Load(),
		Evicted:     c.evicted.Load(),
		Entries:     n,
	}
}

// Find returns the memoized result for key, or runs search against the
// current snapshot and memoizes its outcome. The snapshot the result is
// valid against is returned alongside. search errors other than
// core.ErrNoWindow are returned uncached.
//
// The hit path performs no allocation: load snapshot, one map lookup,
// a ring walk, counter increments.
func (c *FindCache) Find(key CacheKey, search func(*Snapshot) (*core.Window, error)) (*core.Window, *Snapshot, error) {
	win, _, snap, err := c.FindEncoded(key, search, nil)
	return win, snap, err
}

// FindEncoded is Find for a caller that answers with an encoding of the
// window (the service: the window's wire bytes). On a hit it also returns
// the entry's encoding, so that a repeated request is answered without
// encoding anything; the first hit of an entry calls encode and keeps the
// result, an encode error is returned and nothing is kept. On a miss enc
// is nil — the caller encodes into its own buffer, and a window nobody
// asks for twice is never held in two forms. Callers must not modify enc,
// and every caller of one cache must pass the same encoding.
func (c *FindCache) FindEncoded(key CacheKey, search func(*Snapshot) (*core.Window, error), encode func(*core.Window) ([]byte, error)) (win *core.Window, enc []byte, snap *Snapshot, err error) {
	snap = c.inv.Snapshot()
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if !c.inv.InvalidatedSince(e.version, snap.Version, e.lo, e.hi) {
			// Advance the entry so future revalidations walk a shorter
			// version range. Sound: we just proved (e.version, snap.Version]
			// is disjoint from the horizon.
			e.version = snap.Version
			win, enc = e.win, e.enc
			c.mu.Unlock()
			c.hits.Add(1)
			if win == nil {
				return nil, nil, snap, core.ErrNoWindow
			}
			if enc == nil && encode != nil {
				if enc, err = encode(win); err != nil {
					return nil, nil, snap, err
				}
				c.mu.Lock()
				e.enc = enc // harmless if e was evicted meanwhile
				c.mu.Unlock()
			}
			return win, enc, snap, nil
		}
		delete(c.entries, key)
		c.invalidated.Add(1)
	}
	c.mu.Unlock()
	c.misses.Add(1)

	win, err = search(snap)
	if err != nil && !errors.Is(err, core.ErrNoWindow) {
		return nil, nil, snap, err
	}
	lo, hi := key.Horizon()
	e := &cacheEntry{version: snap.Version, lo: lo, hi: hi, win: win}
	c.mu.Lock()
	if len(c.entries) >= c.maxEntries {
		if _, dup := c.entries[key]; !dup {
			for k := range c.entries { // evict an arbitrary victim
				delete(c.entries, k)
				c.evicted.Add(1)
				break
			}
		}
	}
	c.entries[key] = e
	c.mu.Unlock()
	return win, nil, snap, err
}
