package inventory

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"slotsel/internal/core"
	"slotsel/internal/nodes"
	"slotsel/internal/slots"
)

// HoldRecord is one live TTL'd reservation in an exported State.
type HoldRecord struct {
	// ID names the hold.
	ID string

	// Window is the held co-allocation (immutable, shared).
	Window *core.Window

	// Expires is the hold's wall-clock deadline.
	Expires time.Time
}

// CommitRecord is one permanent allocation in an exported State.
type CommitRecord struct {
	// ID is the reservation ID the commit settled.
	ID string

	// Window is the committed co-allocation (immutable, shared).
	Window *core.Window
}

// State is a complete, self-contained copy of an inventory's mutable
// state at one journal position — what a WAL snapshot persists and what
// recovery rebuilds from before replaying the log tail. Restoring a State
// and then applying the events recorded after State.Seq reproduces the
// original inventory exactly, including its published snapshot version.
//
// Slices are sorted deterministically (base by node then start, holds and
// commits by ID), so two exports of equal states are deeply equal.
type State struct {
	// Version is the published free-list snapshot version at export time.
	Version uint64

	// Seq is the sequence number of the last journaled event included in
	// this state.
	Seq uint64

	// NextID is the reservation ID counter.
	NextID uint64

	// Counters are the lifecycle totals. NoWindow is the one counter that
	// is not a function of the journal (failed searches record no event),
	// so it is carried here to survive restarts even though replayed
	// tails cannot advance it.
	Counters Counters

	// Base is the full base capacity as a slot list (merged spans, sorted
	// by node ID then start).
	Base slots.List

	// Holds are the live reservations, sorted by ID.
	Holds []HoldRecord

	// Committed are the permanent allocations, sorted by ID. Their
	// windows may reference nodes absent from Base (withdrawn after the
	// commit): the spans stay blocked should the capacity return.
	Committed []CommitRecord
}

// ExportState captures the full mutable state under the lock. The
// returned State shares windows (immutable) but owns all slices, so it
// stays valid while the inventory keeps mutating.
func (inv *Inventory) ExportState() *State {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	st := &State{
		Version:  inv.pub.Load().view.Version,
		Seq:      inv.seq,
		NextID:   inv.nextID,
		Counters: inv.counters,
	}
	ids := make([]int, 0, len(inv.base))
	for id := range inv.base {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, nid := range ids {
		n := inv.nodes[nid]
		for _, iv := range inv.base[nid] {
			st.Base = append(st.Base, &slots.Slot{Node: n, Interval: iv})
		}
	}
	for id, h := range inv.holds {
		st.Holds = append(st.Holds, HoldRecord{ID: id, Window: h.window, Expires: h.expires})
	}
	sort.Slice(st.Holds, func(i, j int) bool { return st.Holds[i].ID < st.Holds[j].ID })
	for id, w := range inv.committed {
		st.Committed = append(st.Committed, CommitRecord{ID: id, Window: w})
	}
	sort.Slice(st.Committed, func(i, j int) bool { return st.Committed[i].ID < st.Committed[j].ID })
	return st
}

// Restore builds an inventory from an exported State — the first half of
// crash recovery (the second is replaying the WAL tail with ApplyEvent).
// The published snapshot carries State.Version exactly, not a fresh
// counter: versions must survive restarts so clients can compare them
// across the boundary. Restore never journals; attach the
// WAL sink afterwards with AttachSink.
func Restore(st *State, opts Options) (*Inventory, error) {
	opts.Sink = nil
	inv := newEmpty(opts)
	inv.mu.Lock()
	defer inv.mu.Unlock()
	if err := inv.resetLocked(st); err != nil {
		return nil, err
	}
	return inv, nil
}

// resetLocked rebuilds every map from the State and publishes the free
// list at exactly State.Version.
func (inv *Inventory) resetLocked(st *State) error {
	g, valid := groupBase(st.Base)
	if !valid {
		// Validate finds the violation groupBase found; it words the error.
		return fmt.Errorf("inventory: restore: invalid base capacity: %w", st.Base.Validate())
	}
	inv.nodes = g.nodes
	inv.base = g.spans
	inv.alloc = make(map[int][]slots.Interval)
	inv.holds = make(map[string]*hold, len(st.Holds))
	inv.committed = make(map[string]*core.Window, len(st.Committed))
	for _, h := range st.Holds {
		if h.Window == nil || len(h.Window.Placements) == 0 {
			return fmt.Errorf("inventory: restore: hold %q has no window", h.ID)
		}
		if inv.holds[h.ID] != nil {
			return fmt.Errorf("inventory: restore: duplicate hold %q", h.ID)
		}
		inv.holds[h.ID] = &hold{window: h.Window, expires: h.Expires}
		inv.allocateLocked(h.Window.UsedIntervals())
	}
	for _, c := range st.Committed {
		if c.Window == nil || len(c.Window.Placements) == 0 {
			return fmt.Errorf("inventory: restore: commit %q has no window", c.ID)
		}
		if inv.committed[c.ID] != nil {
			return fmt.Errorf("inventory: restore: duplicate commit %q", c.ID)
		}
		inv.committed[c.ID] = c.Window
		inv.allocateLocked(c.Window.UsedIntervals())
	}
	inv.nextID = st.NextID
	inv.seq = st.Seq
	inv.counters = st.Counters
	inv.journal = nil
	inv.wait = nil
	// Publish at exactly State.Version with a rebuilt index and a
	// full-range invalidation: a reset replaces the whole pool, so no
	// cached result and no dormant watcher may survive unexamined. The
	// ring restarts at this version (it need not be prev+1).
	inv.free = make(map[int]slots.List, len(inv.base))
	seq, err := slots.SeqOf(inv.rebuildAllLocked())
	if err != nil {
		return fmt.Errorf("inventory: restore: %w", err)
	}
	c := Change{Version: st.Version, Lo: math.Inf(-1), Hi: math.Inf(1)}
	inv.inval.append(c)
	inv.pub.Store(inv.newPublished(st.Version, seq))
	inv.pending = append(inv.pending, c)
	return nil
}

// baseGroups is a State's base capacity grouped by node: each node's first
// *Node and its spans, merged as slots.MergeIntervals merges them.
type baseGroups struct {
	nodes map[int]*nodes.Node
	spans map[int][]slots.Interval

	// resorted counts the nodes whose slots arrived split or out of order.
	resorted int
}

// groupBase groups a base by node, merging touching spans in place, in one
// pass over the node runs ExportState writes (each node's slots
// consecutive and in start order). Only a node whose slots arrive split or
// out of order is collected and sorted, as Validate sorts its group. valid
// is exactly base.Validate() == nil: the per-slot checks are Validate's, a
// sorted node is checked as Validate checks it, and a run whose slots
// definitely ascend and are disjoint (no comparison involves a NaN) is one
// Validate accepts.
func groupBase(base slots.List) (g baseGroups, valid bool) {
	type run struct { // a node's first run: its first *Node, its spans in arena
		node     *nodes.Node
		from, to int
	}
	first := make(map[int]run)
	var split map[int][]slots.Interval // resorted nodes: all their spans, in list order
	arena := make([]slots.Interval, 0, len(base))
	for i := 0; i < len(base); {
		if base[i] == nil || base[i].Node == nil {
			return g, false
		}
		n, from, ordered := base[i].Node, len(arena), true
		id := n.ID
		for ; i < len(base) && base[i] != nil && base[i].Node != nil && base[i].Node.ID == id; i++ {
			s := base[i]
			if s.Length() <= 0 {
				return g, false
			}
			if !(s.Start < s.End) || (len(arena) > from && !(arena[len(arena)-1].End <= s.Start)) {
				ordered = false
			}
			arena = append(arena, s.Interval)
		}
		r, seen := first[id]
		if !seen {
			first[id] = run{n, from, len(arena)}
			if ordered {
				continue
			}
		}
		if split == nil {
			split = make(map[int][]slots.Interval)
		}
		if seen && split[id] == nil { // the node's first run was in order
			split[id] = slices.Clone(arena[r.from:r.to])
		}
		split[id] = append(split[id], arena[from:]...)
	}
	g.nodes = make(map[int]*nodes.Node, len(first))
	g.spans = make(map[int][]slots.Interval, len(first))
	for id, r := range first {
		g.nodes[id] = r.node
		if ivs, ok := split[id]; ok {
			sort.Slice(ivs, func(i, j int) bool { return ivs[i].Start < ivs[j].Start })
			for k := 1; k < len(ivs); k++ {
				if ivs[k-1].End > ivs[k].Start {
					return g, false
				}
			}
			g.spans[id] = slots.MergeIntervals(ivs)
			g.resorted++
			continue
		}
		out := arena[r.from:r.from]
		for _, iv := range arena[r.from:r.to] {
			if n := len(out); n > 0 && out[n-1].End == iv.Start {
				out[n-1].End = iv.End
				continue
			}
			out = append(out, iv)
		}
		g.spans[id] = out[:len(out):len(out)]
	}
	return g, true
}
