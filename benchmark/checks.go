package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"

	"slotsel"
	"slotsel/internal/core"
	"slotsel/internal/inventory"
	"slotsel/internal/persist"
	"slotsel/internal/slots"
	"slotsel/internal/wal"
)

// findChecker compares sampled /v1/find responses byte for byte with the
// named algorithm run directly on Pool.Snapshot(). It applies to workloads
// whose pool never changes, where the snapshot is the one every response
// was computed on.
type findChecker struct {
	in       *inputs
	snap     *inventory.Snapshot
	expected map[int][]byte // by index into inputs.find
}

func newFindChecker(in *inputs, snap *inventory.Snapshot) *findChecker {
	return &findChecker{in: in, snap: snap, expected: make(map[int][]byte)}
}

// expectedFind renders the response the server owes for request r on snap,
// with the server's own encoding steps.
func expectedFind(r request, snap *inventory.Snapshot) ([]byte, error) {
	alg, err := slotsel.AlgorithmByName(r.alg, 1)
	if err != nil {
		return nil, err
	}
	win, err := alg.Find(snap.Slots, r.req)
	if err != nil {
		return nil, fmt.Errorf("%s on the snapshot: %w", r.alg, err)
	}
	var wb bytes.Buffer
	if err := persist.WriteWindow(&wb, win); err != nil {
		return nil, err
	}
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	enc.SetIndent("", "  ")
	err = enc.Encode(map[string]any{
		"version": snap.Version,
		"window":  json.RawMessage(bytes.TrimSpace(wb.Bytes())),
	})
	return out.Bytes(), err
}

// verify checks the samples the lanes kept during the last round.
func (c *findChecker) verify(lanes []*lane) error {
	for _, l := range lanes {
		for _, s := range l.samples {
			want, ok := c.expected[s.body]
			if !ok {
				var err error
				if want, err = expectedFind(c.in.find[s.body], c.snap); err != nil {
					return err
				}
				c.expected[s.body] = want
			}
			if !bytes.Equal(s.resp, want) {
				return fmt.Errorf("find response for shape %d differs from %s on the snapshot:\n got %s\nwant %s",
					s.body, c.in.find[s.body].alg, s.resp, want)
			}
		}
	}
	return nil
}

// checkDisjoint verifies zero double-booking: over all committed windows no
// node has two spans overlapping with positive length.
func checkDisjoint(committed map[string]*core.Window) error {
	type owned struct {
		iv slots.Interval
		id string
	}
	perNode := make(map[int][]owned)
	for id, w := range committed {
		for nid, ivs := range w.UsedIntervals() {
			for _, iv := range ivs {
				perNode[nid] = append(perNode[nid], owned{iv, id})
			}
		}
	}
	for nid, spans := range perNode {
		sort.Slice(spans, func(i, j int) bool { return spans[i].iv.Start < spans[j].iv.Start })
		for i := 1; i < len(spans); i++ {
			if prev, cur := spans[i-1], spans[i]; prev.iv.End > cur.iv.Start {
				return fmt.Errorf("double booking on node %d: %s %v overlaps %s %v", nid, prev.id, prev.iv, cur.id, cur.iv)
			}
		}
	}
	return nil
}

// poolState is a pool's free list, live holds and committed map in a form
// two pools can be compared by.
type poolState struct {
	free      []string // "node:start:end" per free slot, sorted
	holds     []string
	committed map[string]string // id -> spans, sorted by node
}

func captureState(p inventory.Pool) poolState {
	st := poolState{holds: p.Holds(), committed: make(map[string]string)}
	for _, s := range p.Snapshot().Slots {
		st.free = append(st.free, fmt.Sprintf("%d:%g:%g", s.Node.ID, s.Start, s.End))
	}
	sort.Strings(st.free)
	for id, w := range p.Committed() {
		var spans []string
		for _, pl := range w.Placements {
			spans = append(spans, fmt.Sprintf("%d:%g:%g", pl.Node().ID, pl.Start, pl.Exec))
		}
		sort.Strings(spans)
		st.committed[id] = strings.Join(spans, " ")
	}
	return st
}

func (a poolState) diff(b poolState) error {
	if len(a.free) != len(b.free) {
		return fmt.Errorf("free list: %d slots live, %d recovered", len(a.free), len(b.free))
	}
	for i := range a.free {
		if a.free[i] != b.free[i] {
			return fmt.Errorf("free list differs: live %s, recovered %s", a.free[i], b.free[i])
		}
	}
	if strings.Join(a.holds, ",") != strings.Join(b.holds, ",") {
		return fmt.Errorf("holds differ: live %v, recovered %v", a.holds, b.holds)
	}
	if len(a.committed) != len(b.committed) {
		return fmt.Errorf("committed: %d live, %d recovered", len(a.committed), len(b.committed))
	}
	for id, spans := range a.committed {
		if b.committed[id] != spans {
			return fmt.Errorf("commit %s: live %q, recovered %q", id, spans, b.committed[id])
		}
	}
	return nil
}

// checkRecovery reopens the closed WAL directory and requires it to
// reproduce the state the live pool ended in: every acknowledged mutation
// survived.
func checkRecovery(w *workload, walDir string, live poolState) error {
	var recovered inventory.Pool
	var stores []*wal.Store
	if w.shards > 1 {
		pool, sts, _, err := wal.OpenSharded(walDir, w.shards, inventory.Options{}, wal.Options{})
		if err != nil {
			return err
		}
		stores = sts
		if pool != nil {
			recovered = pool
		}
	} else {
		inv, st, _, err := wal.Open(walDir, inventory.Options{}, wal.Options{})
		if err != nil {
			return err
		}
		stores = []*wal.Store{st}
		if inv != nil {
			recovered = inv
		}
	}
	var err error
	if recovered == nil {
		err = errors.New("the WAL directory recovered as empty")
	} else {
		err = live.diff(captureState(recovered))
	}
	for _, st := range stores {
		if cerr := st.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("recovery check: %w", err)
	}
	return nil
}
