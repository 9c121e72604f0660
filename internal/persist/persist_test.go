package persist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"slotsel/internal/core"
	"slotsel/internal/env"
	"slotsel/internal/job"
	"slotsel/internal/nodes"
	"slotsel/internal/slots"
	"slotsel/internal/testkit"
)

func TestEnvironmentRoundTrip(t *testing.T) {
	e := testkit.SmallEnv(1, 20, 400)
	var buf bytes.Buffer
	if err := WriteEnvironment(&buf, e); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEnvironment(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Horizon != e.Horizon {
		t.Errorf("horizon %g, want %g", got.Horizon, e.Horizon)
	}
	if len(got.Nodes) != len(e.Nodes) || len(got.Slots) != len(e.Slots) {
		t.Fatalf("sizes differ: %d/%d nodes, %d/%d slots",
			len(got.Nodes), len(e.Nodes), len(got.Slots), len(e.Slots))
	}
	for i := range e.Nodes {
		if *got.Nodes[i] != *e.Nodes[i] {
			t.Fatalf("node %d differs: %v vs %v", i, got.Nodes[i], e.Nodes[i])
		}
	}
	for i := range e.Slots {
		if got.Slots[i].Interval != e.Slots[i].Interval || got.Slots[i].Node.ID != e.Slots[i].Node.ID {
			t.Fatalf("slot %d differs", i)
		}
	}
}

func TestEnvironmentRoundTripPreservesSearchResults(t *testing.T) {
	// The acid test: algorithms must return identical windows on the
	// original and the deserialized environment.
	e := testkit.SmallEnv(2, 20, 400)
	var buf bytes.Buffer
	if err := WriteEnvironment(&buf, e); err != nil {
		t.Fatal(err)
	}
	e2, err := ReadEnvironment(&buf)
	if err != nil {
		t.Fatal(err)
	}
	req := testkit.SmallRequest(3, 300)
	for _, alg := range []core.Algorithm{core.AMP{}, core.MinCost{}, core.MinRunTime{}} {
		w1, err1 := alg.Find(e.Slots, &req)
		w2, err2 := alg.Find(e2.Slots, &req)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: feasibility differs after round trip", alg.Name())
		}
		if err1 != nil {
			continue
		}
		if w1.Start != w2.Start || w1.Cost != w2.Cost || w1.Runtime != w2.Runtime {
			t.Fatalf("%s: window differs after round trip: %v vs %v", alg.Name(), w1, w2)
		}
	}
}

func TestReadEnvironmentRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"garbage":       "{not json",
		"wrong version": `{"version": 99, "horizon": 100}`,
		"unknown node":  `{"version": 1, "horizon": 100, "nodes": [], "slots": [{"node": 7, "start": 0, "end": 10}]}`,
		"duplicate node": `{"version": 1, "horizon": 100,
			"nodes": [{"id":1,"perf":2,"price":1},{"id":1,"perf":3,"price":1}], "slots": []}`,
		"overlapping slots": `{"version": 1, "horizon": 100,
			"nodes": [{"id":1,"perf":2,"price":1}],
			"slots": [{"node":1,"start":0,"end":50},{"node":1,"start":40,"end":90}]}`,
	}
	for name, input := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadEnvironment(strings.NewReader(input)); err == nil {
				t.Error("bad input accepted")
			}
		})
	}
}

func TestRequestRoundTrip(t *testing.T) {
	r := &job.Request{
		TaskCount: 4, Volume: 120, MaxCost: 900, Deadline: 300,
		MinPerf: 5, MinRAMMB: 2048, MinDiskGB: 100,
		OS:   []nodes.OS{nodes.Linux, nodes.BSD},
		Arch: []nodes.Arch{nodes.AMD64},
	}
	var buf bytes.Buffer
	if err := WriteRequest(&buf, r); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRequest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.TaskCount != r.TaskCount || got.Volume != r.Volume || got.MaxCost != r.MaxCost ||
		got.Deadline != r.Deadline || got.MinPerf != r.MinPerf ||
		got.MinRAMMB != r.MinRAMMB || got.MinDiskGB != r.MinDiskGB ||
		len(got.OS) != 2 || len(got.Arch) != 1 {
		t.Fatalf("round trip mangled request: %+v vs %+v", got, r)
	}
}

func TestReadRequestRejectsInvalid(t *testing.T) {
	if _, err := ReadRequest(strings.NewReader(`{"tasks": 0, "volume": 100}`)); err == nil {
		t.Error("invalid request accepted")
	}
	if _, err := ReadRequest(strings.NewReader("nope")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestWindowRoundTrip(t *testing.T) {
	e := testkit.SmallEnv(3, 20, 400)
	req := testkit.SmallRequest(3, 300)
	w, err := (core.MinCost{}).Find(e.Slots, &req)
	if err != nil {
		t.Skip("no window on this seed")
	}
	var buf bytes.Buffer
	if err := WriteWindow(&buf, w); err != nil {
		t.Fatal(err)
	}
	got, err := ReadWindow(&buf, e)
	if err != nil {
		t.Fatal(err)
	}
	if got.Start != w.Start || got.Cost != w.Cost || got.Runtime != w.Runtime || got.Size() != w.Size() {
		t.Fatalf("window differs after round trip: %v vs %v", got, w)
	}
	if err := testkit.ValidateWindow(got, &req); err != nil {
		t.Fatalf("deserialized window invalid: %v", err)
	}
}

func TestReadWindowRejectsForeignWindow(t *testing.T) {
	// A window serialized against one environment must not resolve against
	// an environment lacking the referenced free spans.
	e := testkit.SmallEnv(4, 20, 400)
	req := testkit.SmallRequest(3, 300)
	w, err := (core.AMP{}).Find(e.Slots, &req)
	if err != nil {
		t.Skip("no window on this seed")
	}
	var buf bytes.Buffer
	if err := WriteWindow(&buf, w); err != nil {
		t.Fatal(err)
	}
	empty := testkit.SmallEnv(5, 0, 400)
	if _, err := ReadWindow(&buf, empty); err == nil {
		t.Error("window resolved against an empty environment")
	}
}

func TestReadWindowRejectsEmpty(t *testing.T) {
	e := testkit.SmallEnv(6, 5, 200)
	if _, err := ReadWindow(strings.NewReader(`{"placements": []}`), e); err == nil {
		t.Error("empty window accepted")
	}
}

func TestSlotListRoundTrip(t *testing.T) {
	e := testkit.SmallEnv(3, 15, 400)
	var buf bytes.Buffer
	if err := WriteSlotList(&buf, e.Slots); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSlotList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(e.Slots) {
		t.Fatalf("%d slots after round trip, want %d", len(got), len(e.Slots))
	}
	for i := range e.Slots {
		if got[i].Interval != e.Slots[i].Interval || got[i].Node.ID != e.Slots[i].Node.ID {
			t.Fatalf("slot %d differs: %v vs %v", i, got[i], e.Slots[i])
		}
		if *got[i].Node != *e.Slots[i].Node {
			t.Fatalf("node of slot %d differs: %v vs %v", i, got[i].Node, e.Slots[i].Node)
		}
	}
	if !got.IsSortedByStart() {
		t.Error("deserialized list not sorted by start")
	}
	// Slots on one node must share a single node object after relinking.
	byID := map[int]*nodes.Node{}
	for _, s := range got {
		if prev, ok := byID[s.Node.ID]; ok && prev != s.Node {
			t.Fatalf("node %d not shared between its slots", s.Node.ID)
		}
		byID[s.Node.ID] = s.Node
	}
}

func TestSlotListRoundTripEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSlotList(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSlotList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty list round-tripped to %d slots", len(got))
	}
}

func TestReadSlotListRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"garbage":       "{not json",
		"wrong version": `{"version": 99, "nodes": [], "slots": []}`,
		"unknown node":  `{"version": 1, "nodes": [], "slots": [{"node": 7, "start": 0, "end": 10}]}`,
		"duplicate node": `{"version": 1,
			"nodes": [{"id":1,"perf":2,"price":1},{"id":1,"perf":3,"price":1}], "slots": []}`,
		"overlapping slots": `{"version": 1,
			"nodes": [{"id":1,"perf":2,"price":1}],
			"slots": [{"node":1,"start":0,"end":50},{"node":1,"start":40,"end":90}]}`,
		"zero-length slot": `{"version": 1,
			"nodes": [{"id":1,"perf":2,"price":1}],
			"slots": [{"node":1,"start":10,"end":10}]}`,
	}
	for name, input := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadSlotList(strings.NewReader(input)); err == nil {
				t.Error("bad input accepted")
			}
		})
	}
}

// ReadWindow deserializes a window written by WriteWindow against the given
// environment: placements are re-linked to the environment's slots (the slot
// containing the placement's span on the referenced node). No binary reads a
// window back, so this reader lives with the tests that round-trip one.
func ReadWindow(r io.Reader, e *env.Environment) (*core.Window, error) {
	var in windowJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("persist: decoding window: %w", err)
	}
	var cands []core.Candidate
	for _, pj := range in.Placements {
		slot := findSlot(e, pj.Node, pj.Start, pj.Start+pj.Exec)
		if slot == nil {
			return nil, fmt.Errorf("persist: no slot on node %d covering [%g, %g)", pj.Node, pj.Start, pj.Start+pj.Exec)
		}
		cands = append(cands, core.Candidate{Slot: slot, Exec: pj.Exec, Cost: pj.Cost})
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("persist: window has no placements")
	}
	return core.NewWindow(in.Start, cands), nil
}

func findSlot(e *env.Environment, nodeID int, start, end float64) *slots.Slot {
	for _, s := range e.Slots {
		if s.Node.ID == nodeID && s.Start <= start && end <= s.End {
			return s
		}
	}
	return nil
}
