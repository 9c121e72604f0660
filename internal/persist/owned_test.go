package persist

import (
	"bytes"
	"testing"

	"slotsel/internal/core"
	"slotsel/internal/testkit"
)

func TestOwnedWindowRoundTrip(t *testing.T) {
	e := testkit.SmallEnv(3, 20, 400)
	req := testkit.SmallRequest(3, 300)
	w, err := (core.MinCost{}).Find(e.Slots, &req)
	if err != nil {
		t.Skip("no window on this seed")
	}
	var buf bytes.Buffer
	if err := WriteOwnedWindow(&buf, w); err != nil {
		t.Fatal(err)
	}
	got, err := ParseOwnedWindow(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// Value-identical reconstruction without any environment at hand: the
	// signature covers every placement field including the slot interval.
	if gs, ws := testkit.WindowSignature(got), testkit.WindowSignature(w); gs != ws {
		t.Fatalf("round trip mangled window:\n got %s\nwant %s", gs, ws)
	}
	// Node attributes survive too (they are what fitsLocked and Matches
	// look at after a recovery).
	for i := range w.Placements {
		if *got.Placements[i].Node() != *w.Placements[i].Node() {
			t.Fatalf("placement %d node differs: %+v vs %+v",
				i, got.Placements[i].Node(), w.Placements[i].Node())
		}
	}
}

func TestReadOwnedWindowRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"garbage":       "{nope",
		"wrong version": `{"version": 9, "start": 0, "placements": [{"node":1,"start":0,"exec":1,"slot_start":0,"slot_end":5}]}`,
		"empty":         `{"version": 1, "start": 0, "nodes": [], "placements": []}`,
		"unknown node":  `{"version": 1, "start": 0, "nodes": [], "placements": [{"node":7,"start":0,"exec":1,"slot_start":0,"slot_end":5}]}`,
		"duplicate node": `{"version": 1, "start": 0,
			"nodes": [{"id":1,"perf":1,"price":1},{"id":1,"perf":2,"price":1}],
			"placements": [{"node":1,"start":0,"exec":1,"slot_start":0,"slot_end":5}]}`,
		"escapes slot": `{"version": 1, "start": 0,
			"nodes": [{"id":1,"perf":1,"price":1}],
			"placements": [{"node":1,"start":0,"exec":9,"slot_start":0,"slot_end":5}]}`,
		"start mismatch": `{"version": 1, "start": 1,
			"nodes": [{"id":1,"perf":1,"price":1}],
			"placements": [{"node":1,"start":0,"exec":1,"slot_start":0,"slot_end":5}]}`,
		"empty slot": `{"version": 1, "start": 0,
			"nodes": [{"id":1,"perf":1,"price":1}],
			"placements": [{"node":1,"start":0,"exec":1,"slot_start":5,"slot_end":5}]}`,
		"nan exec": `{"version": 1, "start": 0,
			"nodes": [{"id":1,"perf":1,"price":1}],
			"placements": [{"node":1,"start":0,"exec":"NaN","slot_start":0,"slot_end":5}]}`,
		"negative exec": `{"version": 1, "start": 0,
			"nodes": [{"id":1,"perf":1,"price":1}],
			"placements": [{"node":1,"start":0,"exec":-2,"slot_start":0,"slot_end":5}]}`,
	}
	for name, input := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ParseOwnedWindow([]byte(input)); err == nil {
				t.Error("bad input accepted")
			}
		})
	}
}
