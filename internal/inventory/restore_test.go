package inventory

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"slotsel/internal/nodes"
	"slotsel/internal/slots"
)

// referenceGroups is the grouping groupBase replaced: every node's spans
// appended in list order, then merged.
func referenceGroups(base slots.List) map[int][]slots.Interval {
	out := make(map[int][]slots.Interval)
	for _, s := range base {
		out[s.Node.ID] = append(out[s.Node.ID], s.Interval)
	}
	for id := range out {
		out[id] = slots.MergeIntervals(out[id])
	}
	return out
}

// TestExportStateTakesOnePass: every base ExportState writes — after
// bookings, withdrawals and adds that touch, overlap and extend known spans
// — is grouped in one pass, with no node sorted, to what the old grouping
// built; the same base shuffled still groups to it, through the sorting
// path.
func TestExportStateTakesOnePass(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		inv := churn(t, seed, 60)
		for _, s := range inv.Snapshot().Slots[:4] {
			more := slots.List{
				{Node: s.Node, Interval: slots.Interval{Start: s.End, End: s.End + 7}},
				{Node: &nodes.Node{ID: 100 + s.Node.ID, Perf: 1, Price: 1}, Interval: s.Interval},
			}
			if err := inv.Add(more); err != nil {
				t.Fatal(err)
			}
		}
		base := inv.ExportState().Base
		g, valid := groupBase(base)
		if !valid || g.resorted != 0 {
			t.Fatalf("seed %d: ExportState's base grouped valid=%v with %d nodes sorted, want valid with none", seed, valid, g.resorted)
		}
		want := referenceGroups(base)
		if !reflect.DeepEqual(g.spans, want) {
			t.Fatalf("seed %d: grouped %v, want %v", seed, g.spans, want)
		}
		for _, s := range base {
			if g.nodes[s.Node.ID] != s.Node {
				t.Fatalf("seed %d: node %d is not the base's own", seed, s.Node.ID)
			}
		}
		shuffled := append(slots.List(nil), base...)
		rand.New(rand.NewSource(int64(seed))).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		g, valid = groupBase(shuffled)
		if !valid || g.resorted == 0 || !reflect.DeepEqual(g.spans, want) {
			t.Fatalf("seed %d: shuffled base grouped valid=%v, %d nodes sorted, %v; want %v", seed, valid, g.resorted, g.spans, want)
		}
	}
}

// TestRestoreRejectsInvalidBase: a base Validate refuses fails Restore with
// the error text Restore gave when it called Validate first, whether the
// bad slots sit in one ordered run, split across runs or out of order.
func TestRestoreRejectsInvalidBase(t *testing.T) {
	n1, n2 := &nodes.Node{ID: 1, Perf: 1, Price: 1}, &nodes.Node{ID: 2, Perf: 1, Price: 1}
	sl := func(n *nodes.Node, a, b float64) *slots.Slot {
		return &slots.Slot{Node: n, Interval: slots.Interval{Start: a, End: b}}
	}
	const prefix = "inventory: restore: invalid base capacity: "
	for _, tc := range []struct {
		name string
		base slots.List
		want string
	}{
		{"overlap", slots.List{sl(n1, 0, 5), sl(n1, 3, 8), sl(n2, 0, 5)},
			"slots: node 1 has overlapping slots slot{node=1 [0.00,5.00)} and slot{node=1 [3.00,8.00)}"},
		{"overlap split", slots.List{sl(n1, 0, 5), sl(n2, 0, 5), sl(n1, 4, 9)},
			"slots: node 1 has overlapping slots slot{node=1 [0.00,5.00)} and slot{node=1 [4.00,9.00)}"},
		{"overlap unordered", slots.List{sl(n2, 6, 9), sl(n2, 0, 7), sl(n1, 0, 5)},
			"slots: node 2 has overlapping slots slot{node=2 [0.00,7.00)} and slot{node=2 [6.00,9.00)}"},
		{"zero length", slots.List{sl(n1, 0, 5), sl(n2, 5, 5)},
			"slots: slot 1 has non-positive length: slot{node=2 [5.00,5.00)}"},
		{"inverted", slots.List{sl(n1, 0, 5), sl(n2, 5, 4)},
			"slots: slot 1 has non-positive length: slot{node=2 [5.00,4.00)}"},
		{"nil node", slots.List{sl(n1, 0, 5), sl(nil, 0, 5)}, "slots: slot 1 has nil node"},
		{"nil slot", slots.List{sl(n1, 0, 5), sl(n2, 0, 5), nil}, "slots: nil slot at index 2"},
	} {
		_, err := Restore(&State{Base: tc.base}, Options{MinSlotLength: 1})
		if err == nil || err.Error() != prefix+tc.want {
			t.Errorf("%s: Restore error %v, want %q", tc.name, err, prefix+tc.want)
		}
	}
}

// TestGroupBaseAgreesWithValidate: on small random bases — runs split and
// out of order, touching, overlapping, empty, inverted and NaN spans, nil
// slots and nodes — groupBase is valid exactly when Validate passes, and
// then groups as the old grouping did.
func TestGroupBaseAgreesWithValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ns := []*nodes.Node{nil, {ID: 1}, {ID: 2}, {ID: 3}}
	ends := []float64{0, 1, 2, 3, 5, 8, math.NaN(), math.Inf(1), math.Inf(-1)}
	for i := 0; i < 20000; i++ {
		base := make(slots.List, rng.Intn(7))
		for k := range base {
			if rng.Intn(40) == 0 {
				continue // a nil slot
			}
			n := ns[1+rng.Intn(3)]
			if rng.Intn(40) == 0 {
				n = nil
			}
			a := ends[rng.Intn(len(ends))]
			if rng.Intn(3) > 0 {
				a = ends[rng.Intn(6)]
			}
			b := a + float64(rng.Intn(4))
			if rng.Intn(8) == 0 {
				b = ends[rng.Intn(len(ends))]
			}
			base[k] = &slots.Slot{Node: n, Interval: slots.Interval{Start: a, End: b}}
		}
		g, valid := groupBase(base)
		verr := base.Validate()
		if valid != (verr == nil) {
			t.Fatalf("%v: groupBase valid=%v, Validate %v", base, valid, verr)
		}
		if valid && !reflect.DeepEqual(g.spans, referenceGroups(base)) {
			t.Fatalf("%v: grouped %v, want %v", base, g.spans, referenceGroups(base))
		}
	}
}
