package core_test

import (
	"fmt"
	"math"
	"testing"

	"slotsel/internal/core"
	"slotsel/internal/job"
	"slotsel/internal/randx"
	"slotsel/internal/slots"
	"slotsel/internal/testkit"
)

// refVisit is one scan position of the reference scan: the window start and
// the suitable candidates in append order.
type refVisit struct {
	start float64
	cands []core.Candidate
}

// referenceScan is the scan's window maintenance the way the paper states
// it and the way it was first written: append every suitable slot sharing
// the current start, then test every retained candidate with
// effEnd − start >= Exec and keep the ones that pass. No heap, no key: it is
// what the index's expiry has to equal at every visit.
func referenceScan(list slots.List, req *job.Request) []refVisit {
	effEnd := func(s *slots.Slot) float64 {
		if req.Deadline > 0 && req.Deadline < s.End {
			return req.Deadline
		}
		return s.End
	}
	var visits []refVisit
	var kept []core.Candidate
	for i := 0; i < len(list); {
		start := list[i].Start
		added := false
		for ; i < len(list) && list[i].Start == start; i++ {
			s := list[i]
			if !req.Matches(s.Node) {
				continue
			}
			exec := req.ExecTime(s.Node)
			if effEnd(s) < start+exec || (req.Deadline > 0 && start+exec > req.Deadline) {
				continue
			}
			kept = append(kept, core.Candidate{Slot: s, Exec: exec, Cost: exec * s.Node.Price})
			added = true
		}
		if !added {
			continue
		}
		live := kept[:0]
		for _, c := range kept {
			if effEnd(c.Slot)-start >= c.Exec {
				live = append(live, c)
			}
		}
		kept = live
		if len(kept) >= req.TaskCount {
			visits = append(visits, refVisit{start, append([]core.Candidate(nil), kept...)})
		}
	}
	return visits
}

// referenceMinCost is MinCost over the reference scan's visits: the n
// cheapest of each window (equals in append order, as the index keeps
// them), the first strictly cheaper one within the budget.
func referenceMinCost(ref []refVisit, req *job.Request) *core.Window {
	var best *core.Window
	for _, v := range ref {
		cands := append([]core.Candidate(nil), v.cands...)
		byCostStable(cands)
		chosen := cands[:req.TaskCount]
		cost := 0.0
		for _, c := range chosen {
			cost += c.Cost
		}
		if (req.MaxCost <= 0 || cost <= req.MaxCost) && (best == nil || cost < best.Cost) {
			best = core.NewWindow(v.start, chosen)
		}
	}
	return best
}

// checkAgainstReference runs alg over cur with a visit wrap that holds every
// visit to the reference scan: same start, Len() equal to the reference
// window's length before Cands() is read, Cands() equal to it element for
// element after. A search that stops early visits a prefix of the reference.
//
// MinCost admits only the candidates some acceptable window could hold, so
// its visits are a subsequence of the reference's, each window a
// subsequence of the reference window at the same start (Len() its length
// again), and its answer is referenceMinCost's.
func checkAgainstReference(t *testing.T, who string, sc *core.Scanner, alg core.Algorithm, cur slots.Cursor, req job.Request, ref []refVisit) {
	t.Helper()
	_, bounded := alg.(core.MinCost)
	k := 0
	core.SetVisitWrapForTest(func(visit core.VisitFunc) core.VisitFunc {
		return func(start float64, win *core.WindowIndex) bool {
			for bounded && k < len(ref) && ref[k].start < start {
				k++
			}
			if k >= len(ref) {
				t.Fatalf("%s: visit %d at start %x, the reference scan has %d", who, k, start, len(ref))
			}
			want := ref[k]
			if start != want.start {
				t.Fatalf("%s: visit %d at start %x, reference %x", who, k, start, want.start)
			}
			n := win.Len()
			got := win.Cands()
			if bounded {
				if n != len(got) || !isSubsequence(got, want.cands) {
					t.Fatalf("%s: visit at start %x: Len() %d, Cands() %d long, not a subsequence of the reference window of %d", who, start, n, len(got), len(want.cands))
				}
				k++
				return visit(start, win)
			}
			if n != len(want.cands) {
				t.Fatalf("%s: visit %d (start %x): Len() = %d before Cands() is read, reference window %d", who, k, start, n, len(want.cands))
			}
			if len(got) != len(want.cands) {
				t.Fatalf("%s: visit %d (start %x): Cands() holds %d, reference window %d", who, k, start, len(got), len(want.cands))
			}
			for i := range got {
				if got[i] != want.cands[i] {
					t.Fatalf("%s: visit %d (start %x): Cands()[%d] = %+v on node %d, reference %+v on node %d",
						who, k, start, i, got[i], got[i].Slot.Node.ID, want.cands[i], want.cands[i].Slot.Node.ID)
				}
			}
			k++
			return visit(start, win)
		}
	})
	defer core.SetVisitWrapForTest(nil)
	w, err := sc.Find(alg, cur, &req, nil)
	if err != nil && err != core.ErrNoWindow {
		t.Fatalf("%s: %v", who, err)
	}
	if bounded {
		if got, want := testkit.WindowSignature(w), testkit.WindowSignature(referenceMinCost(ref, &req)); got != want {
			t.Fatalf("%s: window %s, over the reference scan %s", who, got, want)
		}
		return
	}
	// AMP stops at its first window, and the runtime criteria once their
	// floor settles the answer: each visits a prefix of the reference.
	stopsEarly := false
	switch alg.(type) {
	case core.AMP, core.MinRunTime, core.MinFinish:
		stopsEarly = true
	}
	if !stopsEarly && k != len(ref) {
		t.Fatalf("%s: %d visits, the reference scan has %d", who, k, len(ref))
	}
}

// isSubsequence reports whether sub is seq with some elements left out.
func isSubsequence(sub, seq []core.Candidate) bool {
	i := 0
	for _, c := range seq {
		if i < len(sub) && sub[i] == c {
			i++
		}
	}
	return i == len(sub)
}

// TestWindowMatchesReferenceScan is the tombstone check on the differential
// suite's instances: whatever the selects of an algorithm built, dropped or
// left unbuilt, at every visit the index's window is the reference scan's —
// read as Len() first and as Cands() after — over a list and over sequences
// whose leaves end inside runs of equal starts, and with selection-order
// blocks small enough to split and merge on these windows.
func TestWindowMatchesReferenceScan(t *testing.T) {
	defer core.SetOrderBlockCapForTest(core.SetOrderBlockCapForTest(3))
	sc := core.NewScanner()
	for seed := uint64(1); seed <= diffSeeds; seed++ {
		rng := randx.New(seed)
		list := testkit.HeteroList(rng, 8, 4, 300)
		if seed%2 == 0 {
			list = tiedList(rng, 10)
		}
		req := job.Request{
			TaskCount: rng.IntRange(1, 4),
			Volume:    float64(rng.IntRange(40, 150)),
			MaxCost:   float64(rng.IntRange(100, 1200)),
		}
		if rng.Intn(3) == 0 {
			req.Deadline = float64(rng.IntRange(100, 300))
		}
		ref := referenceScan(list, &req)
		for _, alg := range catalogue(seed) {
			checkAgainstReference(t, fmt.Sprintf("seed=%d alg=%s list", seed, alg.Name()), sc, alg, list.Cursor(), req, ref)
			for _, leaf := range []int{1, 3, 7} {
				seq, err := slots.SeqOfLeaf(list, leaf)
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstReference(t, fmt.Sprintf("seed=%d alg=%s leaf=%d", seed, alg.Name(), leaf), sc, alg, seq.Cursor(), req, ref)
			}
		}
	}
}

// ulps moves x by k units in the last place.
func ulps(x float64, k int) float64 {
	for ; k > 0; k-- {
		x = math.Nextafter(x, math.Inf(1))
	}
	for ; k < 0; k++ {
		x = math.Nextafter(x, math.Inf(-1))
	}
	return x
}

// boundaryList builds the expiry-boundary fixture: node 0 publishes one slot
// [0, end), and five more nodes publish long slots whose starts sit at
// −2..+2 ulps around the last start at which node 0's slot still hosts a
// task of the given volume (cut by the deadline, when there is one), so
// every one of those scan positions asks the expiry to decide within an ulp.
// It reports how many of them the precomputed key — effEnd − Exec compared
// with the start — would decide differently from the scan's predicate.
func boundaryList(perf, volume, end, deadline float64) (list slots.List, req job.Request, disagreements int) {
	req = job.Request{TaskCount: 2, Volume: volume, Deadline: deadline}
	first := testkit.Node(0, perf, 1.5)
	exec := req.ExecTime(first)
	eff := end
	if deadline > 0 && deadline < end {
		eff = deadline
	}
	list = append(list, testkit.Slot(first, 0, end))
	for k := -2; k <= 2; k++ {
		// Fast nodes, so their own tasks fit long after node 0's stopped to.
		n := testkit.Node(k+3, 4*perf, 1+0.25*float64(k+3))
		start := ulps(eff-exec, k)
		list = append(list, testkit.Slot(n, start, start+10*exec))
		if (eff-start >= exec) != (eff-exec >= start) {
			disagreements++
		}
	}
	list.SortByStart()
	return list, req, disagreements
}

// TestExpiryBoundary pins what decides an expiry: the scan's predicate,
// effEnd − start >= Exec, evaluated on the candidate — not the heap key
// derived from effEnd − Exec, which rounds differently in the last place.
// Every instance puts scan positions within two ulps of a candidate's last
// feasible start; the window must equal the reference scan's at each of
// them, and all nine algorithms must match their oracle twins on it.
func TestExpiryBoundary(t *testing.T) {
	type instance struct{ perf, volume, end, deadline float64 }
	table := []instance{
		{perf: 3, volume: 0.1 * 7, end: 0.1 * 37},
		{perf: 7, volume: 0.1 * 3, end: 0.1 * 11},
		{perf: 0.3, volume: 0.1 * 9, end: 50.7},
		{perf: 9, volume: 150, end: 433.1},
		{perf: 3, volume: 100, end: 600, deadline: 0.1 * 2047},
		{perf: 6, volume: 0.1 * 13, end: 90, deadline: 0.1 * 171},
		{perf: 1.1, volume: 0.7, end: 1e6 + 0.3},
	}
	rng := randx.New(19)
	for i := 0; i < 400; i++ {
		in := instance{
			perf:   0.1 * float64(rng.IntRange(3, 120)),
			volume: 0.1 * float64(rng.IntRange(1, 2000)),
			end:    0.1 * float64(rng.IntRange(1000, 9000)),
		}
		if rng.Intn(2) == 0 {
			in.deadline = 0.1 * float64(rng.IntRange(500, 900))
		}
		table = append(table, in)
	}

	sc := core.NewScanner()
	disagreeing := 0
	for _, in := range table {
		list, req, d := boundaryList(in.perf, in.volume, in.end, in.deadline)
		if d > 0 {
			disagreeing++
		}
		ref := referenceScan(list, &req)
		for _, alg := range catalogue(7) {
			who := fmt.Sprintf("%+v alg=%s", in, alg.Name())
			checkAgainstReference(t, who, sc, alg, list.Cursor(), req, ref)

			oracle, _ := core.Oracle(alg)
			r1, r2 := req, req
			incW, incErr := alg.Find(list, &r1)
			orcW, orcErr := oracle.Find(list, &r2)
			if (incErr == nil) != (orcErr == nil) {
				t.Fatalf("%s: feasibility diverged: incremental err=%v, oracle err=%v", who, incErr, orcErr)
			}
			if is, os := testkit.WindowSignature(incW), testkit.WindowSignature(orcW); is != os {
				t.Errorf("%s: incremental and oracle windows diverged\nincremental: %s\noracle:      %s", who, is, os)
			}
		}
	}
	// The fixture has a point only while the key and the predicate disagree
	// somewhere on it.
	if disagreeing < 20 {
		t.Fatalf("only %d of %d instances have a start where effEnd-Exec >= start and effEnd-start >= Exec differ", disagreeing, len(table))
	}
}
