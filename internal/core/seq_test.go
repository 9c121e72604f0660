package core_test

import (
	"strings"
	"testing"

	"slotsel/internal/core"
	"slotsel/internal/job"
	"slotsel/internal/obs"
	"slotsel/internal/randx"
	"slotsel/internal/slots"
	"slotsel/internal/testkit"
)

// tiedList builds a list in publication order in which most start times are
// shared by several nodes, so that small leaves cut through runs of equal
// starts.
func tiedList(rng *randx.Rand, nodeCount int) slots.List {
	var l slots.List
	for id := 0; id < nodeCount; id++ {
		n := testkit.Node(id, float64(rng.IntRange(2, 10)), 0.5+2*rng.Float64())
		for start := 0; start < 400; start += 50 {
			if rng.Intn(4) == 0 {
				continue
			}
			l = append(l, testkit.Slot(n, float64(start), float64(start+rng.IntRange(20, 48))))
		}
	}
	l.SortByStart()
	return l
}

// boundaryInsideTie reports whether some leaf of the sequence ends in the
// middle of a run of equal starts.
func boundaryInsideTie(seq *slots.Seq) bool {
	cur := seq.Cursor()
	prev := cur.Next()
	for leaf := cur.Next(); leaf != nil; prev, leaf = leaf, cur.Next() {
		if prev[len(prev)-1].Start == leaf[0].Start {
			return true
		}
	}
	return false
}

// TestScanOverSeqMatchesList is the scan differential of the chunked
// sequence: every catalogue algorithm returns the identical window and the
// identical ScanStats whether the slots arrive as one caller's list or as a
// sequence re-chunked at any leaf size — including leaves that end inside a
// run of equal starts, which must still be coalesced into one visit.
func TestScanOverSeqMatchesList(t *testing.T) {
	sc := core.NewScanner()
	for seed := uint64(1); seed <= 24; seed++ {
		rng := randx.New(seed)
		list := tiedList(rng, 10)
		req := job.Request{
			TaskCount: rng.IntRange(1, 4),
			Volume:    float64(rng.IntRange(40, 120)),
			MaxCost:   float64(rng.IntRange(100, 1500)),
		}
		if rng.Intn(3) == 0 {
			req.Deadline = float64(rng.IntRange(100, 400))
		}
		for _, alg := range catalogue(seed) {
			var want obs.Stats
			r := req
			w, wantErr := sc.Find(alg, list.Cursor(), &r, &want)
			wantSig := ""
			if wantErr == nil {
				wantSig = testkit.WindowSignature(w)
			}
			for _, leaf := range []int{1, 2, 3, 7, 0} {
				seq, err := slots.SeqOf(list)
				if leaf > 0 {
					seq, err = slots.SeqOfLeaf(list, leaf)
				}
				if err != nil {
					t.Fatal(err)
				}
				if leaf > 0 && leaf <= 3 && !boundaryInsideTie(seq) {
					t.Fatalf("seed=%d leaf=%d: no leaf boundary inside a run of equal starts; the fixture lost its point", seed, leaf)
				}
				var got obs.Stats
				r := req
				w, err := sc.Find(alg, seq.Cursor(), &r, &got)
				if (err == nil) != (wantErr == nil) {
					t.Fatalf("seed=%d alg=%s leaf=%d: err %v over the sequence, %v over the list", seed, alg.Name(), leaf, err, wantErr)
				}
				if err == nil {
					if sig := testkit.WindowSignature(w); sig != wantSig {
						t.Errorf("seed=%d alg=%s leaf=%d: window differs\n seq: %s\nlist: %s", seed, alg.Name(), leaf, sig, wantSig)
					}
				}
				if g, w := got.Snapshot().Scan, want.Snapshot().Scan; g != w || g.Scans != 1 {
					t.Errorf("seed=%d alg=%s leaf=%d: ScanStats differ\n seq: %+v\nlist: %+v", seed, alg.Name(), leaf, g, w)
				}
			}
		}
	}
}

// TestOrderIsCheckedWhereTheSlotsComeFrom: a caller's list is checked in
// full on every search, with the error the scan has always returned; a
// sequence cannot be built from the same list in the first place, so a
// search over a sequence has nothing left to check.
func TestOrderIsCheckedWhereTheSlotsComeFrom(t *testing.T) {
	list := tiedList(randx.New(5), 6)
	list[2], list[len(list)-1] = list[len(list)-1], list[2]
	req := job.Request{TaskCount: 2, Volume: 60}
	sc := core.NewScanner()
	for i := 0; i < 2; i++ {
		_, err := sc.Find(core.AMP{}, list.Cursor(), &req, nil)
		if err == nil || err.Error() != "core: slot list is not ordered by start time" {
			t.Fatalf("search %d over a mis-ordered list: %v", i, err)
		}
	}
	for _, leaf := range []int{1, 4, len(list)} {
		if _, err := slots.SeqOfLeaf(list, leaf); err == nil || !strings.Contains(err.Error(), "out of order") {
			t.Errorf("leaf=%d: a mis-ordered leaf was not rejected at build time: %v", leaf, err)
		}
	}
}

// TestScannerFindSeqAllocs: a search over a published sequence is as
// allocation-free on a warmed-up scanner as one over a list — walking
// leaves costs nothing per search.
func TestScannerFindSeqAllocs(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	list := testkit.RandomList(randx.New(3), 16, 4, 400)
	seq, err := slots.SeqOfLeaf(list, 8)
	if err != nil {
		t.Fatal(err)
	}
	req := job.Request{TaskCount: 3, Volume: 80, MaxCost: 5000}
	for _, ab := range scannerBudgets() {
		sc := core.NewScanner()
		r := req
		if _, err := sc.Find(ab.alg, seq.Cursor(), &r, nil); err != nil {
			t.Fatalf("%s: warm-up find failed: %v", ab.alg.Name(), err)
		}
		got := testing.AllocsPerRun(50, func() {
			_, _ = sc.Find(ab.alg, seq.Cursor(), &r, nil)
		})
		if got > ab.scanner {
			t.Errorf("%s: %v allocs/op over a sequence, budget %v", ab.alg.Name(), got, ab.scanner)
		}
	}
}
