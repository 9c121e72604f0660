package core_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"slotsel/internal/core"
	"slotsel/internal/job"
	"slotsel/internal/nodes"
	"slotsel/internal/obs"
	"slotsel/internal/randx"
	"slotsel/internal/slots"
	"slotsel/internal/testkit"
)

// statsRecorder keeps the counters of the last scan it saw.
type statsRecorder struct {
	obs.Nop
	last obs.ScanStats
}

func (r *statsRecorder) ScanDone(s obs.ScanStats) { r.last = s }

// TestMinCostWindowDump is the window dump of the cost criteria: 200 seeds
// x cursors {list, leaf 1, 3, 7} x {MinCost, AMP} x budget {none, loose,
// binding}, every scanner window compared with the oracle twin's, which
// sorts the whole window at every visit. Lists run to 160 nodes, so windows
// outgrow the cost order's cut many times over. A loose budget is 1.6 and a
// binding one 1.02 times the cost of the list's cheapest window: AMP then
// selects at visit after visit before one fits.
//
// AMP's ScanStats equal the oracle's. MinCost admits only the candidates
// some acceptable window could hold (its cost bound), so of its ScanStats
// Slots and Matched equal the oracle's and Candidates is at most the
// oracle's; some search must admit fewer. The digest covers the windows
// alone, so it is the same for any tree that finds the same windows. With
// -v it logs one line per search, counters included:
//
//	go test -run TestMinCostWindowDump -v ./internal/core
func TestMinCostWindowDump(t *testing.T) {
	sc := core.NewScanner()
	digest := sha256.New()
	searches, pruned := 0, 0
	for seed := uint64(1); seed <= 200; seed++ {
		rng := randx.New(seed)
		list := testkit.HeteroList(rng, rng.IntRange(8, 160), 4, 600)
		base := job.Request{TaskCount: rng.IntRange(1, 6), Volume: float64(rng.IntRange(40, 150))}
		if rng.Intn(3) == 0 {
			base.Deadline = float64(rng.IntRange(150, 600))
		}
		if rng.Intn(3) == 0 {
			base.MinPerf = float64(rng.IntRange(3, 8))
		}
		if rng.Intn(4) == 0 {
			base.OS = []nodes.OS{nodes.Linux}
		}
		type cursorCase struct {
			name string
			cur  func() slots.Cursor
		}
		cursors := []cursorCase{{"list", list.Cursor}}
		for _, leaf := range []int{1, 3, 7} {
			seq, err := slots.SeqOfLeaf(list, leaf)
			if err != nil {
				t.Fatal(err)
			}
			cursors = append(cursors, cursorCase{fmt.Sprintf("leaf=%d", leaf), seq.Cursor})
		}
		loose, binding := 3000.0, 100.0
		r := base
		if w, err := (core.MinCost{}).Find(list, &r); err == nil {
			loose, binding = 1.6*w.Cost, 1.02*w.Cost
		}
		budgets := []struct {
			name string
			cost float64
		}{{"none", 0}, {"loose", loose}, {"binding", binding}}
		for _, budget := range budgets {
			req := base
			req.MaxCost = budget.cost
			for _, alg := range []core.Algorithm{core.MinCost{}, core.AMP{}} {
				oracle, _ := core.Oracle(alg)
				var orec statsRecorder
				r := req
				ow, oerr := oracle.(core.ObservedFinder).FindObserved(list, &r, &orec)
				want := testkit.WindowSignature(ow)
				for _, c := range cursors {
					var rec statsRecorder
					r := req
					w, err := sc.Find(alg, c.cur(), &r, &rec)
					if (err == nil) != (oerr == nil) {
						t.Fatalf("seed=%d %s alg=%s budget=%s: scanner err=%v, oracle err=%v", seed, c.name, alg.Name(), budget.name, err, oerr)
					}
					got := testkit.WindowSignature(w)
					if got != want {
						t.Errorf("seed=%d %s alg=%s budget=%s: scanner and oracle diverged\nscanner: %s\noracle:  %s", seed, c.name, alg.Name(), budget.name, got, want)
					}
					if _, isMinCost := alg.(core.MinCost); isMinCost {
						if st, ost := rec.last, orec.last; st.Slots != ost.Slots || st.Matched != ost.Matched || st.Candidates > ost.Candidates {
							t.Errorf("seed=%d %s alg=%s budget=%s: scanner ScanStats %+v, oracle %+v: want its Slots and Matched, at most its Candidates", seed, c.name, alg.Name(), budget.name, st, ost)
						} else if st.Candidates < ost.Candidates {
							pruned++
						}
					} else if rec.last != orec.last {
						t.Errorf("seed=%d %s alg=%s budget=%s: scanner ScanStats %+v, oracle %+v", seed, c.name, alg.Name(), budget.name, rec.last, orec.last)
					}
					line := fmt.Sprintf("seed=%d %s alg=%s budget=%s %s", seed, c.name, alg.Name(), budget.name, got)
					fmt.Fprintln(digest, line)
					if testing.Verbose() {
						t.Logf("%s %+v", line, rec.last)
					}
					searches++
				}
			}
		}
	}
	if pruned == 0 {
		t.Error("no MinCost search admitted fewer candidates than the oracle: the cost bound never pruned")
	}
	t.Logf("windows sha256 %x over %d searches; %d MinCost searches pruned", digest.Sum(nil), searches, pruned)
}
