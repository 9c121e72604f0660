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

// dumpRecorder counts the scans a visitor ended early.
type dumpRecorder struct {
	obs.Nop
	scans, stopped int
}

func (r *dumpRecorder) ScanDone(s obs.ScanStats) {
	r.scans++
	if s.EarlyStop {
		r.stopped++
	}
}

// dumpRequest draws the sweep's request: 1-4 tasks, with a deadline, a
// performance floor and a budget (none, loose or binding) each varied.
func dumpRequest(rng *randx.Rand) job.Request {
	req := job.Request{TaskCount: rng.IntRange(1, 4), Volume: float64(rng.IntRange(40, 150))}
	switch rng.Intn(3) {
	case 1:
		req.MaxCost = float64(rng.IntRange(800, 3000))
	case 2:
		req.MaxCost = float64(rng.IntRange(60, 400))
	}
	if rng.Intn(3) == 0 {
		req.Deadline = float64(rng.IntRange(80, 300))
	}
	if rng.Intn(3) == 0 {
		req.MinPerf = float64(rng.IntRange(3, 8))
	}
	if rng.Intn(4) == 0 {
		req.OS = []nodes.OS{nodes.Linux}
	}
	return req
}

// TestRuntimeCriteriaWindowDump is the window dump of the runtime criteria:
// 200 seeds x cursors {list, leaf 1, 3, 7} x kernels {greedy, Exact,
// LiteralBudget}, every scanner window compared with its full-scan oracle
// twin. With -v it logs one line per search plus the dump's digest, so two
// trees can be compared by diffing their logs:
//
//	go test -run TestRuntimeCriteriaWindowDump -v ./internal/core
func TestRuntimeCriteriaWindowDump(t *testing.T) {
	algs := []core.Algorithm{
		core.MinRunTime{},
		core.MinRunTime{Exact: true},
		core.MinRunTime{LiteralBudget: true},
		core.MinFinish{},
		core.MinFinish{Exact: true},
	}
	sc := core.NewScanner()
	digest := sha256.New()
	var rec dumpRecorder
	for seed := uint64(1); seed <= 200; seed++ {
		rng := randx.New(seed)
		list := testkit.HeteroList(rng, rng.IntRange(4, 24), 4, 300)
		req := dumpRequest(rng)
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
		for _, alg := range algs {
			oracle, _ := core.Oracle(alg)
			r := req
			ow, oerr := oracle.Find(list, &r)
			want := testkit.WindowSignature(ow)
			for _, c := range cursors {
				r := req
				w, err := sc.Find(alg, c.cur(), &r, &rec)
				if (err == nil) != (oerr == nil) {
					t.Fatalf("seed=%d %s alg=%s: scanner err=%v, full scan err=%v", seed, c.name, alg.Name(), err, oerr)
				}
				got := testkit.WindowSignature(w)
				if got != want {
					t.Errorf("seed=%d %s alg=%s: scanner and full scan diverged\nscanner: %s\nfull:    %s", seed, c.name, alg.Name(), got, want)
				}
				line := fmt.Sprintf("seed=%d %s alg=%s %s", seed, c.name, alg.Name(), got)
				fmt.Fprintln(digest, line)
				if testing.Verbose() {
					t.Log(line)
				}
			}
		}
	}
	t.Logf("dump sha256 %x over %d searches", digest.Sum(nil), rec.scans)
	t.Logf("%d of %d scans stopped early", rec.stopped, rec.scans)
	if rec.stopped == 0 {
		t.Error("no scan stopped early")
	}
}
