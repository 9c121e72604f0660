package core_test

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"slotsel/internal/core"
	"slotsel/internal/job"
	"slotsel/internal/obs"
	"slotsel/internal/randx"
	"slotsel/internal/slots"
	"slotsel/internal/testkit"
)

// The cut cost order of SelectMinCost: it holds only the candidates below a
// bound, and is cut again when expiries drain it below n or arrivals grow
// it past its cap. Each test below drives one of the situations that moves
// the bound, holds the order to its definition after every visit
// (CheckCostOrderForTest), and compares the search's window with a
// reference that sorts the whole window at every visit.

// byCostStable sorts candidates in the (Cost, Exec, NodeID) order, equals
// in the order given.
func byCostStable(cs []core.Candidate) {
	sort.SliceStable(cs, func(i, j int) bool {
		a, b := cs[i], cs[j]
		if a.Cost != b.Cost {
			return a.Cost < b.Cost
		}
		if a.Exec != b.Exec {
			return a.Exec < b.Exec
		}
		return a.Slot.Node.ID < b.Slot.Node.ID
	})
}

// stableFind is the MinCost (amp: AMP) oracle with a stable sort. The
// shipped oracle sorts with sort.Slice, which keeps equal candidates in
// append order only below a dozen of them; the tie lists here put dozens of
// equal candidates in one window, and the index keeps them in append order.
func stableFind(list slots.List, req job.Request, amp bool) (*core.Window, error) {
	var best *core.Window
	err := core.Scan(list.Cursor(), &req, func(start float64, win *core.WindowIndex) bool {
		cands := append([]core.Candidate(nil), win.Cands()...)
		byCostStable(cands)
		chosen := cands[:req.TaskCount]
		cost := 0.0
		for _, c := range chosen {
			cost += c.Cost
		}
		if req.MaxCost > 0 && cost > req.MaxCost {
			return false
		}
		if best == nil || cost < best.Cost {
			best = core.NewWindow(start, chosen)
		}
		return amp
	}, nil)
	return core.Found(best, err)
}

// cutTrace is what cutSearch saw of the cost order over one search.
type cutTrace struct {
	window   string // the search's window signature, "<nil>" for none
	visits   int
	cuts     int // visits after which the bound had moved
	peak     int // the most candidates the order held after a visit
	small    int // visits after which the order held every candidate, fewer than k
	whole    int // visits after which the order held every candidate, more than its cap of 2k
	tiedCuts int // visits after which the bound had an equal the order left out
}

// plainMinCost is MinCost without its cost bound: a core.Scan visitor that
// asks SelectMinCost for the n cheapest of the whole window at every visit
// and keeps the first strictly cheaper window. Its window is MinCost's; the
// window it selects from is every candidate the scan admits, so the cut
// cost order is driven through all of it.
func plainMinCost(list slots.List, req job.Request, col obs.Collector) (*core.Window, error) {
	var best *core.Window
	err := core.Scan(list.Cursor(), &req, func(start float64, win *core.WindowIndex) bool {
		chosen, cost, ok := win.SelectMinCost(req.TaskCount, req.MaxCost)
		if ok && (best == nil || cost < best.Cost) {
			best = core.NewWindow(start, chosen)
		}
		return false
	}, col)
	return core.Found(best, err)
}

// cutSearch runs a search — plainMinCost, or AMP on a fresh scanner — with
// a visit wrap that holds the cost order to its definition after every
// visit and records how its bound moved. k is the cut size of the request's task count (4n+16). Before
// every other visit the wrap selects the n cheapest itself and checks them
// against a sort of the window from scratch, slot for slot — so both the
// select that cuts and the one that reads the cut are checked, whichever
// the visit's own select then is. With midScan, every third visit also
// reads ByCost and PrefixCost and checks them the same way.
func cutSearch(t *testing.T, who string, amp bool, list slots.List, req job.Request, midScan bool) cutTrace {
	t.Helper()
	k := 4*req.TaskCount + 16
	var tr cutTrace
	var prevBounded bool
	var prevBound core.Candidate
	core.SetVisitWrapForTest(func(visit core.VisitFunc) core.VisitFunc {
		return func(start float64, win *core.WindowIndex) bool {
			if tr.visits%2 == 1 {
				want := append([]core.Candidate(nil), win.Cands()...)
				byCostStable(want)
				got, _, _ := win.SelectMinCost(req.TaskCount, 0)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s: visit %d: SelectMinCost chose %+v at %d, sorted from scratch %+v", who, tr.visits+1, got[i], i, want[i])
					}
				}
			}
			stop := visit(start, win)
			tr.visits++
			if err := win.CheckCostOrderForTest(); err != nil {
				t.Fatalf("%s: visit %d (start %x): %v", who, tr.visits, start, err)
			}
			_, bounded, bound, held := win.CostCutForTest()
			if bounded != prevBounded || bound != prevBound {
				tr.cuts++
			}
			prevBounded, prevBound = bounded, bound
			tr.peak = max(tr.peak, held)
			if !bounded && held == win.Len() && held < k {
				tr.small++
			}
			if !bounded && held == win.Len() && held > 2*k {
				tr.whole++
			}
			if bounded && held < win.Len() {
				if out := win.ByCost()[held]; out.Cost == bound.Cost && out.Exec == bound.Exec && out.Slot.Node.ID == bound.Slot.Node.ID {
					tr.tiedCuts++
				}
			}
			if midScan && tr.visits%3 == 0 {
				want := append([]core.Candidate(nil), win.Cands()...)
				byCostStable(want)
				got := win.ByCost()
				if len(got) != len(want) {
					t.Fatalf("%s: visit %d: ByCost holds %d, window %d", who, tr.visits, len(got), len(want))
				}
				sum := 0.0
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: visit %d: ByCost[%d] = %+v, sorted from scratch %+v", who, tr.visits, i, got[i], want[i])
					}
					sum += want[i].Cost
				}
				if p := win.PrefixCost(len(want)); p != sum {
					t.Fatalf("%s: visit %d: PrefixCost(%d) = %x, left-to-right sum %x", who, tr.visits, len(want), p, sum)
				}
			}
			return stop
		}
	})
	defer core.SetVisitWrapForTest(nil)
	var w *core.Window
	var err error
	if amp {
		w, err = core.NewScanner().Find(core.AMP{}, list.Cursor(), &req, nil)
	} else {
		w, err = plainMinCost(list, req, nil)
	}
	if err != nil && err != core.ErrNoWindow {
		t.Fatalf("%s: %v", who, err)
	}
	tr.window = testkit.WindowSignature(w)
	return tr
}

// checkCutSearch runs cutSearch for plainMinCost and AMP and compares each
// window with the stable oracle's, and MinCost's own window — the scanner's,
// under its cost bound — with the same.
func checkCutSearch(t *testing.T, who string, list slots.List, req job.Request, midScan bool) (minCost, amp cutTrace) {
	t.Helper()
	for _, isAMP := range []bool{false, true} {
		name := who + " alg=MinCost(plain)"
		if isAMP {
			name = who + " alg=AMP"
		}
		tr := cutSearch(t, name, isAMP, list, req, midScan)
		want, _ := stableFind(list, req, isAMP)
		ws := testkit.WindowSignature(want)
		if tr.window != ws {
			t.Errorf("%s: cut order and stable oracle diverged\ncut:    %s\noracle: %s", name, tr.window, ws)
		}
		if isAMP {
			amp = tr
			continue
		}
		minCost = tr
		r := req
		w, err := core.NewScanner().Find(core.MinCost{}, list.Cursor(), &r, nil)
		if err != nil && err != core.ErrNoWindow {
			t.Fatalf("%s: %v", who, err)
		}
		if got := testkit.WindowSignature(w); got != ws {
			t.Errorf("%s alg=MinCost: bounded scan and stable oracle diverged\nbounded: %s\noracle:  %s", who, got, ws)
		}
	}
	return minCost, amp
}

// tieList puts m equal candidates in every window: node 0, the cheapest but
// for `cheaper` others, publishes m overlapping slots, three to a start,
// each long enough to outlive the list and each ending elsewhere, so a
// window shows which of the equals it took. Forty more nodes publish random
// slots at higher prices.
func tieList(rng *randx.Rand, m, cheaper int) slots.List {
	var l slots.List
	tied := testkit.Node(0, 5, 0.2)
	for i := 0; i < m; i++ {
		l = append(l, testkit.Slot(tied, float64(i/3), float64(2000+i)))
	}
	for id := 1; id <= 40; id++ {
		price := 0.5 + 3*rng.Float64()
		if id <= cheaper {
			price = 0.05 + 0.1*rng.Float64()
		}
		n := testkit.Node(id, float64(rng.IntRange(2, 10)), price)
		start := rng.FloatRange(0, 2*float64(m))
		l = append(l, testkit.Slot(n, start, start+rng.FloatRange(60, 400)))
	}
	l.SortByStart()
	return l
}

// TestCostCutTiesAtBound: equal candidates at the bound. When they crowd
// the k cheapest so that fewer than n precede the bound, the order holds
// the whole window; when n or more still do, it is cut below them and
// leaves every one of them out. Either way the windows are the stable
// oracle's, slot for slot.
func TestCostCutTiesAtBound(t *testing.T) {
	whole, tied := 0, 0
	for seed := uint64(1); seed <= 12; seed++ {
		for _, shape := range []struct{ m, cheaper int }{{20, 0}, {60, 0}, {60, 5}} {
			rng := randx.New(seed)
			list := tieList(rng, shape.m, shape.cheaper)
			req := job.Request{TaskCount: rng.IntRange(1, 4), Volume: 60}
			if seed%3 == 0 {
				req.MaxCost = float64(req.TaskCount) * 30
			}
			who := fmt.Sprintf("seed=%d m=%d cheaper=%d", seed, shape.m, shape.cheaper)
			mc, _ := checkCutSearch(t, who, list, req, false)
			whole += mc.whole
			tied += mc.tiedCuts
		}
	}
	if whole == 0 {
		t.Error("no search fell back to the whole window: the ties never crowded the cut")
	}
	if tied == 0 {
		t.Error("no cut left an equal of its bound out")
	}
}

// TestCostCutSmallWindowThenGrowth: a window that is cut while it is
// smaller than k is held whole, unbounded; as it grows past twice k the
// order is cut at its own k-th, and it never holds more than that cap after
// a visit. Prices, hence costs (every node is equally fast), rise along
// the list and nothing expires, so the second select finds the first cut
// short while the window is small, and every candidate after it goes into
// the unbounded order until the cap.
func TestCostCutSmallWindowThenGrowth(t *testing.T) {
	for seed := uint64(1); seed <= 16; seed++ {
		rng := randx.New(seed)
		var list slots.List
		for id := 0; id < 300; id++ {
			n := testkit.Node(id, 5, 0.3+0.01*float64(id)+0.005*rng.Float64())
			start := float64(id) + rng.Float64()/2
			list = append(list, testkit.Slot(n, start, 5000))
		}
		list.SortByStart()
		req := job.Request{TaskCount: rng.IntRange(1, 5), Volume: float64(rng.IntRange(40, 150))}
		if seed%2 == 0 {
			req.MaxCost = float64(req.TaskCount) * 80
		}
		k := 4*req.TaskCount + 16
		mc, _ := checkCutSearch(t, fmt.Sprintf("seed=%d", seed), list, req, false)
		if mc.small == 0 {
			t.Errorf("seed=%d: the order never held a window smaller than k=%d whole", seed, k)
		}
		if mc.peak > 2*k {
			t.Errorf("seed=%d: the order held %d after a visit, past its cap %d", seed, mc.peak, 2*k)
		}
		if mc.cuts < 3 {
			t.Errorf("seed=%d: the bound moved %d times over a window growing to 300: first cut, whole, cut at the cap", seed, mc.cuts)
		}
	}
}

// drainList is adversarial for the cut. Node i publishes one slot of a
// fixed length starting at i·horizon/nodeCount, and every node is equally
// fast, so costs follow prices, which rise along each of two rounds. Within
// a round the cheapest candidates of a window are the oldest, the first to
// expire, and every arrival is dearer than what the order holds: the order
// drains by one candidate a step, and the search cuts it again every few
// dozen steps. The second round starts cheaper than the first, so the
// cheapest window of the list lies in it. Windows hold a fifth of the
// nodes: a round is more than twice as long as a window.
func drainList(rng *randx.Rand, nodeCount int, horizon float64) slots.List {
	const rounds = 2
	var l slots.List
	step := horizon / float64(nodeCount)
	for id := 0; id < nodeCount; id++ {
		r := id * rounds / nodeCount
		climb := float64(id*rounds%nodeCount) / float64(nodeCount)
		n := testkit.Node(id, 5, 0.3+0.2*float64(rounds-1-r)+climb+0.001*rng.Float64())
		start := float64(id)*step + rng.FloatRange(0, step)
		l = append(l, testkit.Slot(n, start, start+horizon/4))
	}
	l.SortByStart()
	return l
}

// TestCostCutDrainedByExpiry: on drainList the order is cut again at a
// large share of the visits; every window still matches the stable oracle,
// with and without ByCost and PrefixCost read in the middle of the scan.
func TestCostCutDrainedByExpiry(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := randx.New(seed)
		list := drainList(rng, 400, 600)
		req := job.Request{TaskCount: rng.IntRange(1, 5), Volume: 150}
		if seed%2 == 0 {
			req.MaxCost = float64(req.TaskCount) * 150 * 1.2
		}
		mc, _ := checkCutSearch(t, fmt.Sprintf("seed=%d", seed), list, req, seed%4 < 2)
		if mc.cuts*2*(4*req.TaskCount+16) < mc.visits {
			t.Errorf("seed=%d: %d cuts over %d visits: the list does not drain the order", seed, mc.cuts, mc.visits)
		}
	}
}

// TestScanCostGrowthDrained is TestScanCostGrowth on drainList (CI's growth
// gate runs both): a cut is a pass over the window, and on this list one
// comes every few dozen expiries, yet plainMinCost's time per scanned slot
// at 4 096 nodes stays within three times that at 512. plainMinCost, not
// MinCost: the cost bound keeps MinCost's window far below the cut's size.
// Minimum of ten timed searches a side: the small list scans in tens of
// microseconds.
func TestScanCostGrowthDrained(t *testing.T) {
	if testkit.RaceEnabled || testing.Short() {
		t.Skip("timing test: skipped under -race and -short")
	}
	perSlot := func(nodeCount int) float64 {
		list := drainList(randx.New(1), nodeCount, 600)
		req := job.Request{TaskCount: 5, Volume: 150, MaxCost: 5 * 150 * 5}
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 11; i++ {
			begin := time.Now()
			if _, err := plainMinCost(list, req, nil); err != nil {
				t.Fatalf("%d nodes: %v", nodeCount, err)
			}
			if d := time.Since(begin); i > 0 && d < best {
				best = d
			}
		}
		return float64(best.Nanoseconds()) / float64(len(list))
	}
	small, large := perSlot(512), perSlot(4096)
	t.Logf("plain MinCost on drainList: %.0f ns/slot at 512 nodes, %.0f ns/slot at 4096 nodes (x%.2f)", small, large, large/small)
	if large > 3*small {
		t.Errorf("%.0f ns/slot at 4096 nodes is more than 3x the %.0f ns/slot at 512", large, small)
	}
}

// TestCostCutSmallBlocks repeats the drain and tie shapes with blocks of
// two handles, so every cut, insertion and removal splits and merges them.
func TestCostCutSmallBlocks(t *testing.T) {
	defer core.SetOrderBlockCapForTest(core.SetOrderBlockCapForTest(2))
	for seed := uint64(1); seed <= 8; seed++ {
		rng := randx.New(seed)
		req := job.Request{TaskCount: rng.IntRange(1, 5), Volume: 150}
		if seed%2 == 0 {
			req.MaxCost = float64(req.TaskCount) * 150 * 1.2
		}
		checkCutSearch(t, fmt.Sprintf("seed=%d drain", seed), drainList(rng, 60, 600), req, true)
		checkCutSearch(t, fmt.Sprintf("seed=%d ties", seed), tieList(rng, 40, int(seed%3)*3), req, true)
	}
}

// TestCostCutAMPBindingBudget: AMP under a budget just above the cheapest
// window of the whole scan selects at visit after visit before one fits,
// reading the cut order at each; on drainList it cuts it many times. Its
// window is the oracle's.
func TestCostCutAMPBindingBudget(t *testing.T) {
	deep := 0
	for seed := uint64(1); seed <= 12; seed++ {
		rng := randx.New(seed)
		list := testkit.HeteroList(rng, 150, 4, 600)
		if seed%2 == 0 {
			list = drainList(rng, 400, 600)
		}
		req := job.Request{TaskCount: rng.IntRange(1, 5), Volume: float64(rng.IntRange(40, 150))}
		cheapest, err := core.MinCost{}.Find(list, &req)
		if err != nil {
			t.Fatal(err)
		}
		req.MaxCost = cheapest.Cost * 1.02
		_, amp := checkCutSearch(t, fmt.Sprintf("seed=%d", seed), list, req, false)
		oracle, _ := core.Oracle(core.AMP{})
		ow, _ := oracle.Find(list, &req)
		if ws := testkit.WindowSignature(ow); amp.window != ws {
			t.Errorf("seed=%d: AMP under a binding budget diverged from its oracle\ncut:    %s\noracle: %s", seed, amp.window, ws)
		}
		if amp.visits >= 50 && amp.cuts >= 3 {
			deep++
		}
	}
	if deep < 4 {
		t.Errorf("only %d of 12 binding-budget AMP searches ran 50 visits and 3 cuts", deep)
	}
}
