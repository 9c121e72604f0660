package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"slotsel/internal/job"
	"slotsel/internal/nodes"
	"slotsel/internal/randx"
	"slotsel/internal/slots"
)

// This file is the dirty-pool adversarial suite: it poisons every piece of
// recycled Scanner state a previous (buggy or malicious) user could have
// left behind and asserts that searches on the recycled scanner are
// bit-identical to searches on a fresh one. It lives in package core —
// not core_test — because poisoning private fields is the point; it
// cannot use testkit (import cycle), so it carries small local twins of
// the list generator and the window signature.

// scannerCatalogue mirrors the shipped algorithm catalogue.
func scannerCatalogue(seed uint64) []Algorithm {
	return []Algorithm{
		AMP{},
		MinCost{},
		MinRunTime{},
		MinRunTime{Exact: true},
		MinRunTime{LiteralBudget: true},
		MinFinish{},
		MinFinish{Exact: true},
		MinProcTime{Seed: seed},
		MinProcTimeGreedy{},
		MinEnergy{},
	}
}

// randomScanList is testkit.RandomList's local twin (same shape, private
// stream) — heterogeneous nodes, a few disjoint slots per node, sorted.
func randomScanList(rng *randx.Rand, nodeCount, maxSlotsPerNode int, horizon float64) slots.List {
	var l slots.List
	for id := 0; id < nodeCount; id++ {
		n := &nodes.Node{
			ID: id, Perf: float64(rng.IntRange(2, 10)), Price: 0.3 + 3*rng.Float64(),
			RAMMB: 4096, DiskGB: 100, OS: nodes.Linux, Arch: nodes.AMD64,
		}
		cursor := 0.0
		k := rng.Intn(maxSlotsPerNode + 1)
		for s := 0; s < k && cursor < horizon-1; s++ {
			start := cursor + rng.FloatRange(0, horizon/4)
			end := start + rng.FloatRange(1, horizon/2)
			if end > horizon {
				end = horizon
			}
			if end-start >= 1 {
				l = append(l, &slots.Slot{Node: n, Interval: slots.Interval{Start: start, End: end}})
			}
			cursor = end + 0.5
		}
	}
	l.SortByStart()
	return l
}

// sigWindow is testkit.WindowSignature's local twin: exact %x rendering of
// every field, so equality is bit-identity.
func sigWindow(w *Window) string {
	if w == nil {
		return "<nil>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "start=%x runtime=%x cost=%x proc=%x n=%d", w.Start, w.Runtime, w.Cost, w.ProcTime, len(w.Placements))
	for _, p := range w.Placements {
		fmt.Fprintf(&b, " [node=%d slot=%x..%x start=%x exec=%x cost=%x]",
			p.Node().ID, p.Slot.Start, p.Slot.End, p.Start, p.Exec, p.Cost)
	}
	return b.String()
}

// poisonScanner scribbles adversarial garbage over every recycled buffer
// and state field a scanner owns: NaN candidates at dangling positions in
// the index arena and its append order, NaN keys and out-of-range handles in the expiry heap, a
// runtime-floor buffer of negative tracks, both
// selection orders active and cut at a NaN bound over blocks of bad handles
// with recycled storage offsets pointing nowhere, a cut buffer of bad handles, a stale view and scratch, a stale visitor
// mid-search, poisoned result windows, a dirty CSA working copy with a
// fully handed-out arena, and a mis-seeded RNG.
func poisonScanner(sc *Scanner) {
	nan := math.NaN()
	pn := &nodes.Node{ID: -1, Perf: nan, Price: nan}
	badSlot := func() *slots.Slot {
		return &slots.Slot{Node: pn, Interval: slots.Interval{Start: nan, End: nan}}
	}
	bad := Candidate{Slot: badSlot(), Exec: nan, Cost: nan}
	win := &sc.win
	for i := 0; i < 8; i++ {
		win.arena = append(win.arena, bad)
		win.pos = append(win.pos, 1<<20)
		win.seq = append(win.seq, 1<<20)
		win.expKey = append(win.expKey, nan)
		win.expH = append(win.expH, 1<<20, -3) // and the two heap arrays out of step
		win.held = append(win.held, -5)
		win.view = append(win.view, bad)
		win.scratch = append(win.scratch, bad)
		win.weights = append(win.weights, nan)
		win.sample = append(win.sample, -7)
		win.top = append(win.top, 1<<20)
		for _, s := range []*orderedSet{&win.cost, &win.exec} {
			s.dir = append(s.dir, block{off: 1 << 20, n: 1 << 10, minW: nan})
			s.h = append(s.h, 1<<20)
			s.w = append(s.w, nan)
			s.spare = append(s.spare, 1<<20)
		}
		sc.tracks = append(sc.tracks, track{id: -1, perf: nan, key: -1, end: nan})
		sc.low = append(sc.low, math.Inf(-1))
		sc.group = append(sc.group, nan)
		sc.work = append(sc.work, badSlot())
		sc.arena = append(sc.arena, badSlot())
	}
	win.free, win.live = 5, 1<<20
	win.viewStale = false
	win.costCap = -1
	win.weight = func(Candidate) float64 { return nan }
	win.weightKind = weightCaller
	win.costCeiling = math.Inf(-1)
	for _, s := range []*orderedSet{&win.cost, &win.exec} {
		s.execFirst = !s.execFirst
		s.bcap = -4
		s.n = 1 << 20
		s.bound = bad
		s.active, s.weighted, s.bounded = true, true, true
	}
	sc.slotUsed = len(sc.arena)
	poisonedWin := Window{Start: nan, Runtime: nan, Cost: nan, ProcTime: nan,
		Placements: []Placement{{Slot: badSlot(), Start: nan, Exec: nan, Cost: nan}}}
	sc.winA = poisonedWin
	sc.winB = Window{Start: nan, Runtime: nan, Cost: nan, ProcTime: nan,
		Placements: append([]Placement(nil), poisonedWin.Placements...)}
	sc.vis.kind = vkMinAdditive
	sc.vis.req = &job.Request{TaskCount: -3, Volume: nan}
	sc.vis.exact, sc.vis.literalBudget = true, true
	sc.vis.floor = math.Inf(1)
	sc.vis.costBounded = true
	sc.vis.weight = func(Candidate) float64 { return nan }
	sc.vis.best = &poisonedWin
	sc.vis.spare = &poisonedWin
	sc.vis.hasBest = true
	sc.vis.bestVal = nan
	if sc.rng == nil {
		sc.rng = randx.New(0xdeadbeef)
	} else {
		sc.rng.Seed(0xdeadbeef)
	}
}

func scanRequest(rng *randx.Rand) job.Request {
	return job.Request{
		TaskCount: rng.IntRange(1, 4),
		Volume:    float64(rng.IntRange(40, 120)),
		MaxCost:   float64(rng.IntRange(100, 900)),
	}
}

// TestScannerDirtyReset proves that Reset fully neutralizes poisoned
// state: a freshly constructed scanner and a poisoned-then-Reset scanner
// (Reset is exactly what ReleaseScanner applies on the way into the pool)
// return bit-identical windows for every algorithm over many instances.
func TestScannerDirtyReset(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := randx.New(seed)
		list := randomScanList(rng, 6, 4, 200)
		req := scanRequest(rng)
		for _, alg := range scannerCatalogue(seed) {
			fresh := NewScanner()
			r1 := req
			wantW, wantErr := fresh.Find(alg, list.Cursor(), &r1, nil)
			want := sigWindow(wantW)

			dirty := NewScanner()
			poisonScanner(dirty)
			dirty.Reset()
			r2 := req
			gotW, gotErr := dirty.Find(alg, list.Cursor(), &r2, nil)

			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("seed=%d alg=%s: errors diverged: fresh=%v dirty=%v", seed, alg.Name(), wantErr, gotErr)
			}
			if got := sigWindow(gotW); got != want {
				t.Errorf("seed=%d alg=%s: dirty-reset scanner diverged\nfresh: %s\ndirty: %s", seed, alg.Name(), want, got)
			}
		}
	}
}

// TestScannerWorkDirtyReset is TestScannerDirtyReset for the working-copy
// entries a batch runs on: a poisoned-then-Reset scanner that loads a list,
// searches alternatives for two requests over the one copy and then finds
// and cuts one directed window must leave, step for step, what a fresh
// scanner leaves — nothing of the dirty working copy or arena survives
// LoadWork.
func TestScannerWorkDirtyReset(t *testing.T) {
	steps := func(sc *Scanner, list slots.List, reqs [2]job.Request, minLen float64) string {
		var b strings.Builder
		sc.LoadWork(list.Cursor())
		for i := range reqs {
			alts, err := sc.WorkAlternatives(&reqs[i], 3, minLen, nil)
			fmt.Fprintf(&b, "job %d err=%v\n", i, err)
			for _, w := range alts {
				fmt.Fprintln(&b, sigWindow(w))
			}
		}
		w, err := sc.Find(MinCost{}, sc.WorkCursor(), &reqs[0], nil)
		fmt.Fprintf(&b, "directed err=%v %s\n", err, sigWindow(w))
		if err == nil {
			sc.CutWork(w, minLen)
		}
		for _, s := range sc.work {
			fmt.Fprintf(&b, "%d:%x..%x ", s.Node.ID, s.Start, s.End)
		}
		return b.String()
	}
	for seed := uint64(1); seed <= 40; seed++ {
		rng := randx.New(seed)
		list := randomScanList(rng, 8, 4, 300)
		reqs := [2]job.Request{scanRequest(rng), scanRequest(rng)}
		minLen := float64(rng.Intn(3)) * 20

		want := steps(NewScanner(), list, reqs, minLen)
		dirty := NewScanner()
		poisonScanner(dirty)
		dirty.Reset()
		if got := steps(dirty, list, reqs, minLen); got != want {
			t.Errorf("seed=%d: dirty-reset scanner diverged\nfresh: %s\ndirty: %s", seed, want, got)
		}
	}
}

// TestScannerPoisonedPool floods the package pool with poisoned released
// scanners and asserts the public pooled Find path still returns the same
// windows as fresh explicit scanners: whatever a previous pool user left
// behind must not leak into the next search.
func TestScannerPoisonedPool(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := randx.New(seed)
		list := randomScanList(rng, 6, 4, 200)
		req := scanRequest(rng)
		for _, alg := range scannerCatalogue(seed) {
			fresh := NewScanner()
			r1 := req
			wantW, wantErr := fresh.Find(alg, list.Cursor(), &r1, nil)
			want := sigWindow(wantW)

			// Poison a batch of scanners and release them all, so the
			// subsequent Find very likely draws a poisoned pool entry.
			for i := 0; i < 4; i++ {
				sc := AcquireScanner()
				poisonScanner(sc)
				ReleaseScanner(sc)
			}
			r2 := req
			gotW, gotErr := alg.Find(list, &r2)

			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("seed=%d alg=%s: errors diverged: fresh=%v pooled=%v", seed, alg.Name(), wantErr, gotErr)
			}
			if got := sigWindow(gotW); got != want {
				t.Errorf("seed=%d alg=%s: poisoned pool leaked into result\nfresh:  %s\npooled: %s", seed, alg.Name(), want, got)
			}
		}
	}
}

// TestScannerSequentialReuse runs one scanner across the whole catalogue
// and many instances back to back — no Reset between searches — and
// checks every result against a fresh scanner's: per-search
// reinitialization inside Find must not depend on which algorithm
// (or which instance) ran before.
func TestScannerSequentialReuse(t *testing.T) {
	shared := NewScanner()
	for seed := uint64(1); seed <= 40; seed++ {
		rng := randx.New(seed)
		list := randomScanList(rng, 6, 4, 200)
		req := scanRequest(rng)
		for _, alg := range scannerCatalogue(seed) {
			fresh := NewScanner()
			r1 := req
			wantW, wantErr := fresh.Find(alg, list.Cursor(), &r1, nil)
			want := sigWindow(wantW)

			r2 := req
			gotW, gotErr := shared.Find(alg, list.Cursor(), &r2, nil)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("seed=%d alg=%s: errors diverged: fresh=%v shared=%v", seed, alg.Name(), wantErr, gotErr)
			}
			// Signature must be taken before the next search recycles the
			// shared scanner's result window.
			if got := sigWindow(gotW); got != want {
				t.Errorf("seed=%d alg=%s: reused scanner diverged\nfresh:  %s\nshared: %s", seed, alg.Name(), want, got)
			}
		}
	}
}

// TestScannerResultDetach pins the ownership contract: a scanner-owned
// result is invalidated by the next search, and Detach makes it safe to
// keep. The detached copy must be deep enough to survive scanner reuse.
func TestScannerResultDetach(t *testing.T) {
	rng := randx.New(7)
	list := randomScanList(rng, 6, 4, 200)
	req := job.Request{TaskCount: 1, Volume: 60} // no budget: always feasible on a non-empty list
	sc := NewScanner()
	r1 := req
	w, err := sc.Find(MinCost{}, list.Cursor(), &r1, nil)
	if err != nil {
		t.Fatalf("MinCost find: %v", err)
	}
	kept := w.Detach()
	want := sigWindow(kept)
	for i := 0; i < 5; i++ {
		r := req
		r.TaskCount = 1 + i%3
		_, _ = sc.Find(MinFinish{}, list.Cursor(), &r, nil)
	}
	if got := sigWindow(kept); got != want {
		t.Errorf("detached window mutated by scanner reuse\nbefore: %s\nafter:  %s", want, got)
	}
}
