package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"slotsel/internal/job"
	"slotsel/internal/obs"
	"slotsel/internal/randx"
	"slotsel/internal/slots"
)

// Scanner is the reusable search state of one goroutine: the scan's
// WindowIndex, the per-criterion selection scratch, the result Window
// buffers and the CSA working copy all live here and are recycled between
// searches, so a steady-state Find performs no heap allocation at all
// (the AllocsPerRun regression suite pins that at 0 for every indexed
// algorithm).
//
// A Scanner is NOT safe for concurrent use: it is one goroutine's private
// state. Use one Scanner per worker (parallel.FindAll does), or go
// through the package pool (AcquireScanner/ReleaseScanner) which hands
// each caller its own instance.
//
// Windows returned by Scanner.Find are owned by the scanner and remain
// valid only until the next Find, Reset or release back to the pool;
// callers that retain a result across searches must copy it first
// (Window.Detach). FindObserved and the public Algorithm.Find entry points
// do exactly that, so their results stay caller-owned.
type Scanner struct {
	// win is the incrementally maintained window index of the current scan.
	win WindowIndex

	// vis is the per-algorithm visitor state; visitFn is its adapter, bound
	// once at construction so per-Find dispatch does not allocate a closure.
	vis     visitor
	visitFn VisitFunc

	// winA and winB are the result scratch: the visitor builds candidate
	// windows into whichever one is not the current best and swaps on
	// improvement, so build-then-compare criteria (MinFinish, MinProcTime)
	// reuse two buffers instead of allocating one window per visit.
	winA, winB Window

	// rng backs MinProcTime's random selection; reseeded per search so the
	// stream matches a freshly constructed generator.
	rng *randx.Rand

	// tracks is the pre-passes' scratch (runtimeFloor's, costBound's): the
	// lowest-keyed tracks seen so far.
	tracks []track

	// work is the CSA working copy: slot values copied into arena-owned
	// structs so repeated cutting mutates scanner-private memory and reuses
	// the same backing arrays across searches. arena holds every slot
	// struct the scanner ever allocated; arena[:slotUsed] are handed out
	// since the last LoadWork.
	work     slots.List
	arena    []*slots.Slot
	slotUsed int

	// low and group are costBound's: the costs of the n−1 cheapest tracks
	// the scan admits, and the n smallest of the first start, each sorted.
	low, group []float64
}

// NewScanner returns a fresh scanner. Most callers should prefer
// AcquireScanner, which recycles warmed-up instances; NewScanner exists for
// long-lived per-worker state and for tests that need full control over the
// instance's lifetime.
func NewScanner() *Scanner {
	sc := &Scanner{}
	sc.vis.sc = sc
	sc.visitFn = func(start float64, win *WindowIndex) bool { return sc.vis.visit(start, win) }
	return sc
}

// Reset returns the scanner to its post-construction state while keeping
// every buffer's capacity: the window index, result windows, selection
// scratch and CSA working copy are emptied, not freed. ReleaseScanner
// calls it on the way into the pool; per-search state is additionally
// re-initialized at the start of every Find, so results never depend on
// what a previous search (or a previous pool user) left behind — the
// dirty-pool adversarial test poisons every buffer to pin that down.
func (sc *Scanner) Reset() {
	sc.win.reset()
	sc.vis.reset(nil)
	sc.winA = Window{Placements: sc.winA.Placements[:0]}
	sc.winB = Window{Placements: sc.winB.Placements[:0]}
	sc.tracks = sc.tracks[:0]
	sc.low, sc.group = sc.low[:0], sc.group[:0]
	sc.work = sc.work[:0]
	sc.slotUsed = 0
}

// scannerPool recycles Scanners process-wide. sync.Pool may drop idle
// entries at any GC, so pooling is an amortization, not a guarantee — the
// zero-allocation regression tests therefore run on explicit Scanners.
var scannerPool = sync.Pool{New: func() any { return NewScanner() }}

// AcquireScanner returns a scanner from the package pool (allocating a
// fresh one only when the pool is empty). Pair it with ReleaseScanner.
func AcquireScanner() *Scanner {
	return scannerPool.Get().(*Scanner)
}

// ReleaseScanner resets the scanner and returns it to the pool. The
// scanner — and any Window obtained from it — must not be used afterwards.
// ReleaseScanner(nil) is a no-op.
func ReleaseScanner(sc *Scanner) {
	if sc == nil {
		return
	}
	sc.Reset()
	scannerPool.Put(sc)
}

// WarmScanners pre-populates the pool with n scanners so the first n
// concurrent searches skip construction. The server sizes this by its
// MaxInflight admission bound. Best-effort: the pool may still shed
// entries under GC pressure.
func WarmScanners(n int) {
	if n <= 0 {
		return
	}
	warmed := make([]*Scanner, 0, n)
	for i := 0; i < n; i++ {
		warmed = append(warmed, NewScanner())
	}
	for _, sc := range warmed {
		scannerPool.Put(sc)
	}
}

// Find is the scanner-owned search entry: one algorithm search on the
// scanner's recycled state over whatever the cursor walks — a caller's list
// (list.Cursor(), order-checked in full) or a published sequence
// (seq.Cursor(), walked leaf by leaf, never flattened; same window and
// ScanStats). It returns the best window, ErrNoWindow when none is
// feasible, or an input error, and reports to col (nil = off) a SelectDone
// event and a "select" span around the scan's own ScanDone and "scan" span.
//
// The window is scanner-owned — valid until the scanner's next search,
// Reset or release — which is how a long-lived caller (a parallel worker,
// the inventory's retry loop) searches without allocating; Detach what you
// keep (FindObserved does).
func (sc *Scanner) Find(alg Algorithm, cur slots.Cursor, req *job.Request, col obs.Collector) (*Window, error) {
	if col == nil {
		return sc.search(alg, cur, req, nil)
	}
	begin := obs.Now()
	w, err := sc.search(alg, cur, req, col)
	elapsed := obs.Now() - begin
	col.SelectDone(obs.SelectStats{Alg: alg.Name(), Found: w != nil, Elapsed: elapsed})
	col.Span(obs.Span{Name: alg.Name(), Cat: "select", Start: begin, Dur: elapsed})
	return w, err
}

// search is Find without the select-level events (the scan still reports
// to col): what Alternatives runs for each of its AMP passes. The shipped
// algorithms dispatch onto the scanner's allocation-free visitor; any other
// falls back to its own FindObserved/Find.
func (sc *Scanner) search(alg Algorithm, cur slots.Cursor, req *job.Request, col obs.Collector) (*Window, error) {
	v := &sc.vis
	v.reset(req)
	ceiling := math.Inf(1)
	switch a := alg.(type) {
	case AMP:
		v.kind = vkAMP
	case MinCost:
		v.kind = vkMinCost
		if limit, ok := sc.costBound(cur, req); ok {
			v.costBounded = true
			ceiling = sc.costCeiling(limit, true)
		}
	case MinRunTime:
		v.kind = vkMinRunTime
		v.exact, v.literalBudget = a.Exact, a.LiteralBudget
		v.floor = sc.runtimeFloor(cur, req)
	case MinFinish:
		v.kind = vkMinFinish
		v.exact = a.Exact
		v.floor = sc.runtimeFloor(cur, req)
	case MinProcTimeGreedy:
		v.kind = vkMinAdditive
		v.weight = execWeight
	case MinEnergy:
		v.kind = vkMinAdditive
		if a.Model == nil {
			v.weight = defaultEnergyWeight
		} else {
			model := a.Model
			v.weight = func(c Candidate) float64 { return model(c.Slot.Node.Perf, c.Exec) }
		}
	case MinProcTime:
		// The generator is reseeded per search, so the sampled stream —
		// and therefore the result — is identical to a freshly constructed
		// generator's.
		v.kind = vkMinProcRandom
		if sc.rng == nil {
			sc.rng = randx.New(a.Seed)
		} else {
			sc.rng.Seed(a.Seed)
		}
	default:
		// Unknown algorithm: no visitor dispatch; run its own search. Its
		// result is already caller-owned, which Detach treats as a plain
		// copy, so the calling convention stays uniform.
		if of, ok := alg.(ObservedFinder); ok {
			return of.FindObserved(cur.List(), req, col)
		}
		return alg.Find(cur.List(), req)
	}

	sc.win.reset()
	sc.win.costCeiling = ceiling
	if err := scanLoop(cur, req, col, &sc.win, sc.visitFn); err != nil {
		return nil, err
	}
	if !v.hasBest {
		return nil, ErrNoWindow
	}
	return v.best, nil
}

// visitKind selects the per-visit comparison the visitor applies; each
// value replicates one shipped algorithm's selection-and-compare step
// exactly (same kernels, same comparison expressions), so the scanner path
// is window-for-window identical to the closure-based implementations the
// differential suite retains as oracles.
type visitKind int

const (
	vkNone visitKind = iota
	vkAMP
	vkMinCost
	vkMinRunTime
	vkMinFinish
	vkMinAdditive // MinProcTimeGreedy and MinEnergy: they differ in v.weight alone
	vkMinProcRandom
)

// defaultEnergyWeight is MinEnergy's weight under DefaultEnergyModel
// (perf^2 x exec), statically bound for the nil-Model configuration.
func defaultEnergyWeight(c Candidate) float64 {
	return c.Slot.Node.Perf * c.Slot.Node.Perf * c.Exec
}

// visitor is the scanner's per-search algorithm state: which criterion to
// apply, the request, and the current best window. Its visit methods are
// reached through the scanner's pre-bound adapters, so a search installs
// plain struct fields instead of allocating per-Find closures.
type visitor struct {
	sc   *Scanner
	kind visitKind
	req  *job.Request

	exact         bool
	literalBudget bool
	weight        func(Candidate) float64

	// floor is the runtime criteria's bound: no window of the scan runs
	// shorter (runtimeFloor).
	floor float64

	// costBounded reports that MinCost's cost bound holds for this scan
	// (costBound): each improvement lowers the scan's cost ceiling.
	costBounded bool

	best    *Window
	spare   *Window
	hasBest bool
	bestVal float64
}

// reset rebinds the visitor for a new search. best/spare point at the
// scanner's two window buffers; builds go into whichever is not best.
func (v *visitor) reset(req *job.Request) {
	v.kind = vkNone
	v.req = req
	v.exact, v.literalBudget = false, false
	v.weight = nil
	v.floor = math.Inf(-1)
	v.costBounded = false
	v.best, v.spare = &v.sc.winA, &v.sc.winB
	v.hasBest = false
	v.bestVal = 0
}

// visit is the per-position dispatch. The selection kernels run on the win
// argument — not on the scanner's own index — because the aliasing tests
// interpose private rebuilt indexes through the scan's wrap seam.
func (v *visitor) visit(start float64, win *WindowIndex) bool {
	switch v.kind {
	case vkAMP:
		chosen, _, ok := win.SelectMinCost(v.req.TaskCount, v.req.MaxCost)
		if !ok {
			return false
		}
		buildWindow(v.best, start, chosen)
		v.hasBest = true
		return true // earliest start found; later positions cannot improve

	case vkMinCost:
		chosen, cost, ok := win.SelectMinCost(v.req.TaskCount, v.req.MaxCost)
		if !ok {
			return false
		}
		if !v.hasBest || cost < v.best.Cost {
			buildWindow(v.best, start, chosen)
			v.hasBest = true
			if v.costBounded {
				// The scan admits into the scanner's own index; win may be
				// a test's stand-in for it (see above).
				v.sc.win.costCeiling = v.sc.costCeiling(v.best.Cost, false)
			}
		}
		return false

	case vkMinRunTime:
		chosen, runtime, ok := v.selectRuntime(win)
		if !ok {
			return false
		}
		if !v.hasBest || runtime < v.best.Runtime {
			buildWindow(v.best, start, chosen)
			v.hasBest = true
		}
		// No window runs shorter than the floor, so none is strictly better.
		return v.hasBest && v.best.Runtime <= v.floor

	case vkMinFinish:
		if v.finishSettled(start) {
			return true
		}
		chosen, _, ok := v.selectRuntime(win)
		if !ok {
			return false
		}
		w := v.spare
		buildWindow(w, start, chosen)
		if !v.hasBest || w.Finish() < v.best.Finish() {
			v.best, v.spare = w, v.best
			v.hasBest = true
		}
		return v.finishSettled(start)

	case vkMinAdditive:
		chosen, total, ok := win.SelectMinAdditiveGreedy(v.req.TaskCount, v.req.MaxCost, v.weight)
		if !ok {
			return false
		}
		if !v.hasBest || total < v.bestVal {
			buildWindow(v.best, start, chosen)
			v.hasBest = true
			v.bestVal = total
		}
		return false

	case vkMinProcRandom:
		chosen, ok := win.SelectRandom(v.req.TaskCount, v.req.MaxCost, v.sc.rng)
		if !ok {
			return false
		}
		w := v.spare
		buildWindow(w, start, chosen)
		if !v.hasBest || w.ProcTime < v.best.ProcTime {
			v.best, v.spare = w, v.best
			v.hasBest = true
		}
		return false
	}
	return false
}

// finishSettled reports that no window at start or later can finish strictly
// before the best: each finishes at its start plus a runtime of at least the
// floor, and float addition is monotone in both operands.
func (v *visitor) finishSettled(start float64) bool {
	return v.hasBest && start+v.floor >= v.best.Finish()
}

// selectRuntime runs the runtime-minimizing kernel the search asked for
// (literalBudget is MinRunTime's alone; MinFinish leaves it false).
func (v *visitor) selectRuntime(win *WindowIndex) (chosen []Candidate, runtime float64, ok bool) {
	if v.exact {
		return win.SelectMinRuntimeExact(v.req.TaskCount, v.req.MaxCost)
	}
	return win.SelectMinRuntimeGreedy(v.req.TaskCount, v.req.MaxCost, v.literalBudget)
}

// track is one entry of a pre-pass's buffer: a node ID and performance,
// the track's key — the task's execution time there (runtimeFloor) or its
// cost (costBound) — and the end of the latest slot on the track.
//
// A track is the slots of one (node ID, key) in start order, each on the
// first track whose last slot ended by its start. Two slots on one track
// cannot both be candidates of one window (a task needs exec > 0 before the
// earlier slot's end), and a node gets as many tracks as it has slots alive
// at once — one, for a valid list. Nothing in a caller's list forbids
// overlapping slots on one node, so the pre-passes count tracks, not nodes.
type track struct {
	id   int
	perf float64
	key  float64
	end  float64
}

// keepTrack puts slot s, keyed key, on the k lowest-keyed tracks so far,
// kept in key order: onto a kept track of its node and key whose last slot
// ended by its start, or as a new track, dropping the highest-keyed when
// there are k. The caller passes only slots keyed below the k-th track.
func keepTrack(tracks []track, k int, s *slots.Slot, key float64) []track {
	for i := range tracks {
		if tracks[i].id == s.Node.ID && tracks[i].key == key && tracks[i].end <= s.Start {
			tracks[i].end = s.End
			return tracks
		}
	}
	if len(tracks) == k {
		tracks = tracks[:k-1]
	}
	i := len(tracks)
	tracks = append(tracks, track{})
	for ; i > 0 && key < tracks[i-1].key; i-- {
		tracks[i] = tracks[i-1]
	}
	tracks[i] = track{id: s.Node.ID, perf: s.Node.Perf, key: key, end: s.End}
	return tracks
}

// runtimeFloor is an exact lower bound on the runtime of every window the
// scan over cur can form: the n-th smallest execution time among the nodes
// whose slots the scan admits as candidates (the scan's own filter). A
// window holds n candidates at once, and a node holds at most one of them
// while its slots are disjoint, so a window's runtime — the largest Exec of
// its candidates, the very float64 values compared here — is at least the
// n-th smallest. The unit counted is a track (see track), not a node.
//
// The pass keeps the n fastest tracks in the scanner's scratch. A slot not
// faster than the n-th fastest track so far is skipped — on its node's Perf
// alone where it can be, since Volume/Perf is monotone — and as that bound
// only falls, every track faster than the final floor was kept whole. Fewer
// than n tracks means no window exists (+Inf). An execution time that is
// not positive voids the argument, and the bound is -Inf: nothing is pruned.
func (sc *Scanner) runtimeFloor(cur slots.Cursor, req *job.Request) float64 {
	n := req.TaskCount
	if n <= 0 {
		return math.Inf(-1)
	}
	fast := sc.tracks[:0]
	slowest := 0.0 // the Perf of the n-th fastest track, once there are n
	for leaf := cur.Next(); leaf != nil; leaf = cur.Next() {
		for _, s := range leaf {
			if p := s.Node.Perf; p <= slowest && p > 0 {
				continue // Volume/p is no smaller than the n-th fastest exec
			}
			if !req.Matches(s.Node) {
				continue
			}
			exec, ok := hosts(s, req)
			if !ok {
				continue // the scan never admits it
			}
			if !(exec > 0) {
				sc.tracks = fast
				return math.Inf(-1)
			}
			if len(fast) == n && exec >= fast[n-1].key {
				continue
			}
			fast = keepTrack(fast, n, s, exec)
			if len(fast) == n {
				slowest = fast[n-1].perf
			}
		}
	}
	sc.tracks = fast
	if len(fast) < n {
		return math.Inf(1)
	}
	return fast[n-1].key
}

// costBound is the pre-pass of MinCost's cost bound, made beside
// runtimeFloor's. One pass over cur keeps the n−1 cheapest tracks (see
// track) of the slots the scan admits, and leaves their costs in sc.low,
// sorted. The other n−1 members of any window lie on n−1 distinct tracks of
// admitted slots, so their sorted costs are at least sc.low's, element for
// element: were the i-th of them below sc.low's i-th, i members would lie on
// the fewer than i kept tracks that cheap, two on one track. (A slot not
// cheaper than the (n−1)-th track so far is skipped; as that bound only
// falls, every track cheaper than the final one was kept whole.)
//
// The same pass returns limit, a cost MinCost's answer does not exceed: the
// budget, or the cost of the n cheapest slots of the list's first start
// that are still alive at it, whichever is less (+Inf: neither). Those
// slots are in the window of the scan's visit at that start, whose n
// cheapest cost no more, so the cheapest window of the scan costs no more
// either. The scan can then leave out slots before it has found any window:
// at the first start every node's first slot may begin.
//
// ok is false, and there is no bound, when a cost is NaN or infinite, since
// a float sum is then no longer monotone in its terms, and when an
// execution time is not positive, which voids the track argument. (Fewer
// than n−1 tracks leave sc.low short; no window exists then, and nothing
// the bound leaves out matters.) A slot past the first start whose finite
// cost is no lower than the n−1 kept tracks changes nothing and is skipped
// on its cost alone; every other slot is tested before its admission, so a
// NaN or infinite cost on any slot voids the bound.
func (sc *Scanner) costBound(cur slots.Cursor, req *job.Request) (limit float64, ok bool) {
	n := req.TaskCount
	leaf := cur.Next()
	if n <= 0 || leaf == nil {
		return 0, false
	}
	limit = math.Inf(1)
	if req.MaxCost > 0 {
		limit = req.MaxCost
	}
	cheap, group := sc.tracks[:0], sc.group[:0]
	defer func() { sc.tracks, sc.group = cheap, group }()
	first := leaf[0].Start
	skip := math.Inf(1) // the (n−1)-th track's cost once there are n−1; with n == 1, any cost
	if n == 1 {
		skip = -math.MaxFloat64
	}
	for ; leaf != nil; leaf = cur.Next() {
		for _, s := range leaf {
			exec := req.ExecTime(s.Node)
			cost := exec * s.Node.Price
			if cost >= skip && cost <= math.MaxFloat64 && s.Start != first {
				continue
			}
			if math.IsNaN(cost) || math.IsInf(cost, 0) || !(exec > 0) {
				return 0, false
			}
			if !req.Matches(s.Node) {
				continue
			}
			if _, hosted := hosts(s, req); !hosted {
				continue
			}
			if n > 1 && (len(cheap) < n-1 || cost < skip) {
				if cheap = keepTrack(cheap, n-1, s, cost); len(cheap) == n-1 {
					skip = cheap[n-2].key
				}
			}
			if s.Start == first && effEnd(s, req)-first >= exec && (len(group) < n || cost < group[n-1]) {
				group = insertSorted(group, n, cost) // alive at its start: expire's test
			}
		}
	}
	sc.low = sc.low[:0]
	for _, t := range cheap {
		sc.low = append(sc.low, t.key)
	}
	if len(group) == n {
		limit = min(limit, windowFloor(group[:n-1], group[n-1]))
	}
	return limit, true
}

// insertSorted inserts x into the ascending list xs, which keeps its k
// smallest values; x must be below the k-th when xs holds k.
func insertSorted(xs []float64, k int, x float64) []float64 {
	if len(xs) == k {
		xs = xs[:k-1]
	}
	i := len(xs)
	xs = append(xs, 0)
	for ; i > 0 && x < xs[i-1]; i-- {
		xs[i] = xs[i-1]
	}
	xs[i] = x
	return xs
}

// costCeiling is MinCost's admission bound: the largest cost a candidate
// can have and still sit in a window that costs less than limit (orEqual:
// no more than limit). A window holding a candidate of cost x costs at
// least windowFloor(sc.low, x) — its cost is the left-to-right sum of its
// members' costs in cost order, and float addition is monotone in each
// term — and windowFloor is monotone in x, so a candidate costing more than
// the largest x it lets through sits in no such window. The search runs
// over float64 order, exactly: no epsilon enters the bound.
//
// MinCost replaces its best only by a strictly cheaper window, and accepts
// one whose cost equals the budget; so before a best exists the limit is
// the budget, orEqual, and after it the best's cost, strictly.
func (sc *Scanner) costCeiling(limit float64, orEqual bool) float64 {
	fits := func(x float64) bool {
		floor := windowFloor(sc.low, x)
		return floor < limit || orEqual && floor == limit
	}
	lo, hi := floatKey(math.Inf(-1)), floatKey(math.Inf(1))
	if !fits(math.Inf(-1)) {
		return math.Inf(-1)
	}
	if fits(math.Inf(1)) {
		return math.Inf(1)
	}
	// fits(lo) and not fits(hi) from here on. limit less the low costs is
	// within a few ulps of the answer unless the sums cancel, so gallop out
	// from it to bracket the answer before bisecting. (A NaN or infinite
	// guess has a key outside (lo, hi).)
	guess := limit
	for _, c := range sc.low {
		guess -= c
	}
	if k := floatKey(guess); k > lo && k < hi {
		if fits(guess) {
			lo = k
			for step := uint64(1); step > 0 && step < hi-k; step <<= 1 {
				if !fits(keyFloat(k + step)) {
					hi = k + step
					break
				}
				lo = k + step
			}
		} else {
			hi = k
			for step := uint64(1); step > 0 && step < k-lo; step <<= 1 {
				if fits(keyFloat(k - step)) {
					lo = k - step
					break
				}
				hi = k - step
			}
		}
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if fits(keyFloat(mid)) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return keyFloat(lo)
}

// windowFloor is the cost of the cheapest window that could hold a
// candidate of cost x: x merged into low, summed left to right from 0, the
// order in which SelectMinCost and buildWindow sum a window's costs. With
// low the rest of a window's costs, ascending, it is that window's cost.
func windowFloor(low []float64, x float64) float64 {
	sum, placed := 0.0, false
	for _, c := range low {
		if !placed && x < c {
			sum, placed = sum+x, true
		}
		sum += c
	}
	if !placed {
		sum += x
	}
	return sum
}

// floatKey maps a float64 to a uint64 in the same order (−0 just before
// +0); keyFloat is its inverse.
func floatKey(x float64) uint64 {
	b := math.Float64bits(x)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

func keyFloat(k uint64) float64 {
	if k>>63 != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

// ---- CSA: alternatives over a scanner-private working copy ----

// Alternatives is the CSA search over a caller's list: LoadWork, then
// WorkAlternatives. The input list is not modified.
func (sc *Scanner) Alternatives(list slots.List, req *job.Request, maxAlts int, minSlotLength float64, col obs.Collector) ([]*Window, error) {
	// Validate before the load so rejecting an invalid request copies
	// nothing.
	if err := req.Validate(); err != nil {
		return nil, err
	}
	sc.LoadWork(list)
	return sc.WorkAlternatives(req, maxAlts, minSlotLength, col)
}

// WorkAlternatives is the CSA search on the loaded working copy: AMP runs
// repeatedly over it, each found window's spans are cut out in place
// (CutWork; remainders shorter than minSlotLength suppressed) before the
// next run, and the alternatives are returned in discovery order —
// non-decreasing start, pairwise disjoint by slots, at most maxAlts of them
// (<= 0: all), ErrNoWindow for none; an invalid request is the first run's
// error. The cuts stay in the working copy, so a following search — the next
// job of a batch — sees only what is left. The alternatives are
// deep-detached copies, caller-owned. Each AMP run reports its scan counters
// to col (nil = off) and the whole search is one "csa" span carrying the
// alternative count; there is no per-run select event.
func (sc *Scanner) WorkAlternatives(req *job.Request, maxAlts int, minSlotLength float64, col obs.Collector) ([]*Window, error) {
	var begin time.Duration
	if col != nil {
		begin = obs.Now()
	}
	var alts []*Window
	for maxAlts <= 0 || len(alts) < maxAlts {
		w, err := sc.search(AMP{}, sc.work.Cursor(), req, col)
		if errors.Is(err, ErrNoWindow) {
			break
		}
		if err != nil {
			return nil, err
		}
		// Detach BEFORE cutting: the scanner-owned window aliases the very
		// working slots the cut mutates.
		alts = append(alts, w.DetachDeep())
		sc.CutWork(w, minSlotLength)
	}
	if col != nil {
		col.Span(obs.Span{
			Name:  "csa.Search",
			Cat:   "csa",
			Start: begin,
			Dur:   obs.Now() - begin,
			Arg:   fmt.Sprintf("alts=%d", len(alts)),
		})
	}
	if len(alts) == 0 {
		return nil, ErrNoWindow
	}
	return alts, nil
}

// LoadWork loads a mutable working copy of the list into the scanner:
// slot values are copied into arena-recycled structs (the input list and
// its slots are never touched), so repeated CutWork calls edit
// scanner-private memory and successive loads reuse the same backing
// arrays instead of cloning the list. The copy lives until the next
// LoadWork, Reset or release; WorkCursor searches it.
func (sc *Scanner) LoadWork(list slots.List) {
	sc.slotUsed = 0
	sc.work = sc.work[:0]
	for _, s := range list {
		ns := sc.newSlot()
		*ns = *s
		sc.work = append(sc.work, ns)
	}
}

// WorkCursor starts a walk over the working copy as it stands, for a Find
// whose window CutWork then removes.
func (sc *Scanner) WorkCursor() slots.Cursor { return sc.work.Cursor() }

// newSlot hands out an arena slot struct, recycling structs from earlier
// searches before allocating.
func (sc *Scanner) newSlot() *slots.Slot {
	if sc.slotUsed < len(sc.arena) {
		s := sc.arena[sc.slotUsed]
		sc.slotUsed++
		return s
	}
	s := &slots.Slot{}
	sc.arena = append(sc.arena, s)
	sc.slotUsed++
	return s
}

// CutWork removes the window's used spans from the working copy in
// place. The result is value-identical, slot for slot, to the persistent
// slots.Cut(work, w.UsedIntervals(), minLength) it replaces: each
// placement's used interval lies inside its own slot and placements sit on
// pairwise distinct nodes, so every cut touches exactly one working slot —
// shrink it, split it, or drop it — and remainders shorter than minLength
// are suppressed exactly as slots.Subtract would. Sort order is maintained
// by in-place edits — slots.Before is a total order on a valid list, so
// they leave exactly the sequence a full re-sort would — and no re-sort is
// needed.
//
// The window's placements must reference slots of the current working copy
// (i.e. a window found by a search over WorkCursor); it is scanner-owned or
// shallow until then, so DetachDeep what you keep before cutting.
func (sc *Scanner) CutWork(w *Window, minLength float64) {
	for i := range w.Placements {
		p := &w.Placements[i]
		sc.cutSlot(p.Slot, p.Start, p.Start+p.Exec, minLength)
	}
}

func (sc *Scanner) cutSlot(s *slots.Slot, cutStart, cutEnd, minLength float64) {
	if !s.Overlaps(slots.Interval{Start: cutStart, End: cutEnd}) {
		return
	}
	i := sc.workIndex(s)
	if i < 0 {
		return // not part of the working copy; nothing to edit
	}
	leftLen := cutStart - s.Start
	rightLen := s.End - cutEnd
	keepL := leftLen >= minLength && leftLen > 0
	keepR := rightLen >= minLength && rightLen > 0
	switch {
	case keepL && keepR:
		right := sc.newSlot()
		*right = slots.Slot{Node: s.Node, Interval: slots.Interval{Start: cutEnd, End: s.End}}
		s.End = cutStart // start and node unchanged: sort position is stable
		sc.insertWork(right)
	case keepL:
		s.End = cutStart
	case keepR:
		sc.removeWork(i)
		s.Interval = slots.Interval{Start: cutEnd, End: s.End}
		sc.insertWork(s) // start moved forward: reinsert at the new position
	default:
		sc.removeWork(i)
	}
}

// workIndex locates a working slot by binary search on (start, node, end),
// confirming by identity.
func (sc *Scanner) workIndex(s *slots.Slot) int {
	i := sort.Search(len(sc.work), func(j int) bool { return !slots.Before(sc.work[j], s) })
	for ; i < len(sc.work); i++ {
		if sc.work[i] == s {
			return i
		}
		if slots.Before(s, sc.work[i]) {
			break
		}
	}
	return -1
}

func (sc *Scanner) insertWork(s *slots.Slot) {
	pos := sort.Search(len(sc.work), func(j int) bool { return slots.Before(s, sc.work[j]) })
	sc.work = append(sc.work, nil)
	copy(sc.work[pos+1:], sc.work[pos:])
	sc.work[pos] = s
}

func (sc *Scanner) removeWork(i int) {
	copy(sc.work[i:], sc.work[i+1:])
	sc.work = sc.work[:len(sc.work)-1]
}
