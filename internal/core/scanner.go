package core

import (
	"sort"
	"sync"

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
// state. Use one Scanner per worker (the parallel engine does), or go
// through the package pool (AcquireScanner/ReleaseScanner) which hands
// each caller its own instance.
//
// Windows returned by Scanner.FindObserved are owned by the scanner and
// remain valid only until the next FindObserved, Reset or release back to
// the pool; callers that retain a result across searches must copy it
// first (Window.Detach / Window.DetachDeep). The public Algorithm.Find
// entry points do exactly that, so their results stay caller-owned.
type Scanner struct {
	// win is the incrementally maintained window index of the current scan.
	win WindowIndex

	// vis is the per-algorithm visitor state; visitFn/plainFn/plainIxFn are
	// adapters bound once at construction so per-Find dispatch does not
	// allocate a closure.
	vis       visitor
	visitFn   IndexedVisitFunc
	plainFn   VisitFunc
	plainIxFn IndexedVisitFunc

	// winA and winB are the result scratch: the visitor builds candidate
	// windows into whichever one is not the current best and swaps on
	// improvement, so build-then-compare criteria (MinFinish, MinProcTime)
	// reuse two buffers instead of allocating one window per visit.
	winA, winB Window

	// rng backs MinProcTime's random selection; reseeded per search so the
	// stream matches a freshly constructed generator. sample and chosen are
	// its index and candidate scratch.
	rng    *randx.Rand
	sample []int
	chosen []Candidate

	// work is the CSA working copy: slot values copied into arena-owned
	// structs so repeated cutting mutates scanner-private memory and reuses
	// the same backing arrays across searches. arena holds every slot
	// struct the scanner ever allocated; arena[:slotUsed] are handed out
	// since the last BeginWork.
	work     slots.List
	arena    []*slots.Slot
	slotUsed int
}

// NewScanner returns a fresh scanner. Most callers should prefer
// AcquireScanner, which recycles warmed-up instances; NewScanner exists for
// long-lived per-worker state and for tests that need full control over the
// instance's lifetime.
func NewScanner() *Scanner {
	sc := &Scanner{}
	sc.vis.sc = sc
	sc.visitFn = func(start float64, win *WindowIndex) bool { return sc.vis.visit(start, win) }
	sc.plainFn = func(start float64, cands []Candidate) bool { return sc.vis.visitPlain(start, cands) }
	sc.plainIxFn = func(start float64, win *WindowIndex) bool { return sc.vis.visitPlain(start, win.cands) }
	return sc
}

// Reset returns the scanner to its post-construction state while keeping
// every buffer's capacity: the window index, result windows, selection
// scratch and CSA working copy are emptied, not freed. ReleaseScanner
// calls it on the way into the pool; per-search state is additionally
// re-initialized at the start of every FindObserved, so results never
// depend on what a previous search (or a previous pool user) left behind —
// the dirty-pool adversarial test poisons every buffer to pin that down.
func (sc *Scanner) Reset() {
	sc.win.reset()
	sc.win.mirror = false
	sc.vis.reset(nil)
	sc.winA = Window{Placements: sc.winA.Placements[:0]}
	sc.winB = Window{Placements: sc.winB.Placements[:0]}
	sc.sample = sc.sample[:0]
	sc.chosen = sc.chosen[:0]
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

// FindObserved runs one algorithm search on the scanner's recycled state
// and returns the best window, ErrNoWindow when none is feasible, or an
// input error. The returned window is scanner-owned: valid until the next
// FindObserved/Reset/release, shared placements with the scanner's scratch.
// Callers that keep it must Detach (the public Find entry points do).
//
// Every algorithm shipped by this package dispatches onto the scanner's
// allocation-free visitor; unknown third-party algorithms fall back to
// their own Find/FindObserved.
func (sc *Scanner) FindObserved(alg Algorithm, list slots.List, req *job.Request, col obs.Collector) (*Window, error) {
	return sc.find(alg, list.Cursor(), req, col)
}

// find is the search behind every scanner entry: over a caller's list
// (FindObserved) or a published sequence (FindCursor), through the same cursor.
func (sc *Scanner) find(alg Algorithm, cur slots.Cursor, req *job.Request, col obs.Collector) (*Window, error) {
	v := &sc.vis
	v.reset(req)
	indexed := true
	switch a := alg.(type) {
	case AMP:
		v.kind = vkAMP
	case MinCost:
		v.kind = vkMinCost
	case MinRunTime:
		v.kind = vkMinRunTime
		v.exact, v.literalBudget = a.Exact, a.LiteralBudget
	case MinFinish:
		v.kind = vkMinFinish
		v.exact, v.earlyStop = a.Exact, a.EarlyStop
	case MinProcTimeGreedy:
		v.kind = vkMinProcGreedy
		v.weight = execWeight
	case MinEnergy:
		v.kind = vkMinEnergy
		if a.Model == nil {
			v.weight = defaultEnergyWeight
		} else {
			model := a.Model
			v.weight = func(c Candidate) float64 { return model(c.Slot.Node.Perf, c.Exec) }
		}
	case MinProcTime:
		// The random sub-window step reads the window in append order only,
		// so it runs on the plain scan path (see MinProcTime.FindObserved).
		v.kind = vkMinProcRandom
		if sc.rng == nil {
			sc.rng = randx.New(a.Seed)
		} else {
			sc.rng.Seed(a.Seed)
		}
		indexed = false
	default:
		// Unknown algorithm: no visitor dispatch; run its own search. Its
		// result is already caller-owned, which Detach treats as a plain
		// copy, so the calling convention stays uniform.
		if of, ok := alg.(ObservedFinder); ok {
			return of.FindObserved(cur.List(), req, col)
		}
		return alg.Find(cur.List(), req)
	}

	var err error
	if indexed {
		fn := sc.visitFn
		if indexWrap != nil {
			fn = indexWrap(fn)
		}
		err = scanLoop(cur, req, col, true, &sc.win, fn)
	} else {
		fn := sc.plainIxFn
		if visitWrap != nil {
			wrapped := visitWrap(sc.plainFn)
			fn = func(start float64, win *WindowIndex) bool { return wrapped(start, win.cands) }
		}
		err = scanLoop(cur, req, col, false, &sc.win, fn)
	}
	if err != nil {
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
	vkMinProcGreedy
	vkMinEnergy
	vkMinProcRandom
)

// execWeight is MinProcTimeGreedy's additive weight. Package-level so
// assigning it to the visitor never allocates.
func execWeight(c Candidate) float64 { return c.Exec }

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
	earlyStop     bool
	weight        func(Candidate) float64

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
	v.exact, v.literalBudget, v.earlyStop = false, false, false
	v.weight = nil
	v.best, v.spare = &v.sc.winA, &v.sc.winB
	v.hasBest = false
	v.bestVal = 0
}

// visit is the indexed-path dispatch. The selection kernels run on the win
// argument — not on the scanner's own index — because the aliasing tests
// interpose private rebuilt indexes through the scan's wrap seam.
func (v *visitor) visit(start float64, win *WindowIndex) bool {
	switch v.kind {
	case vkAMP:
		chosen, _, ok := win.selectMinCostScratch(v.req.TaskCount, v.req.MaxCost)
		if !ok {
			return false
		}
		buildWindow(v.best, start, chosen)
		v.hasBest = true
		return true // earliest start found; later positions cannot improve

	case vkMinCost:
		chosen, cost, ok := win.selectMinCostScratch(v.req.TaskCount, v.req.MaxCost)
		if !ok {
			return false
		}
		if !v.hasBest || cost < v.best.Cost {
			buildWindow(v.best, start, chosen)
			v.hasBest = true
		}
		return false

	case vkMinRunTime:
		var chosen []Candidate
		var runtime float64
		var ok bool
		if v.exact {
			chosen, runtime, ok = win.selectMinRuntimeExactScratch(v.req.TaskCount, v.req.MaxCost)
		} else {
			chosen, runtime, ok = win.selectMinRuntimeGreedyScratch(v.req.TaskCount, v.req.MaxCost, v.literalBudget)
		}
		if !ok {
			return false
		}
		if !v.hasBest || runtime < v.best.Runtime {
			buildWindow(v.best, start, chosen)
			v.hasBest = true
		}
		return false

	case vkMinFinish:
		if v.earlyStop && v.hasBest && start >= v.best.Finish() {
			return true // every further window finishes after start >= best
		}
		var chosen []Candidate
		var ok bool
		if v.exact {
			chosen, _, ok = win.selectMinRuntimeExactScratch(v.req.TaskCount, v.req.MaxCost)
		} else {
			chosen, _, ok = win.selectMinRuntimeGreedyScratch(v.req.TaskCount, v.req.MaxCost, false)
		}
		if !ok {
			return false
		}
		w := v.spare
		buildWindow(w, start, chosen)
		if !v.hasBest || w.Finish() < v.best.Finish() {
			v.best, v.spare = w, v.best
			v.hasBest = true
		}
		return false

	case vkMinProcGreedy:
		chosen, total, ok := win.selectMinAdditiveGreedyScratch(v.req.TaskCount, v.req.MaxCost, v.weight)
		if !ok {
			return false
		}
		if !v.hasBest || total < v.best.ProcTime {
			buildWindow(v.best, start, chosen)
			v.hasBest = true
		}
		return false

	case vkMinEnergy:
		chosen, total, ok := win.selectMinAdditiveGreedyScratch(v.req.TaskCount, v.req.MaxCost, v.weight)
		if !ok {
			return false
		}
		if !v.hasBest || total < v.bestVal {
			buildWindow(v.best, start, chosen)
			v.hasBest = true
			v.bestVal = total
		}
		return false
	}
	return false
}

// visitPlain is the plain-path dispatch (MinProcTime's random step).
func (v *visitor) visitPlain(start float64, cands []Candidate) bool {
	chosen, ok := v.sc.selectRandomScratch(cands, v.req.TaskCount, v.req.MaxCost)
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

// selectRandomScratch is selectRandom drawing into the scanner's index and
// candidate scratch: the Sample stream (drawn before the budget check) and
// the chosen order are identical to the allocating oracle's.
func (sc *Scanner) selectRandomScratch(cands []Candidate, n int, budget float64) ([]Candidate, bool) {
	if len(cands) < n {
		return nil, false
	}
	idx := sc.rng.SampleInto(sc.sample[:0], len(cands), n)
	sc.sample = idx
	chosen := sc.chosen[:0]
	cost := 0.0
	for _, i := range idx {
		chosen = append(chosen, cands[i])
		cost += cands[i].Cost
	}
	sc.chosen = chosen
	if budget > 0 && cost > budget {
		return nil, false
	}
	return chosen, true
}

// ---- CSA working-copy machinery ----

// BeginWork loads a mutable working copy of the list into the scanner:
// slot values are copied into arena-recycled structs (the input list and
// its slots are never touched), so repeated CutWindow calls edit
// scanner-private memory and successive searches reuse the same backing
// arrays instead of cloning the list per search.
func (sc *Scanner) BeginWork(list slots.List) {
	sc.slotUsed = 0
	sc.work = sc.work[:0]
	for _, s := range list {
		ns := sc.newSlot()
		*ns = *s
		sc.work = append(sc.work, ns)
	}
}

// Work returns the current working copy. The list is scanner-owned,
// mutated by CutWindow and recycled by BeginWork/Reset; it must not be
// retained or published.
func (sc *Scanner) Work() slots.List { return sc.work }

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

// CutWindow removes the window's used spans from the working copy in
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
// (i.e. a window returned by FindObserved over Work()). Detach any
// alternative you keep BEFORE cutting: cutting mutates the very slot
// structs the scanner-owned window points at.
func (sc *Scanner) CutWindow(w *Window, minLength float64) {
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
