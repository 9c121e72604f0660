package core

import (
	"math"
	"sort"
	"unsafe"

	"slotsel/internal/job"
	"slotsel/internal/randx"
)

// WindowIndex is the incrementally maintained candidate index of one AEP
// scan. A scan step costs O(log w) in the window size w, and O(1) when it
// expires nothing; a visit costs what its select reads.
//
// Candidates live in an arena at stable 4-byte handles; every other
// structure holds handles, the append order included.
//
//   - Expiry is a min-heap of handles keyed by each candidate's last
//     feasible start, which is fixed when the candidate is added: a step
//     whose heap top is still feasible touches nothing, and a candidate is
//     removed once. The key orders the heap and never decides: it is the
//     last feasible start moved earlier by a few ulps, and every candidate
//     the key lets through is tested with the scan's own predicate
//     (effEnd − start >= Exec, which differs from effEnd − Exec >= start in
//     the last ulp); one that still fits goes back on the heap.
//
//   - Selection order is one orderedSet in the (Cost, Exec, NodeID) order of
//     cheapestN and, for the exact runtime kernel alone, one in the (Exec,
//     Cost, NodeID) order. Both are activated lazily, by the first select of
//     a scan that needs them.
//
//   - Who reads what. The substitution kernels (MinRunTime, MinFinish,
//     MinEnergy, MinProcTimeGreedy) walk the cost order past its front, so
//     theirs holds the whole window. SelectMinCost (MinCost, AMP) reads only
//     its first n, so its cost order is cut: it holds exactly the live
//     candidates that precede a bound, and add and expire touch it only for
//     those. Everything it holds then precedes everything it does not, so
//     while it holds n or more, its first n are the window's. A cut keeps
//     the k cheapest of the window in one pass (k = 4n+16, or n at a scan's
//     first select), answers with the first n of them, and loads the order
//     with those before the k-th — the bound — and its equals. Expiries that
//     leave fewer than n send the next select to cut again; arrivals below
//     the bound that grow the order past twice k cut it at its own k-th.
//     Should the bound's equals (one node's overlapping slots) leave fewer
//     than n below it, the order holds the whole window instead. A search
//     that accepts at its first visit (AMP, nearly always) builds an order
//     of n-1 handles and nothing else.
//
//   - Cands, the append-order window as a slice, is materialised when read:
//     an expired candidate leaves a tombstone in the append-order sequence,
//     and the read squeezes them out while it copies. The readers that need
//     the slice (the random MinProcTime step, the baselines, the copy+sort
//     oracle twins) pay O(w) per visit, and nobody else does.
//
// Lifetime: a WindowIndex handed to a VisitFunc is owned by the scan and
// reused between visits; the slice returned by Cands is a live view, and
// the chosen slice a Select* method returns is the index's scratch buffer,
// valid until the next select on the same index: copy what you keep.
type WindowIndex struct {
	// arena holds the candidates, a handle being an index into it. seq is
	// the window in scan append order (non-decreasing slot start): handles,
	// with none where a candidate expired since the last compaction. pos
	// runs beside arena: a live candidate's index in seq, a recycled cell's
	// next free handle (free heads that chain).
	arena []Candidate
	pos   []int32
	free  int32
	seq   []int32
	live  int

	// expKey and expH are the expiry min-heap, as two parallel arrays (12
	// bytes an element, not 16): the padded last feasible start of arena[h],
	// and h. held is expire's buffer of candidates the key let through and
	// the predicate kept.
	expKey []float64
	expH   []int32
	held   []int32

	// view is Cands' materialisation. Unless viewStale, seq has no
	// tombstones and view holds the candidates of seq[:len(view)].
	view      []Candidate
	viewStale bool

	// cost and exec are the selection orders. The cost order is cut again at
	// its own k-th when it grows past costCap; top is the buffer of handles
	// a cut is made from.
	cost, exec orderedSet
	costCap    int
	top        []int32

	// weight is the function the cost order's filter weights were computed
	// with (nil: the order is unweighted).
	weight func(Candidate) float64

	// scratch is the chosen-slice buffer the Select* kernels return: one
	// buffer, recycled across visits, consumed by the caller before the
	// next selection. weights holds the weights of the greedy loop's forming
	// window, sample is SelectRandom's index scratch.
	scratch []Candidate
	weights []float64
	sample  []int
}

// none is the nil handle.
const none int32 = -1

// expirySlack pads the expiry key. effEnd − Exec and the predicate's
// effEnd − start each round once, so the key and the predicate can disagree
// about a start within an ulp or two (of the operands' magnitudes) of the
// boundary. The pad is thousands of ulps, relative to those magnitudes: a
// candidate let through early costs one exact test per step until it
// expires, one kept past its expiry would be a wrong window.
const expirySlack = 1.0 / (1 << 40)

// NewWindowIndex builds an index over a snapshot of the given candidates
// (the slice is copied) with the cost order already active. It is the
// entry point for tests and tools that want the incremental kernels outside
// a scan; inside a scan the index is maintained incrementally and this
// constructor is never on the hot path.
func NewWindowIndex(cands []Candidate) *WindowIndex {
	ix := &WindowIndex{}
	ix.reset()
	for _, c := range cands {
		ix.add(c, math.Inf(1)) // outside a scan nothing expires
	}
	ix.activate(&ix.cost)
	return ix
}

// Len returns the current window size.
func (ix *WindowIndex) Len() int { return ix.live }

// Cands returns the window in scan append order, materialised on the first
// read after a change. The slice is live scan state: copy what you keep.
func (ix *WindowIndex) Cands() []Candidate {
	if ix.viewStale {
		ix.compact(true)
	}
	for _, h := range ix.seq[len(ix.view):] {
		ix.view = append(ix.view, ix.arena[h])
	}
	return ix.view
}

// compact squeezes the tombstones out of seq and, when asked to, rebuilds
// the Cands view in the same pass.
func (ix *WindowIndex) compact(view bool) {
	v, k := ix.view[:0], 0
	for _, h := range ix.seq {
		if h == none {
			continue
		}
		ix.pos[h] = int32(k)
		ix.seq[k] = h
		k++
		if view {
			v = append(v, ix.arena[h])
		}
	}
	ix.seq = ix.seq[:k]
	if view {
		ix.view, ix.viewStale = v, false
	}
}

// ByCost returns a copy of the window in cost order: what the cost order
// holds, then what its bound left out, sorted (equals in append order). It
// is empty until a select that reads the cost order has run on this index,
// and it changes nothing. For tests and tools: no search path calls it.
func (ix *WindowIndex) ByCost() []Candidate {
	if !ix.cost.active {
		return nil
	}
	out := ix.cost.appendTo(make([]Candidate, 0, ix.live), ix.arena)
	held := len(out)
	for _, h := range ix.seq {
		if h != none && !ix.cost.holds(&ix.arena[h]) {
			out = append(out, ix.arena[h])
		}
	}
	rest := out[held:]
	sort.SliceStable(rest, func(i, j int) bool { return candLess(&rest[i], &rest[j], false) })
	return out
}

// ByExec returns a copy of the window in execution-time order; it is empty
// unless the exact runtime kernel has run on this index. For tests and
// tools: no search path calls it.
func (ix *WindowIndex) ByExec() []Candidate {
	if !ix.exec.active {
		return nil
	}
	return ix.exec.appendTo(make([]Candidate, 0, ix.live), ix.arena)
}

// PrefixCost returns the total cost of the n cheapest candidates, summed
// left to right in cost order. n must be within [0, len(ByCost())]. For
// tests and tools: no search path calls it.
func (ix *WindowIndex) PrefixCost(n int) float64 {
	return sumCost(ix.ByCost()[:n])
}

// add inserts a candidate whose slot's effective end is end: a cell in the
// arena, the tail of the append order, an entry in the expiry heap, and an
// insertion into each selection order already activated that holds it.
func (ix *WindowIndex) add(c Candidate, end float64) {
	h := ix.free
	if h != none {
		ix.free = ix.pos[h]
	} else {
		if cap(ix.arena) == 0 {
			ix.firstUse()
		}
		h = int32(len(ix.arena))
		ix.arena = append(ix.arena, Candidate{})
		ix.pos = append(ix.pos, 0)
	}
	ix.arena[h], ix.pos[h] = c, int32(len(ix.seq))
	ix.seq = append(ix.seq, h)
	ix.live++

	key := end - c.Exec - expirySlack*(math.Abs(end)+math.Abs(c.Exec))
	if key != key {
		key = math.Inf(1) // an unbounded slot never expires
	}
	ix.pushExpiry(key, h)

	if ix.cost.active && ix.cost.holds(&c) {
		fw := 0.0
		if ix.weight != nil {
			fw = filterWeight(ix.weight(c))
		}
		ix.cost.insert(ix.arena, h, fw)
		if ix.cost.n > ix.costCap {
			ix.trim()
		}
	}
	if ix.exec.active {
		ix.exec.insert(ix.arena, h, 0)
	}
}

// firstUse gives the per-candidate arrays of a fresh index their first
// capacity in one step instead of append's 1, 2, 4, ...: a scanner the pool
// dropped at a GC is rebuilt by its next search, and five arrays growing
// from nothing would cost that search five times the allocations.
func (ix *WindowIndex) firstUse() {
	const n = 64
	ix.arena = make([]Candidate, 0, n)
	ix.pos = make([]int32, 0, n)
	ix.seq = make([]int32, 0, 2*n)
	ix.expKey = make([]float64, 0, n)
	ix.expH = make([]int32, 0, n)
}

// expire drops every candidate that no longer provides its minimum required
// length to a window starting at start. Only candidates whose key says they
// might not are looked at, and each of those is decided by the predicate
// itself. Starts only grow and the predicate is monotone in start, so a
// candidate dropped stays dropped and one kept is asked again later.
func (ix *WindowIndex) expire(start float64, req *job.Request) {
	limit := start + expirySlack*math.Abs(start)
	for len(ix.expKey) > 0 && ix.expKey[0] <= limit {
		h := ix.popExpiry()
		if c := &ix.arena[h]; effEnd(c.Slot, req)-start >= c.Exec {
			ix.held = append(ix.held, h)
			continue
		}
		ix.remove(h)
	}
	// A kept candidate goes back under the limit that let it through: it is
	// asked again at the next start, and its own key is not needed for that.
	for _, h := range ix.held {
		ix.pushExpiry(limit, h)
	}
	ix.held = ix.held[:0]
}

// remove takes the candidate at handle h out of the selection orders,
// leaves a tombstone in the append order and recycles its cell. The
// tombstones are squeezed out when they outnumber the candidates, so seq
// stays within twice the window and the squeeze is paid for by the removals
// before it.
func (ix *WindowIndex) remove(h int32) {
	if ix.cost.active && ix.cost.holds(&ix.arena[h]) {
		ix.cost.remove(ix.arena, h)
	}
	if ix.exec.active {
		ix.exec.remove(ix.arena, h)
	}
	ix.seq[ix.pos[h]] = none
	ix.arena[h], ix.pos[h] = Candidate{}, ix.free
	ix.free = h
	ix.live--
	ix.viewStale = true
	if len(ix.seq) > 2*ix.live+seqSlack {
		ix.compact(false)
	}
}

// seqSlack keeps a small window from compacting on every other removal.
const seqSlack = 16

func (ix *WindowIndex) pushExpiry(key float64, h int32) {
	keys, hs := append(ix.expKey, key), append(ix.expH, h)
	i := len(keys) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if keys[parent] <= key {
			break
		}
		keys[i], hs[i] = keys[parent], hs[parent]
		i = parent
	}
	keys[i], hs[i] = key, h
	ix.expKey, ix.expH = keys, hs
}

// popExpiry removes the heap's top and returns its handle.
func (ix *WindowIndex) popExpiry() int32 {
	n := len(ix.expKey) - 1
	top, key, h := ix.expH[0], ix.expKey[n], ix.expH[n]
	keys, hs := ix.expKey[:n], ix.expH[:n]
	ix.expKey, ix.expH = keys, hs
	if n == 0 {
		return top
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && keys[r] < keys[child] {
			child = r
		}
		if key <= keys[child] {
			break
		}
		keys[i], hs[i] = keys[child], hs[child]
		i = child
	}
	keys[i], hs[i] = key, h
	return top
}

// reset empties the index, retaining capacity, for reuse across scans.
func (ix *WindowIndex) reset() {
	ix.arena = ix.arena[:0]
	ix.pos = ix.pos[:0]
	ix.free = none
	ix.seq = ix.seq[:0]
	ix.live = 0
	ix.expKey = ix.expKey[:0]
	ix.expH = ix.expH[:0]
	ix.held = ix.held[:0]
	ix.view = ix.view[:0]
	ix.viewStale = false
	ix.cost.reset(false)
	ix.exec.reset(true)
	ix.costCap = 0
	ix.top = ix.top[:0]
	ix.weight = nil
	ix.scratch = ix.scratch[:0]
	ix.weights = ix.weights[:0]
	ix.sample = ix.sample[:0]
}

// activate makes s hold the whole window, built from the window as it
// stands unless it already does; from then on add and expire maintain it,
// and the cost order has no cap. The order is what maintenance from the
// first add would have left: candidates go in in append order, equals after
// equals.
func (ix *WindowIndex) activate(s *orderedSet) {
	if s == &ix.cost {
		ix.costCap = math.MaxInt
	}
	if s.active && !s.bounded {
		return
	}
	s.load(nil)
	s.active, s.bounded = true, false
	for _, h := range ix.seq {
		if h != none {
			s.insert(ix.arena, h, 0)
		}
	}
}

// SelectMinCost is the incremental twin of the selectMinCost oracle: the n
// cheapest candidates are the front of the cost order, and their total is
// their costs summed left to right. The order is cut (see WindowIndex);
// when it holds fewer than n, recut finds the n cheapest in one pass and
// cuts it again. Like every Select*, it returns the index's scratch buffer —
// valid only until the next select on this index.
func (ix *WindowIndex) SelectMinCost(n int, budget float64) (chosen []Candidate, cost float64, ok bool) {
	if ix.live < n {
		return nil, 0, false
	}
	if ix.cost.active && ix.cost.n >= n {
		chosen, _, _ = ix.cheapest(n)
	} else {
		chosen = ix.recut(n)
	}
	cost = sumCost(chosen)
	if budget > 0 && cost > budget {
		return nil, 0, false
	}
	return chosen, cost, true
}

// cheapest copies the first n candidates of the active cost order into the
// scratch buffer and returns the position after them.
func (ix *WindowIndex) cheapest(n int) (chosen []Candidate, b, j int) {
	s := ix.scratch[:0]
	for b, blk := range ix.cost.dir {
		for j, h := range ix.cost.h[blk.off : blk.off+blk.n] {
			if len(s) == n {
				ix.scratch = s
				return s, b, j
			}
			s = append(s, ix.arena[h])
		}
	}
	ix.scratch = s
	return s, len(ix.cost.dir), 0
}

// recut is SelectMinCost when the cost order holds fewer than n: one pass
// over the window in append order keeps the k cheapest so far, sorted in
// ix.top (a candidate goes after its equals, as it would in the order), so
// they are the first k of the whole order. Their first n are the answer,
// copied into the scratch buffer, and the order is cut from them. The first
// select of a scan keeps only k = n.
//
// A cut that leaves fewer than n — the bound's equals, overlapping slots of
// one node, crowd the k cheapest — would send every select back here, so
// the order holds the whole window instead, until arrivals double it.
func (ix *WindowIndex) recut(n int) []Candidate {
	k, first := 4*n+16, !ix.cost.active
	if first {
		k = max(n, 1)
	}
	top := ix.top[:0]
	var last *Candidate // the k-th cheapest so far, once there are k
	for _, h := range ix.seq {
		if h == none {
			continue
		}
		c := &ix.arena[h]
		if last != nil {
			if !candLess(c, last, false) {
				continue
			}
			top = top[:k-1]
		}
		i := len(top)
		top = append(top, h)
		for ; i > 0 && candLess(c, &ix.arena[top[i-1]], false); i-- {
			top[i] = top[i-1]
		}
		top[i] = h
		if len(top) == k {
			last = &ix.arena[top[k-1]]
		}
	}
	s := ix.scratch[:0]
	for _, h := range top[:n] {
		s = append(s, ix.arena[h])
	}
	ix.scratch = s

	ix.cost.active = true
	ix.cut(top, k)
	if !first && ix.cost.n < n {
		ix.activate(&ix.cost)
	}
	ix.costCap = 2 * max(4*n+16, ix.cost.n)
	return s
}

// trim cuts a cost order that grew past its cap at its own k-th: its first
// k are the whole order's, so this cut needs no pass over the window.
func (ix *WindowIndex) trim() {
	k := ix.costCap / 2
	ix.cut(ix.cost.prefix(ix.top[:0], k), k)
}

// cut loads the cost order from top, the first min(k, w) handles of the
// whole order for a window of w: bounded at the k-th, which leaves with its
// equals, or unbounded when top is the whole window.
func (ix *WindowIndex) cut(top []int32, k int) {
	ix.top = top
	if len(top) < k {
		ix.cost.bounded = false
		ix.cost.load(top)
		return
	}
	bound := &ix.arena[top[k-1]]
	p := k - 1
	for p > 0 && !candLess(&ix.arena[top[p-1]], bound, false) {
		p--
	}
	ix.cost.bound, ix.cost.bounded = *bound, true
	ix.cost.load(top[:p])
}

// sameFunc reports whether a and b are one function value: the same closure
// object, hence the same code over the same captured variables. (Go
// compares function values with nil only; a function value is a pointer to
// its closure.)
func sameFunc(a, b func(Candidate) float64) bool {
	return *(*unsafe.Pointer)(unsafe.Pointer(&a)) == *(*unsafe.Pointer)(unsafe.Pointer(&b))
}

// substitute is the paper's §2.2 substitution loop, for MinRunTime (weight
// Exec), MinFinish, MinProcTimeGreedy and MinEnergy alike: start from the n
// cheapest, then walk the rest in cost order, and replace the heaviest of
// the forming window by each candidate that is lighter while the budget
// allows (literalBudget: the paper's pseudocode condition, which does not
// refund the replaced slot). It returns the window in the scratch buffer
// and its weights in ix.weights.
//
// The oracle loop looks at every remaining candidate and recomputes the
// heaviest for each. A candidate that is not lighter than the heaviest
// changes nothing in that loop — neither the window nor its cost — so this
// one asks the cost order for the next candidate that is lighter (nextBelow
// over the block minima decides which to look at; the oracle's own
// comparison on the weight itself decides the substitution) and recomputes
// the heaviest only after a substitution: same trajectory, same float cost
// accumulation, same tie-breaks. And once a lighter candidate does not fit
// the budget, none after it does — they cost no less, float addition is
// monotone, and nothing changes in between — so the walk ends there.
//
// weight must be a pure function of the candidate. The filter weights are
// kept across visits for as long as the calls pass the same function value,
// and recomputed (O(w)) when they do not.
func (ix *WindowIndex) substitute(n int, budget float64, weight func(Candidate) float64, literalBudget bool) (result []Candidate, ok bool) {
	if ix.live < n {
		return nil, false
	}
	ix.activate(&ix.cost)
	if !ix.cost.weighted || !sameFunc(ix.weight, weight) {
		ix.weight = weight
		ix.cost.setWeights(ix.arena, weight)
	}
	result, b, j := ix.cheapest(n)
	cost := sumCost(result)
	if budget > 0 && cost > budget {
		return nil, false
	}
	ws := ix.weights[:0]
	for _, c := range result {
		ws = append(ws, weight(c))
	}
	ix.weights = ws
	if n == 0 {
		return result, true
	}

	heavy := heaviest(ws)
	for {
		// A threshold that is NaN or -Inf orders nothing: look at every
		// candidate, as the oracle does.
		var more bool
		if ws[heavy] > math.Inf(-1) {
			b, j, more = ix.cost.nextBelow(b, j, ws[heavy])
		} else {
			b, j, more = ix.cost.at(b, j)
		}
		if !more {
			break
		}
		short := ix.arena[ix.cost.handle(b, j)]
		j++
		w := weight(short)
		if w >= ws[heavy] {
			continue
		}
		if budget > 0 {
			if literalBudget {
				if !(cost+short.Cost <= budget) {
					break
				}
			} else if !(cost-result[heavy].Cost+short.Cost <= budget) {
				break
			}
		}
		cost += short.Cost - result[heavy].Cost
		result[heavy], ws[heavy] = short, w
		heavy = heaviest(ws)
	}
	return result, true
}

// heaviest returns the index of the first largest weight.
func heaviest(ws []float64) int {
	idx := 0
	for i, w := range ws {
		if w > ws[idx] {
			idx = i
		}
	}
	return idx
}

// execWeight is the runtime-minimizing weight. Package-level so passing it
// never allocates and always is the same function value.
func execWeight(c Candidate) float64 { return c.Exec }

// SelectMinRuntimeGreedy is the incremental twin of selectMinRuntimeGreedy:
// the substitution loop with the execution time as the weight. The output
// is candidate-for-candidate identical to the oracle's.
func (ix *WindowIndex) SelectMinRuntimeGreedy(n int, budget float64, literalBudget bool) (chosen []Candidate, runtime float64, ok bool) {
	result, ok := ix.substitute(n, budget, execWeight, literalBudget)
	if !ok {
		return nil, 0, false
	}
	return result, maxExec(result), true
}

// SelectMinAdditiveGreedy is the incremental twin of
// selectMinAdditiveGreedy for an arbitrary additive per-slot weight, which
// must be a pure function of the candidate.
func (ix *WindowIndex) SelectMinAdditiveGreedy(n int, budget float64, weight func(Candidate) float64) (chosen []Candidate, total float64, ok bool) {
	result, ok := ix.substitute(n, budget, weight, false)
	if !ok {
		return nil, 0, false
	}
	for _, w := range ix.weights {
		total += w
	}
	return result, total, true
}

// SelectMinRuntimeExact is the incremental entry path of the exact
// minimum-runtime oracle: the exec-ordered prefix walk and cost heap are
// unchanged, but the exec ordering comes from the incrementally maintained
// order instead of a per-visit sort. The first call of a scan builds the
// order from the current window; later visits reuse it. The cost heap lives
// in the scratch buffer.
func (ix *WindowIndex) SelectMinRuntimeExact(n int, budget float64) (chosen []Candidate, runtime float64, ok bool) {
	if ix.live < n {
		return nil, 0, false
	}
	ix.activate(&ix.exec)
	heap := ix.scratch[:0]
	sum := 0.0
	var prev Candidate
	for _, blk := range ix.exec.dir {
		for _, h := range ix.exec.h[blk.off : blk.off+blk.n] {
			c := ix.arena[h]
			// The prefix ending at prev is complete once the next candidate
			// has a different exec (an equal one may be cheaper).
			if len(heap) == n && c.Exec != prev.Exec && (budget <= 0 || sum <= budget) {
				ix.scratch = heap
				return heap, prev.Exec, true
			}
			if len(heap) < n {
				heapPush(&heap, c)
				sum += c.Cost
			} else if c.Cost < heap[0].Cost {
				sum += c.Cost - heap[0].Cost
				heapReplace(heap, c)
			}
			prev = c
		}
	}
	ix.scratch = heap
	if len(heap) == n && (budget <= 0 || sum <= budget) {
		return heap, prev.Exec, true
	}
	return nil, 0, false
}

// SelectRandom is the paper's simplified MinProcTime step: a uniformly
// random n-subset of the append-order window, rejected when over budget.
// It reads Cands alone — no order is activated — and the sample stream
// (drawn before the budget check) and the chosen order are identical to
// the allocating selectRandom oracle's.
func (ix *WindowIndex) SelectRandom(n int, budget float64, rng *randx.Rand) (chosen []Candidate, ok bool) {
	if ix.live < n {
		return nil, false
	}
	cands := ix.Cands()
	ix.sample = rng.SampleInto(ix.sample[:0], len(cands), n)
	chosen = ix.scratch[:0]
	cost := 0.0
	for _, i := range ix.sample {
		chosen = append(chosen, cands[i])
		cost += cands[i].Cost
	}
	ix.scratch = chosen
	if budget > 0 && cost > budget {
		return nil, false
	}
	return chosen, true
}
