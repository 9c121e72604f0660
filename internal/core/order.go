package core

import "math"

// orderBlockCap is the capacity of one block of an orderedSet. 32 handles
// are two cache lines: an insertion moves at most that much, a window of a
// few dozen candidates is a single block (a plain sorted array of 4-byte
// handles), and a window of w candidates has about w/20 blocks to step
// over. A variable only so tests can shrink it (SetOrderBlockCapForTest)
// and drive splits and merges with windows of a handful of candidates.
var orderBlockCap = 32

// orderedSet keeps the handles of the live candidates sorted by a strict
// total order (candLess, cost or execution time first), as a blocked
// sorted array: a directory of blocks in order, each a sorted run of at
// most bcap handles in its own stretch of one backing array. Insertion is a
// binary search over the directory and one inside the block, deletion by
// handle the same directory search and a scan of the block for the handle,
// and both move at most bcap handles; a full block splits in two, and two
// neighbours that together fill half a block merge, so the directory stays
// within 4·w/bcap+1 blocks. A set of one block — any window up to bcap —
// skips the directory and is a plain sorted array of handles. Candidates that compare equal (one node publishing
// overlapping slots) keep their insertion order.
//
// A weighted set also carries, beside every handle, the candidate's filter
// weight, and per block the minimum of them, so "the next candidate after
// this position whose weight is below t" steps over whole blocks
// (nextBelow). The filter weight is the weight with NaN stored as -Inf: a
// NaN weight is never "not below", whatever the threshold.
//
// A bounded set holds, of the candidates it tracks, exactly those that
// precede its bound: what is not below the bound is never inserted, and so
// never removed. Everything the set holds then precedes everything it does
// not, so its front is the front of the whole order for as long as it holds
// as many candidates as a reader asks for.
//
// The set holds handles, not candidates: every method takes the arena the
// handles index.
type orderedSet struct {
	execFirst bool // which of candLess's two orders
	active    bool // tracking the window: add and expire maintain the set
	weighted  bool // w and block minima are maintained
	bounded   bool // the set holds only what precedes bound
	bcap      int
	n         int // handles in the set

	dir   []block   // the blocks, in order
	h     []int32   // block storage: block b owns h[b.off : b.off+bcap]
	w     []float64 // filter weights beside h; maintained only when weighted
	spare []int32   // storage offsets of dissolved blocks, reused first

	bound Candidate // with bounded: the set holds what precedes it
}

// block is one directory entry.
type block struct {
	off  int32   // offset of the block's storage in h (and w)
	n    int32   // handles in the block, 1..bcap
	minW float64 // smallest filter weight in the block (weighted sets)
}

// reset empties the set, retaining capacity, and leaves it inactive.
func (s *orderedSet) reset(execFirst bool) {
	s.execFirst = execFirst
	s.bcap = orderBlockCap
	s.dir = s.dir[:0]
	s.h = s.h[:0]
	s.w = s.w[:0]
	s.spare = s.spare[:0]
	s.n = 0
	s.active, s.weighted, s.bounded = false, false, false
}

// holds reports whether the set holds c when c is tracked: whether c
// precedes the bound, if there is one.
func (s *orderedSet) holds(c *Candidate) bool { return !s.bounded || s.less(c, &s.bound) }

// load replaces the set's handles by hs, which must be in the set's order
// (equals in append order), packed into full blocks. The set is left
// unweighted; its bound is the caller's to set.
func (s *orderedSet) load(hs []int32) {
	s.dir, s.h, s.spare = s.dir[:0], s.h[:0], s.spare[:0]
	s.weighted = false
	s.n = len(hs)
	for len(hs) > 0 {
		m := min(len(hs), s.bcap)
		off := s.newStorage()
		copy(s.h[off:], hs[:m])
		s.dir = append(s.dir, block{off: off, n: int32(m)})
		hs = hs[m:]
	}
}

// prefix appends the set's first k handles, in order, to dst.
func (s *orderedSet) prefix(dst []int32, k int) []int32 {
	for _, blk := range s.dir {
		for _, h := range s.h[blk.off : blk.off+blk.n] {
			if k == 0 {
				return dst
			}
			dst = append(dst, h)
			k--
		}
	}
	return dst
}

// filterWeight is the weight as nextBelow compares it.
func filterWeight(w float64) float64 {
	if w != w {
		return math.Inf(-1)
	}
	return w
}

// newStorage hands out one block's worth of backing array.
func (s *orderedSet) newStorage() int32 {
	if k := len(s.spare); k > 0 {
		off := s.spare[k-1]
		s.spare = s.spare[:k-1]
		return off
	}
	off := len(s.h)
	s.h = append(s.h, make([]int32, s.bcap)...)
	if s.weighted {
		s.w = append(s.w, make([]float64, len(s.h)-len(s.w))...)
	}
	return int32(off)
}

// blockFor returns the first block whose last element lies beyond c: one
// that c strictly precedes (strict: the block an insertion of c goes into,
// after c's equals) or one that does not precede c (not strict: the block
// where c's equals begin). It returns len(dir) when no block's does.
func (s *orderedSet) blockFor(arena []Candidate, c *Candidate, strict bool) int {
	lo, hi := 0, len(s.dir)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		blk := s.dir[mid]
		if e := &arena[s.h[blk.off+blk.n-1]]; strict && s.less(c, e) || !strict && !s.less(e, c) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// less is the set's order.
func (s *orderedSet) less(a, b *Candidate) bool { return candLess(a, b, s.execFirst) }

// candLess is the two strict total orders the selection kernels sort by:
// (Cost, Exec, NodeID), the cost order, and with execFirst (Exec, Cost,
// NodeID), the exact runtime kernel's. Node IDs are unique within a scan
// window when every node's free slots are disjoint (every retained slot
// contains the current start); candidates of a list where they are not
// compare equal, and an orderedSet keeps those in append order. One body
// over a flag, not two functions behind a function value, so that it
// inlines into the searches.
func candLess(a, b *Candidate, execFirst bool) bool {
	a1, b1, a2, b2 := a.Cost, b.Cost, a.Exec, b.Exec
	if execFirst {
		a1, b1, a2, b2 = a2, b2, a1, b1
	}
	if a1 != b1 {
		return a1 < b1
	}
	if a2 != b2 {
		return a2 < b2
	}
	return a.Slot.Node.ID < b.Slot.Node.ID
}

// insert adds handle h (filter weight fw, read only by a weighted set)
// after every element that does not follow it.
func (s *orderedSet) insert(arena []Candidate, h int32, fw float64) {
	// The block: the only one, or the first whose last element the handle
	// precedes, or — past every element — the last. In it, before the first
	// element the handle precedes.
	c := &arena[h]
	b := 0
	if len(s.dir) == 0 {
		s.dir = append(s.dir, block{off: s.newStorage(), minW: math.Inf(1)})
	} else if len(s.dir) > 1 {
		if b = s.blockFor(arena, c, true); b == len(s.dir) {
			b--
		}
	}
	hs := s.h[s.dir[b].off : s.dir[b].off+s.dir[b].n]
	j, r := 0, len(hs)
	for j < r {
		mid := int(uint(j+r) >> 1)
		if s.less(c, &arena[hs[mid]]) {
			r = mid
		} else {
			j = mid + 1
		}
	}
	if int(s.dir[b].n) == s.bcap {
		s.split(b)
		if left := int(s.dir[b].n); j > left {
			b, j = b+1, j-left
		}
	}
	blk := &s.dir[b]
	at, end := int(blk.off)+j, int(blk.off+blk.n)
	copy(s.h[at+1:end+1], s.h[at:end])
	s.h[at] = h
	if s.weighted {
		copy(s.w[at+1:end+1], s.w[at:end])
		s.w[at] = fw
		if fw < blk.minW {
			blk.minW = fw
		}
	}
	blk.n++
	s.n++
}

// split moves the upper half of full block b into a new block after it.
func (s *orderedSet) split(b int) {
	off := s.newStorage()
	blk := &s.dir[b]
	keep := blk.n / 2
	from, end := blk.off+keep, blk.off+blk.n
	copy(s.h[off:], s.h[from:end])
	if s.weighted {
		copy(s.w[off:], s.w[from:end])
	}
	right := block{off: off, n: blk.n - keep}
	blk.n = keep
	s.dir = append(s.dir, block{})
	copy(s.dir[b+2:], s.dir[b+1:])
	s.dir[b+1] = right
	if s.weighted {
		s.remin(b)
		s.remin(b + 1)
	}
}

// remin recomputes block b's minimum filter weight.
func (s *orderedSet) remin(b int) {
	blk := &s.dir[b]
	m := math.Inf(1)
	for _, w := range s.w[blk.off : blk.off+blk.n] {
		if w < m {
			m = w
		}
	}
	blk.minW = m
}

// remove deletes handle h, which must be in the set: the block is found by
// value, the handle in it by identity — a scan of at most bcap 4-byte
// handles, which also tells equal candidates apart (and carries on into the
// next block when a run of equals does).
func (s *orderedSet) remove(arena []Candidate, h int32) {
	b, j := 0, 0
	if len(s.dir) > 1 {
		b = s.blockFor(arena, &arena[h], false)
	}
	for {
		blk := s.dir[b]
		for j = 0; j < int(blk.n) && s.h[int(blk.off)+j] != h; j++ {
		}
		if j < int(blk.n) {
			break
		}
		b++
	}
	s.n--
	blk := &s.dir[b]
	at, end := int(blk.off)+j, int(blk.off+blk.n)
	copy(s.h[at:end-1], s.h[at+1:end])
	if s.weighted {
		gone := s.w[at]
		copy(s.w[at:end-1], s.w[at+1:end])
		if blk.n--; gone <= blk.minW {
			s.remin(b)
		}
	} else {
		blk.n--
	}
	switch {
	case blk.n == 0:
		s.dissolve(b)
	case b > 0 && int(s.dir[b-1].n+blk.n) <= s.bcap/2:
		s.merge(b - 1)
	case b+1 < len(s.dir) && int(blk.n+s.dir[b+1].n) <= s.bcap/2:
		s.merge(b)
	}
}

// merge appends block b+1 to block b and dissolves it.
func (s *orderedSet) merge(b int) {
	left, right := &s.dir[b], s.dir[b+1]
	to := left.off + left.n
	copy(s.h[to:], s.h[right.off:right.off+right.n])
	if s.weighted {
		copy(s.w[to:], s.w[right.off:right.off+right.n])
		if right.minW < left.minW {
			left.minW = right.minW
		}
	}
	left.n += right.n
	s.dissolve(b + 1)
}

// dissolve drops block b from the directory and recycles its storage.
func (s *orderedSet) dissolve(b int) {
	s.spare = append(s.spare, s.dir[b].off)
	copy(s.dir[b:], s.dir[b+1:])
	s.dir = s.dir[:len(s.dir)-1]
}

// setWeights makes the set weighted by the given function (again, when it
// already was): every filter weight and block minimum is recomputed.
func (s *orderedSet) setWeights(arena []Candidate, weight func(Candidate) float64) {
	s.weighted = true
	if len(s.w) < len(s.h) {
		s.w = append(s.w, make([]float64, len(s.h)-len(s.w))...)
	}
	for b := range s.dir {
		blk := s.dir[b]
		for i := blk.off; i < blk.off+blk.n; i++ {
			s.w[i] = filterWeight(weight(arena[s.h[i]]))
		}
		s.remin(b)
	}
}

// at normalises a position: the element at (b, j), or the first one after
// it when j is past block b's end.
func (s *orderedSet) at(b, j int) (int, int, bool) {
	for b < len(s.dir) {
		if j < int(s.dir[b].n) {
			return b, j, true
		}
		b, j = b+1, 0
	}
	return b, 0, false
}

// nextBelow returns the first position at or after (b, j) whose filter
// weight is below t, stepping over every block whose minimum is not.
func (s *orderedSet) nextBelow(b, j int, t float64) (int, int, bool) {
	for ; b < len(s.dir); b, j = b+1, 0 {
		blk := s.dir[b]
		if !(blk.minW < t) {
			continue
		}
		ws := s.w[blk.off : blk.off+blk.n]
		for ; j < len(ws); j++ {
			if ws[j] < t {
				return b, j, true
			}
		}
	}
	return b, 0, false
}

// handle returns the handle at a position at or nextBelow returned.
func (s *orderedSet) handle(b, j int) int32 { return s.h[int(s.dir[b].off)+j] }
