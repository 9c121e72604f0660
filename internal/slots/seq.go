package slots

import (
	"fmt"
	"slices"
)

// leafSize bounds the leaves SeqOf and Edit build. One mutation copies the
// leaves it touches (a few, each up to leafSize pointers) plus the spine
// (one pointer per leaf), so the constant trades the two terms of
// O(touched·leaf + m/leaf) against each other.
const leafSize = 384

// Before is the canonical publication order, the one SortByStart
// establishes: (start, node ID, end). Per-node slots are disjoint, so within
// a valid list no two slots share (start, node) and the order is total.
func Before(a, b *Slot) bool {
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	if a.Node.ID != b.Node.ID {
		return a.Node.ID < b.Node.ID
	}
	return a.End < b.End
}

// Compare is Before as a three-way comparison, for slices.SortFunc: -1 when
// a is before b, +1 when b is before a, 0 otherwise.
func Compare(a, b *Slot) int {
	switch {
	case Before(a, b):
		return -1
	case Before(b, a):
		return 1
	}
	return 0
}

// Seq is a persistent sorted sequence of slots: immutable leaves of at most
// leafSize slots under one spine, strictly increasing in Before order. Edit
// returns a new sequence that shares every leaf it did not touch with the
// old one, so publishing a mutation costs the touched leaves plus the spine
// instead of a copy of every slot, and any earlier version keeps reading
// exactly as it did (the List immutability contract, extended to leaves and
// spine).
//
// Order is verified when a leaf is built — inside it and against the
// boundary slots of its neighbours — and never again: a Seq that exists is
// ordered, which is what lets a scan over it skip the whole-list check a
// caller-supplied List pays on every search.
type Seq struct {
	leaves []*leaf // the spine
	n      int
	bound  int  // leaf bound: leafSize outside tests
	whole  List // the list SeqOf or Splice cut the leaves from; nil once edited
}

// leaf is one immutable, non-empty run of the sequence. The spine points at
// its leaves rather than holding their slice headers: the spine is what
// every edit copies whole.
type leaf struct{ slots List }

func (l *leaf) last() *Slot { return l.slots[len(l.slots)-1] }

// SeqOf chunks an ordered list into a sequence. The leaves alias l (no slot
// pointer is copied), so l falls under the immutability contract from here
// on. It fails if l is not strictly increasing in Before order.
func SeqOf(l List) (*Seq, error) { return SeqOfLeaf(l, leafSize) }

// SeqOfLeaf is SeqOf with the leaf bound given: the seam that lets tests
// put a leaf boundary at any position of a small list. Edits of the result
// keep the same bound.
func SeqOfLeaf(l List, bound int) (*Seq, error) {
	if bound < 1 {
		return nil, fmt.Errorf("slots: leaf bound %d", bound)
	}
	if err := checkLeaf(l, nil); err != nil {
		return nil, err
	}
	return &Seq{leaves: appendChunks(nil, l, bound), n: len(l), bound: bound, whole: l}, nil
}

// checkLeaf verifies a freshly built leaf: strictly increasing inside, and
// after prev, the last slot of the leaf in front (nil = none).
func checkLeaf(l List, prev *Slot) error {
	for _, s := range l {
		if s == nil || s.Node == nil {
			return fmt.Errorf("slots: nil slot or node in sequence")
		}
		if prev != nil && !Before(prev, s) {
			return fmt.Errorf("slots: sequence out of order: %v does not sort after %v", s, prev)
		}
		prev = s
	}
	return nil
}

// appendChunks cuts l into the fewest leaves of at most bound slots, evenly
// sized (so none is under bound/2 when there are several), as sub-slices
// of l. The leaves are allocated as one block: they alias one list anyway.
func appendChunks(out []*leaf, l List, bound int) []*leaf {
	k := (len(l) + bound - 1) / bound
	out, block := slices.Grow(out, k), make([]leaf, k)
	for i := range block {
		lo, hi := i*len(l)/k, (i+1)*len(l)/k
		block[i] = leaf{l[lo:hi:hi]}
		out = append(out, &block[i])
	}
	return out
}

// Len returns the number of slots.
func (s *Seq) Len() int { return s.n }

// Flatten returns the sequence as one list (immutable, like the sequence):
// a copy, leaf by leaf — or, while no edit has happened since SeqOf or
// Splice, the very list the leaves were cut from.
func (s *Seq) Flatten() List {
	if s.whole != nil {
		return s.whole
	}
	out := make(List, 0, s.n)
	for _, l := range s.leaves {
		out = append(out, l.slots...)
	}
	return out
}

// TotalSpan sums the slot lengths in sequence order — the same additions in
// the same order as Flatten().TotalSpan(), so the same float64.
func (s *Seq) TotalSpan() float64 {
	sum := 0.0
	for _, l := range s.leaves {
		for _, sl := range l.slots {
			sum += sl.Length()
		}
	}
	return sum
}

// Cursor walks a sequence one leaf at a time. The zero Cursor is empty.
type Cursor struct {
	list List    // a caller's list: one leaf, order not yet verified
	rest []*leaf // leaves of a Seq still to come
}

// Cursor starts a walk over the sequence.
func (s *Seq) Cursor() Cursor { return Cursor{rest: s.leaves} }

// Cursor wraps the list as a one-leaf sequence without copying or
// allocating. Its order has not been verified: see Ordered.
func (l List) Cursor() Cursor { return Cursor{list: l} }

// Ordered reports whether the slots ahead are ordered by start time. A
// Seq's leaves were verified when built, so for them this costs nothing; a
// wrapped List is checked in full, on every call.
func (c Cursor) Ordered() bool { return c.list.IsSortedByStart() }

// List returns the slots ahead as one list: the wrapped list itself, or a
// copy of a Seq's remaining leaves.
func (c Cursor) List() List {
	if len(c.rest) == 0 {
		return c.list
	}
	var out List
	for _, l := range c.rest {
		out = append(out, l.slots...)
	}
	return out
}

// Next returns the next leaf (never empty), or nil at the end.
func (c *Cursor) Next() List {
	if len(c.list) > 0 {
		l := c.list
		c.list = nil
		return l
	}
	if len(c.rest) > 0 {
		l := c.rest[0]
		c.rest = c.rest[1:]
		return l.slots
	}
	return nil
}

// Edit returns the sequence without the slots of del and with the slots of
// ins, both given in Before order. A deleted slot is matched by identity —
// it must be the very pointer the sequence holds. Only the leaves an edit
// lands in are rebuilt (and re-verified); all others, and their slots, are
// shared with s, which is left untouched.
//
// An error means the arguments do not fit the sequence: a del slot that is
// not in it, or slots out of order. s stays valid either way. Filling an
// empty sequence is SeqOf(ins): ins is aliased, not copied.
func (s *Seq) Edit(del, ins List) (*Seq, error) {
	if len(del) == 0 && len(ins) == 0 {
		return s, nil
	}
	if s.n == 0 && len(del) == 0 {
		return SeqOfLeaf(ins, s.bound)
	}
	b := seqBuilder{bound: s.bound, out: make([]*leaf, 0, len(s.leaves)+len(ins)/s.bound+2)}
	li := 0 // first leaf of s not yet carried over
	for len(del) > 0 || len(ins) > 0 {
		// The edit lands in the first leaf that does not end before its
		// key; a key past every leaf extends the last one.
		key := firstOf(del, ins)
		t := li
		for hi := len(s.leaves); t < hi; {
			mid := int(uint(t+hi) >> 1)
			if Before(s.leaves[mid].last(), key) {
				t = mid + 1
			} else {
				hi = mid
			}
		}
		var old List
		nd, ni := len(del), len(ins) // how many edits land in this leaf
		if t < len(s.leaves)-1 {
			old = s.leaves[t].slots
			last := s.leaves[t].last()
			nd, ni = countUpTo(del, last), countUpTo(ins, last)
		} else if len(s.leaves) > 0 {
			t = len(s.leaves) - 1
			old = s.leaves[t].slots
		}
		if err := b.carry(s.leaves[li:t]); err != nil {
			return nil, err
		}
		if err := b.rebuild(old, del[:nd], ins[:ni]); err != nil {
			return nil, err
		}
		del, ins = del[nd:], ins[ni:]
		li = t + 1
	}
	if li < len(s.leaves) {
		if err := b.carry(s.leaves[li:]); err != nil {
			return nil, err
		}
	}
	b.finish()
	return &Seq{leaves: b.out, n: b.n, bound: s.bound}, nil
}

// Diff appends to del the slots of from that s does not hold and to ins the
// slots of s that from does not hold, each in Before order, and returns
// both — the arguments that make from.Edit(del, ins) read as s. Slots are
// compared by identity, so an equal-keyed slot that replaced another shows
// up in both lists.
//
// The two spines are walked side by side and a leaf they share is skipped
// without reading it: only the slots of the leaves between two shared ones
// are compared. Where the spines disagree, the leaf that ends first cannot
// be shared — its twin on the other spine would sit after a leaf that ends
// later — so each step reads one boundary slot per side.
func (s *Seq) Diff(from *Seq, del, ins List) (List, List) {
	a, b := from.leaves, s.leaves
	for i, j := 0, 0; i < len(a) || j < len(b); {
		if i < len(a) && j < len(b) && a[i] == b[j] {
			i, j = i+1, j+1
			continue
		}
		i0, j0 := i, j
		for i < len(a) && j < len(b) && a[i] != b[j] {
			if Before(b[j].last(), a[i].last()) {
				j++
			} else {
				i++
			}
		}
		if i == len(a) || j == len(b) { // no shared leaf is left
			i, j = len(a), len(b)
		}
		del, ins = diffLeaves(a[i0:i], b[j0:j], del, ins)
	}
	return del, ins
}

// diffLeaves compares two runs of leaves slot by slot, as two ordered
// streams: a slot in both is skipped, one in a alone is deleted, one in b
// alone inserted.
func diffLeaves(a, b []*leaf, del, ins List) (List, List) {
	var x, y List // the unread rest of the current leaf on each side
	for {
		if len(x) == 0 && len(a) > 0 {
			x, a = a[0].slots, a[1:]
		}
		if len(y) == 0 && len(b) > 0 {
			y, b = b[0].slots, b[1:]
		}
		switch {
		case len(x) == 0 && len(y) == 0:
			return del, ins
		case len(x) > 0 && len(y) > 0 && x[0] == y[0]:
			x, y = x[1:], y[1:]
		case len(y) == 0 || (len(x) > 0 && !Before(y[0], x[0])):
			del, x = append(del, x[0]), x[1:]
		default:
			ins, y = append(ins, y[0]), y[1:]
		}
	}
}

// Splice returns l without the slots of del and with the slots of ins, both
// given in Before order, as a new list; l is left untouched. A deleted slot
// is matched by identity. Each edit point is found by binary search and the
// runs between edit points are copied without being read; each inserted
// slot is checked to sort strictly after what precedes it and before the
// slot that follows. So when l is strictly ordered, so is the result — what
// lets Seq.Splice publish it without a second pass.
//
// An error means the arguments do not fit l: a del slot l does not hold, or
// an insertion out of order.
func (l List) Splice(del, ins List) (List, error) {
	out := make(List, 0, len(l)-len(del)+len(ins))
	pos := 0 // the first slot of l not yet copied
	for len(del) > 0 || len(ins) > 0 {
		key := firstOf(del, ins) // on equal keys, the deletion goes first
		k, hi := pos, len(l)
		for k < hi {
			mid := int(uint(k+hi) >> 1)
			if Before(l[mid], key) {
				k = mid + 1
			} else {
				hi = mid
			}
		}
		out = append(out, l[pos:k]...)
		pos = k
		if len(del) > 0 && key == del[0] {
			if k == len(l) || l[k] != key {
				return nil, fmt.Errorf("slots: splice deletes %v, which the list does not hold", key)
			}
			pos, del = k+1, del[1:]
			continue
		}
		if key == nil || key.Node == nil ||
			(len(out) > 0 && !Before(out[len(out)-1], key)) || (k < len(l) && !Before(key, l[k])) {
			return nil, fmt.Errorf("slots: splice inserts %v out of order", key)
		}
		out, ins = append(out, key), ins[1:]
	}
	return append(out, l[pos:]...), nil
}

// Splice is List.Splice over the sequence's slots, returned as a sequence
// whose leaves alias the spliced list and whose Flatten is that list,
// uncopied. The result is not re-verified: it needs no check that Splice
// did not already make. It costs the flat list of s (a copy, unless s was
// itself cut from one) plus one pass over the new list.
func (s *Seq) Splice(del, ins List) (*Seq, error) {
	l, err := s.Flatten().Splice(del, ins)
	if err != nil {
		return nil, err
	}
	return &Seq{leaves: appendChunks(nil, l, s.bound), n: len(l), bound: s.bound, whole: l}, nil
}

// firstOf returns the earlier head of two ordered lists (not both empty).
func firstOf(a, b List) *Slot {
	if len(b) == 0 || (len(a) > 0 && !Before(b[0], a[0])) {
		return a[0]
	}
	return b[0]
}

// countUpTo counts the leading slots of l that are not after last.
func countUpTo(l List, last *Slot) int {
	n := 0
	for n < len(l) && !Before(last, l[n]) {
		n++
	}
	return n
}

// seqBuilder assembles the spine of an edited sequence, keeping the leaf
// bounds: no leaf over bound, and none under bound/4 unless it is the only
// one (an undersized leaf is merged into its neighbour, so churn cannot
// fragment the spine past ~4m/bound leaves).
type seqBuilder struct {
	out   []*leaf
	n     int
	bound int
}

func (b *seqBuilder) small(l List) bool { return len(l) < b.bound/4 }

func (b *seqBuilder) last() *Slot {
	if n := len(b.out); n > 0 {
		return b.out[n-1].last()
	}
	return nil
}

// carry appends untouched leaves of the old sequence as they are. Each was
// verified when built; only the boundary with what is in front is new.
func (b *seqBuilder) carry(leaves []*leaf) error {
	if len(leaves) == 0 {
		return nil
	}
	if err := checkLeaf(leaves[0].slots[:1], b.last()); err != nil {
		return err
	}
	if n := len(b.out); n > 0 && b.small(b.out[n-1].slots) {
		b.push(leaves[0].slots)
		leaves = leaves[1:]
	}
	for _, l := range leaves {
		b.n += len(l.slots)
	}
	b.out = append(b.out, leaves...)
	return nil
}

// rebuild appends old minus del merged with ins, as freshly verified leaves.
func (b *seqBuilder) rebuild(old, del, ins List) error {
	leaf := make(List, 0, len(old)-len(del)+len(ins))
	for _, s := range old {
		for len(ins) > 0 && Before(ins[0], s) {
			leaf = append(leaf, ins[0])
			ins = ins[1:]
		}
		if len(del) > 0 && del[0] == s {
			del = del[1:]
			continue
		}
		leaf = append(leaf, s)
	}
	if len(del) > 0 {
		return fmt.Errorf("slots: edit deletes %v, which the sequence does not hold", del[0])
	}
	leaf = append(leaf, ins...)
	if err := checkLeaf(leaf, b.last()); err != nil {
		return err
	}
	b.push(leaf)
	return nil
}

// push appends a verified leaf, splitting it when over the bound and
// merging it with the leaf in front when either of the two is undersized.
func (b *seqBuilder) push(l List) {
	if len(l) == 0 {
		return
	}
	b.n += len(l)
	if n := len(b.out); n > 0 && (b.small(b.out[n-1].slots) || b.small(l)) {
		front := b.out[n-1].slots
		l = append(append(make(List, 0, len(front)+len(l)), front...), l...)
		b.out = b.out[:n-1]
	}
	b.out = appendChunks(b.out, l, b.bound)
}

// finish merges an undersized final leaf into the one before it.
func (b *seqBuilder) finish() {
	if n := len(b.out); n >= 2 && b.small(b.out[n-1].slots) {
		last := b.out[n-1].slots
		b.out = b.out[:n-1]
		b.n -= len(last)
		b.push(last)
	}
}
