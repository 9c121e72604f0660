package slots

import "testing"

// checkSeq verifies the structural invariants of a sequence: leaf-size
// bounds, strict Before order inside leaves and across their boundary
// slots, and Len.
func checkSeq(t *testing.T, s *Seq) {
	t.Helper()
	n := 0
	var prev *Slot
	for i, l := range s.leaves {
		if len(l.slots) == 0 || len(l.slots) > s.bound {
			t.Fatalf("leaf %d holds %d slots, bound %d", i, len(l.slots), s.bound)
		}
		if len(s.leaves) > 1 && len(l.slots) < s.bound/4 {
			t.Fatalf("leaf %d of %d holds %d slots, under a quarter of bound %d", i, len(s.leaves), len(l.slots), s.bound)
		}
		if prev != nil && !Before(prev, l.slots[0]) {
			t.Fatalf("leaf %d starts at %v, not after its neighbour's last slot %v", i, l.slots[0], prev)
		}
		if err := checkLeaf(l.slots, nil); err != nil {
			t.Fatalf("leaf %d: %v", i, err)
		}
		prev = l.last()
		n += len(l.slots)
	}
	if n != s.Len() {
		t.Fatalf("Len() = %d, leaves hold %d", s.Len(), n)
	}
}

func sameSlots(a, b List) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzSeqEdit drives random edit scripts against a sort-from-scratch
// oracle. After every edit the new version must read as the oracle does and
// keep the leaf invariants, and — persistence — every earlier version must
// still read exactly as it did when it was made.
func FuzzSeqEdit(f *testing.F) {
	f.Add(uint8(4), []byte("\x05abcdefghij\x83klm\x02no"))
	f.Add(uint8(1), []byte{9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 0x85, 1, 2, 3, 4, 5})
	f.Add(uint8(7), []byte{31, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 9, 9, 9, 9, 9, 9, 9})
	f.Add(uint8(200), []byte{255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, bound uint8, script []byte) {
		type key struct {
			start float64
			node  int
			end   float64
		}
		have := map[key]*Slot{}
		sorted := func() List {
			l := make(List, 0, len(have))
			for _, s := range have {
				l = append(l, s)
			}
			l.SortByStart()
			return l
		}

		seq, err := SeqOfLeaf(nil, int(bound%16)+1)
		if err != nil {
			t.Fatal(err)
		}
		type version struct {
			seq  *Seq
			want List
		}
		versions := []version{{seq, nil}}

		for len(script) > 0 {
			// One edit: a header byte (high bit: delete too; low bits: how
			// many slots to insert), then two bytes per inserted key.
			head := script[0]
			script = script[1:]
			var del, ins List
			if head&0x80 != 0 {
				// Delete every present slot whose start is a multiple of
				// (head&7)+2: runs of equal starts go together.
				for k, s := range have {
					if int(k.start)%(int(head&7)+2) == 0 {
						del = append(del, s)
						delete(have, k)
					}
				}
			}
			for n := int(head & 0x1f); n > 0 && len(script) >= 2; n-- {
				a, b := script[0], script[1]
				script = script[2:]
				k := key{start: float64(a % 24), node: int(b % 6), end: float64(a%24) + 1 + float64(b>>6)}
				if have[k] != nil {
					continue
				}
				have[k] = &Slot{Node: node(k.node), Interval: Interval{k.start, k.end}}
				ins = append(ins, have[k])
			}
			del.SortByStart()
			ins.SortByStart()
			next, err := seq.Edit(del, ins)
			if err != nil {
				t.Fatalf("Edit(%v, %v): %v", del, ins, err)
			}
			checkSeq(t, next)
			want := sorted()
			if got := next.Flatten(); !sameSlots(got, want) {
				t.Fatalf("after Edit(%v, %v):\n got %v\nwant %v", del, ins, got, want)
			}
			seq = next
			versions = append(versions, version{seq, want})
			// Diff against the version just before and one several edits
			// back, then Splice the older flat list: the newer one, pointer
			// for pointer.
			for _, back := range []int{2, 5} {
				if back > len(versions) {
					continue
				}
				checkDiffSplice(t, versions[len(versions)-back].seq, next, want)
			}
		}
		for i, v := range versions {
			if got := v.seq.Flatten(); !sameSlots(got, v.want) {
				t.Fatalf("version %d of %d no longer reads as it did:\n got %v\nwant %v", i, len(versions), got, v.want)
			}
		}
	})
}

// checkDiffSplice checks that next.Diff(old) is what turns old's flat list
// into want (next's) by Splice, and that Splice refuses arguments that do
// not fit the list.
func checkDiffSplice(t *testing.T, old, next *Seq, want List) {
	t.Helper()
	del, ins := next.Diff(old, nil, nil)
	for _, l := range []List{del, ins} {
		if err := checkLeaf(l, nil); err != nil {
			t.Fatalf("Diff returned a list out of order: %v", err)
		}
	}
	flat := old.Flatten()
	got, err := flat.Splice(del, ins)
	if err != nil {
		t.Fatalf("Splice(Diff) of %v: %v", flat, err)
	}
	if !sameSlots(got, want) {
		t.Fatalf("Splice(%v, %v) of %v:\n got %v\nwant %v", del, ins, flat, got, want)
	}
	spliced, err := old.Splice(del, ins)
	if err != nil {
		t.Fatal(err)
	}
	checkSeq(t, spliced)
	if g := spliced.Flatten(); !sameSlots(g, want) || (len(g) > 0 && &g[0] != &spliced.leaves[0].slots[0]) {
		t.Fatal("a spliced sequence does not flatten to the list its leaves alias")
	}
	if len(flat) == 0 {
		return
	}
	twin := *flat[0] // equal key, different pointer: deletion is by identity
	if _, err := flat.Splice(List{&twin}, nil); err == nil {
		t.Error("Splice deleted a slot the list does not hold")
	}
	if _, err := flat.Splice(nil, List{flat[len(flat)/2]}); err == nil {
		t.Error("Splice inserted a slot the list already holds")
	}
	late := &Slot{Node: node(9), Interval: Interval{flat[len(flat)-1].Start + 1, 99}}
	early := &Slot{Node: node(9), Interval: Interval{flat[0].Start - 1, 99}}
	if _, err := flat.Splice(nil, List{late, early}); err == nil {
		t.Error("Splice accepted insertions out of order")
	}
}

// TestSeqDiffReadsNoSharedLeaf: Diff compares the slots of the leaves the
// two versions do not share, and of the shared ones at most the last. Every
// other slot of the shared leaves is replaced by nil, which any comparison
// would dereference.
func TestSeqDiffReadsNoSharedLeaf(t *testing.T) {
	s, err := SeqOfLeaf(grid(40*8), 8)
	if err != nil {
		t.Fatal(err)
	}
	all := s.Flatten()
	gone, moved := all[100], all[205]
	repl := &Slot{Node: node(7), Interval: moved.Interval}
	next, err := s.Edit(List{gone, moved}, List{repl})
	if err != nil {
		t.Fatal(err)
	}
	shared := map[*leaf]bool{}
	for _, l := range next.leaves {
		shared[l] = true
	}
	n := 0
	for _, l := range s.leaves {
		if shared[l] {
			n++
			clear(l.slots[:len(l.slots)-1])
		}
	}
	if n < len(s.leaves)-4 {
		t.Fatalf("only %d of %d leaves shared", n, len(s.leaves))
	}
	del, ins := next.Diff(s, nil, nil)
	if !sameSlots(del, List{gone, moved}) || !sameSlots(ins, List{repl}) {
		t.Errorf("Diff = %v, %v; want [%v %v], [%v]", del, ins, gone, moved, repl)
	}
}

// grid builds n slots, several per start time, in Before order.
func grid(n int) List {
	l := make(List, n)
	for i := range l {
		l[i] = &Slot{Node: node(i % 5), Interval: Interval{float64(i / 5), float64(i/5) + 3}}
	}
	return l
}

func TestSeqOfChunksWithoutCopying(t *testing.T) {
	l := grid(1000)
	s, err := SeqOf(l)
	if err != nil {
		t.Fatal(err)
	}
	checkSeq(t, s)
	if want := (len(l) + leafSize - 1) / leafSize; len(s.leaves) != want {
		t.Errorf("%d leaves for %d slots, want %d", len(s.leaves), len(l), want)
	}
	if &s.leaves[0].slots[0] != &l[0] {
		t.Error("leaves should alias the list they were cut from")
	}
	if flat := s.Flatten(); !sameSlots(flat, l) || &flat[0] != &l[0] {
		t.Error("an unedited sequence should flatten to the list it was cut from, uncopied")
	}
	if got, want := s.TotalSpan(), l.TotalSpan(); got != want {
		t.Errorf("TotalSpan = %v, list says %v", got, want)
	}
	if empty, err := SeqOf(nil); err != nil || empty.Len() != 0 || len(empty.Flatten()) != 0 {
		t.Errorf("SeqOf(nil) = %v, %v", empty, err)
	}
}

func TestSeqRejectsDisorderAtBuildTime(t *testing.T) {
	l := grid(20)
	l[7], l[8] = l[8], l[7]
	if _, err := SeqOfLeaf(l, 4); err == nil {
		t.Error("SeqOf accepted a mis-ordered list")
	}
	dup := grid(20)
	dup[8] = dup[7]
	if _, err := SeqOfLeaf(dup, 4); err == nil {
		t.Error("SeqOf accepted a repeated slot")
	}

	s, err := SeqOfLeaf(grid(20), 4)
	if err != nil {
		t.Fatal(err)
	}
	before := s.Flatten()
	late := &Slot{Node: node(1), Interval: Interval{2.5, 9}}
	early := &Slot{Node: node(1), Interval: Interval{1.5, 9}}
	if _, err := s.Edit(nil, List{late, early}); err == nil {
		t.Error("Edit accepted mis-ordered insertions")
	}
	if _, err := s.Edit(nil, List{before[3]}); err == nil {
		t.Error("Edit accepted a slot the sequence already holds")
	}
	if _, err := s.Edit(List{late}, nil); err == nil {
		t.Error("Edit deleted a slot the sequence does not hold")
	}
	twin := *before[3] // equal key, different pointer: deletion is by identity
	if _, err := s.Edit(List{&twin}, nil); err == nil {
		t.Error("Edit deleted by key, not by identity")
	}
	if !sameSlots(s.Flatten(), before) {
		t.Error("a refused Edit changed the sequence")
	}
}

func TestSeqEditSharesUntouchedLeaves(t *testing.T) {
	s, err := SeqOf(grid(10 * leafSize))
	if err != nil {
		t.Fatal(err)
	}
	all := s.Flatten()
	gone := all[3*leafSize+5]
	next, err := s.Edit(List{gone}, List{{Node: node(9), Interval: gone.Interval}})
	if err != nil {
		t.Fatal(err)
	}
	checkSeq(t, next)
	shared := 0
	for i := range next.leaves {
		if next.leaves[i] == s.leaves[i] {
			shared++
		}
	}
	if shared != len(s.leaves)-1 {
		t.Errorf("an edit inside one leaf left %d of %d leaves shared", shared, len(s.leaves))
	}
	if !sameSlots(s.Flatten(), all) {
		t.Error("the edited version's parent changed")
	}
	if a, b := next.Flatten(), next.Flatten(); &a[0] == &b[0] || &a[0] == &all[0] {
		t.Error("an edited sequence flattens to a fresh copy")
	}
}

func TestCursorWalksLeavesAndLists(t *testing.T) {
	l := grid(50)
	s, err := SeqOfLeaf(l, 7)
	if err != nil {
		t.Fatal(err)
	}
	for name, cur := range map[string]Cursor{"seq": s.Cursor(), "list": l.Cursor()} {
		if !cur.Ordered() {
			t.Errorf("%s: not ordered", name)
		}
		if !sameSlots(cur.List(), l) {
			t.Errorf("%s: List() differs", name)
		}
		var got List
		for leaf := cur.Next(); leaf != nil; leaf = cur.Next() {
			if len(leaf) == 0 {
				t.Fatalf("%s: empty leaf", name)
			}
			got = append(got, leaf...)
		}
		if !sameSlots(got, l) {
			t.Errorf("%s: walk differs from the list", name)
		}
	}
	if (List{l[30], l[0]}).Cursor().Ordered() {
		t.Error("a wrapped unsorted list reports ordered")
	}
	var zero Cursor
	if zero.Next() != nil || !zero.Ordered() || zero.List() != nil {
		t.Error("the zero Cursor is not empty")
	}
	if n := testing.AllocsPerRun(100, func() {
		c := l.Cursor()
		for leaf := c.Next(); leaf != nil; leaf = c.Next() {
		}
	}); n != 0 {
		t.Errorf("wrapping and walking a list allocates %v times", n)
	}
}
