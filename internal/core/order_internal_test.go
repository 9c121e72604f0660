package core

import (
	"math"
	"sort"
	"testing"

	"slotsel/internal/nodes"
	"slotsel/internal/randx"
	"slotsel/internal/slots"
)

// TestOrderedSetAgainstSortedSlice drives one orderedSet through random
// insertions and removals at several block capacities and holds it, after
// every operation, to a plainly sorted slice of the same handles: same
// order (equals in insertion order), every block within its capacity and
// none empty, the directory within its bound, every block minimum the
// minimum of its weights, and nextBelow equal to a linear search from every
// position probed.
func TestOrderedSetAgainstSortedSlice(t *testing.T) {
	for _, bcap := range []int{2, 3, 4, 7, 32} {
		for _, execFirst := range []bool{false, true} {
			rng := randx.New(uint64(bcap)*2 + 1)
			prev := orderBlockCap
			orderBlockCap = bcap
			var s orderedSet
			s.reset(execFirst)
			orderBlockCap = prev
			weight := func(c Candidate) float64 { return c.Exec * float64(c.Slot.Node.ID%3) }
			s.setWeights(nil, weight)

			var arena []Candidate
			var want []int32 // handles in order
			nodeOf := make([]*nodes.Node, 6)
			for i := range nodeOf {
				nodeOf[i] = &nodes.Node{ID: i}
			}
			less := func(a, b Candidate) bool { return candLess(&a, &b, execFirst) }
			for op := 0; op < 3000; op++ {
				if len(want) == 0 || (rng.Intn(100) < 55 && len(want) < 200) {
					// Few distinct keys and nodes: plenty of equal candidates.
					c := Candidate{
						Slot: &slots.Slot{Node: nodeOf[rng.Intn(len(nodeOf))]},
						Exec: float64(rng.Intn(6)),
						Cost: float64(rng.Intn(6)),
					}
					h := int32(len(arena))
					arena = append(arena, c)
					s.insert(arena, h, filterWeight(weight(c)))
					at := sort.Search(len(want), func(i int) bool { return less(c, arena[want[i]]) })
					want = append(want, 0)
					copy(want[at+1:], want[at:])
					want[at] = h
				} else {
					at := rng.Intn(len(want))
					s.remove(arena, want[at])
					want = append(want[:at], want[at+1:]...)
				}

				var got []int32
				for b, blk := range s.dir {
					if blk.n < 1 || int(blk.n) > bcap {
						t.Fatalf("cap=%d op=%d: block %d holds %d handles", bcap, op, b, blk.n)
					}
					m := math.Inf(1)
					for i := blk.off; i < blk.off+blk.n; i++ {
						got = append(got, s.h[i])
						if fw := filterWeight(weight(arena[s.h[i]])); fw != s.w[i] {
							t.Fatalf("cap=%d op=%d: weight beside handle %d is %g, want %g", bcap, op, s.h[i], s.w[i], fw)
						}
						m = math.Min(m, s.w[i])
					}
					if blk.minW != m {
						t.Fatalf("cap=%d op=%d: block %d minimum %g, its weights' %g", bcap, op, b, blk.minW, m)
					}
				}
				if len(got) != len(want) {
					t.Fatalf("cap=%d op=%d: %d handles in the set, %d expected", bcap, op, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("cap=%d op=%d: position %d holds handle %d, sorted slice %d", bcap, op, i, got[i], want[i])
					}
				}
				if bound := 4*len(want)/bcap + 1; bcap > 2 && len(s.dir) > bound {
					t.Fatalf("cap=%d op=%d: %d blocks for %d handles, bound %d", bcap, op, len(s.dir), len(want), bound)
				}

				// nextBelow from a random position and threshold.
				if len(s.dir) > 0 {
					b := rng.Intn(len(s.dir))
					j := rng.Intn(int(s.dir[b].n) + 1)
					thr := float64(rng.Intn(12)) - 1
					flat := j
					for _, blk := range s.dir[:b] {
						flat += int(blk.n)
					}
					wantAt := -1
					for i := flat; i < len(want); i++ {
						if filterWeight(weight(arena[want[i]])) < thr {
							wantAt = i
							break
						}
					}
					nb, nj, ok := s.nextBelow(b, j, thr)
					if ok != (wantAt >= 0) {
						t.Fatalf("cap=%d op=%d: nextBelow(%d,%d,%g) ok=%v, linear search found %d", bcap, op, b, j, thr, ok, wantAt)
					}
					if ok && s.handle(nb, nj) != want[wantAt] {
						t.Fatalf("cap=%d op=%d: nextBelow(%d,%d,%g) = handle %d, linear search %d", bcap, op, b, j, thr, s.handle(nb, nj), want[wantAt])
					}
				}
			}
		}
	}
}
