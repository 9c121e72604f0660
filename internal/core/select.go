package core

// The helpers below are what the incremental kernels (index.go) share. The
// per-visit copy+sort procedures they are held to, and the Oracle twins
// that run them, live in oracle_test.go.

// heapPush inserts c into the max-heap (on Cost).
func heapPush(h *[]Candidate, c Candidate) {
	*h = append(*h, c)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*h)[parent].Cost >= (*h)[i].Cost {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

// heapReplace replaces the max element with c and sifts down.
func heapReplace(h []Candidate, c Candidate) {
	h[0] = c
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < len(h) && h[l].Cost > h[largest].Cost {
			largest = l
		}
		if r < len(h) && h[r].Cost > h[largest].Cost {
			largest = r
		}
		if largest == i {
			return
		}
		h[i], h[largest] = h[largest], h[i]
		i = largest
	}
}

func maxExec(cs []Candidate) float64 {
	m := 0.0
	for _, c := range cs {
		if c.Exec > m {
			m = c.Exec
		}
	}
	return m
}

func sumCost(cs []Candidate) float64 {
	s := 0.0
	for _, c := range cs {
		s += c.Cost
	}
	return s
}
