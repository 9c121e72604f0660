package main

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// roundResult is what one round of operations measured.
type roundResult struct {
	ops    int
	failed int
	err    error // first failure

	wall       time.Duration
	cpu        time.Duration // getrusage(SELF) user+sys over the round
	allocBytes uint64        // MemStats.TotalAlloc over the round
	gcCycles   uint32        // MemStats.NumGC over the round

	sorted []time.Duration // operation latencies, ascending
}

func (r *roundResult) opsPerSecond() float64 { return float64(r.ops) / r.wall.Seconds() }

// percentile returns the q-quantile of the round's latencies (nearest
// rank on the sorted sample).
func (r *roundResult) percentile(q float64) time.Duration {
	n := len(r.sorted)
	return r.sorted[min(n-1, int(q*float64(n)))]
}

// selfUsage is getrusage(SELF); the zero value if the call fails, which
// the end-to-end test then reports as a cpu_ms_per_op of 0.
func selfUsage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func processCPU() time.Duration {
	ru := selfUsage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports KB).
func peakRSSMB() float64 { return float64(selfUsage().Maxrss) / 1024 }

// runRound executes operations [first, first+n) of the run on the given
// lanes, closed-loop: a lane draws its next operation only when the
// previous one has completed. lat is scratch for n latencies.
func runRound(in *inputs, lanes []*lane, first, n int, lat []time.Duration) roundResult {
	for _, l := range lanes {
		l.samples = l.samples[:0]
	}
	lat = lat[:n]
	failed := make([]int, len(lanes))
	errs := make([]error, len(lanes))

	runtime.GC() // fence: every round starts from a collected heap
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := processCPU()
	start := time.Now()

	var next atomic.Int64
	var wg sync.WaitGroup
	for li, l := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				i := first + k
				t0 := time.Now()
				err := l.do(i, in.op(i))
				lat[k] = time.Since(t0)
				if err != nil {
					failed[li]++
					if errs[li] == nil {
						errs[li] = err
					}
				}
			}
		}()
	}
	wg.Wait()

	res := roundResult{ops: n, wall: time.Since(start)}
	res.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&after)
	res.allocBytes = after.TotalAlloc - before.TotalAlloc
	res.gcCycles = after.NumGC - before.NumGC
	for li := range lanes {
		res.failed += failed[li]
		if res.err == nil {
			res.err = errs[li]
		}
	}
	res.sorted = slices.Clone(lat)
	slices.Sort(res.sorted)
	return res
}

// median returns the middle value (the mean of the middle two for an even
// count); it reorders v.
func median(v []float64) float64 {
	slices.Sort(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// overRounds reduces a per-round quantity to its value in the run's best
// round, with the worst beside it. Interference from outside the process
// only ever makes a round slower, never faster, and the work of a round is
// fixed, so the best round is what repeats from run to run; the median
// moves with how much of the run was disturbed (README.md has the numbers).
func overRounds(rs []roundResult, higherIsBetter bool, f func(*roundResult) float64) (best, worst float64) {
	lo, hi := f(&rs[0]), f(&rs[0])
	for i := range rs {
		lo, hi = min(lo, f(&rs[i])), max(hi, f(&rs[i]))
	}
	if higherIsBetter {
		return hi, lo
	}
	return lo, hi
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
