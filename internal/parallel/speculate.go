package parallel

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"slotsel/internal/core"
	"slotsel/internal/csa"
	"slotsel/internal/job"
	"slotsel/internal/nodes"
	"slotsel/internal/obs"
	"slotsel/internal/slots"
)

// JobError attributes a stage-1 search failure to the job whose CSA search
// produced it, so callers can reproduce the sequential error message: the
// reported job is always the FIRST failing job in priority order, no
// matter which speculation failed first in wall-clock time.
type JobError struct {
	Job *job.Job
	Err error
}

// Error implements error.
func (e *JobError) Error() string { return fmt.Sprintf("job %v: %v", e.Job, e.Err) }

// Unwrap exposes the underlying search error to errors.Is/As.
func (e *JobError) Unwrap() error { return e.Err }

// Alternatives runs the stage-1 CSA alternative search for the given jobs
// (already in priority order) over a shared slot list, cutting every found
// alternative so all alternatives of all jobs are pairwise disjoint by
// slots — the exact semantics of the sequential loop
//
//	work := list.Clone()
//	for i, j := range ordered {
//	        out[i], _ = csa.Search(work, &j.Request, opts, nil)
//	        for _, w := range out[i] { work = slots.Cut(work, w.UsedIntervals(), opts.MinSlotLength) }
//	}
//
// parallelized by speculation with a deterministic commit order (see
// alternativesSpec). Jobs for which no window exists get a nil alternative
// slice. For any worker count the output is identical, by value, to the
// sequential path; workers <= 1 runs the sequential loop itself.
//
// On success it publishes one obs.BatchStats to col (nil = off) describing
// both the committed output (Jobs, AltsFound, CutOps —
// worker-count-invariant by the determinism guarantee) and the speculative
// work spent producing it (SpecRuns, SpecCommitted, SpecDiscarded,
// Relaunches, TasksCut, per-worker busy time — wall-clock work accounting
// that may vary run to run when workers > 1). Worker task executions and
// master commits are additionally recorded as "spec"/"commit" spans.
// Scan-level counters emitted through col describe the work actually
// performed, speculative re-runs included, so they are NOT
// worker-count-invariant on this path; the committed quantities in
// BatchStats are.
func Alternatives(list slots.List, ordered []*job.Job, opts csa.Options, workers int, col obs.Collector) ([][]*core.Window, error) {
	if workers = Workers(workers); workers <= 1 || len(ordered) <= 1 {
		return alternativesSeq(list, ordered, opts, col)
	}
	return alternativesSpec(list, ordered, opts, workers, col)
}

// alternativesSeq is the reference sequential implementation; the
// speculative engine must match it bit for bit.
func alternativesSeq(list slots.List, ordered []*job.Job, opts csa.Options, col obs.Collector) ([][]*core.Window, error) {
	var begin time.Duration
	if col != nil {
		begin = obs.Now()
	}
	var st obs.BatchStats
	work := list.Clone()
	out := make([][]*core.Window, len(ordered))
	// One scanner for the whole sequential pass: every per-job CSA search
	// reuses the same recycled working copy.
	sc := core.AcquireScanner()
	defer core.ReleaseScanner(sc)
	for i, j := range ordered {
		alts, err := sc.Alternatives(work, &j.Request, opts.MaxAlternatives, opts.MinSlotLength, col)
		if err != nil && !errors.Is(err, core.ErrNoWindow) {
			return nil, &JobError{Job: j, Err: err}
		}
		out[i] = alts
		st.AltsFound += len(alts)
		for _, w := range alts {
			work = slots.Cut(work, w.UsedIntervals(), opts.MinSlotLength)
			st.CutOps++
		}
	}
	if col != nil {
		elapsed := obs.Now() - begin
		st.Jobs = len(ordered)
		st.Workers = 1
		st.SpecRuns = len(ordered)      // one authoritative search per job
		st.SpecCommitted = len(ordered) // nothing speculative to discard
		st.WorkerBusy = []time.Duration{elapsed}
		st.Elapsed = elapsed
		col.BatchDone(st)
	}
	return out, nil
}

// specTask asks a worker to search job jobIdx's alternatives on snapshot,
// a slot list that reflects the cuts of the first gen committed jobs.
type specTask struct {
	jobIdx   int
	gen      int
	snapshot slots.List
}

// specResult is a completed speculation for one job.
type specResult struct {
	gen  int
	alts []*core.Window
	err  error
}

// alternativesSpec is the speculative parallel engine. Shape:
//
//   - A master goroutine owns the authoritative work list and commits jobs
//     strictly in input (priority) order; generation g means "the cuts of
//     jobs 0..g-1 are applied".
//   - Workers execute csa.Search speculatively: initially every job is
//     searched against the generation-0 snapshot; whenever a commit cuts a
//     node that a pending job's request matches, that job is relaunched
//     against the newest snapshot.
//   - At commit time the master takes the job's most recent speculation and
//     validates it: a result computed at generation g is accepted at
//     generation j iff no job committed in [g, j) cut a slot on a node the
//     request matches. Otherwise the master recomputes inline on the
//     authoritative list (a belt-and-braces path; the relaunch rule above
//     already guarantees the newest speculation is valid).
//
// DETERMINISM PROOF. The sequential result for job j is F(L_j) where
// F = csa.Search with the job's request and L_j is the authoritative list
// after the cuts of jobs 0..j-1, and where every operation (search, cut,
// sort) is deterministic. The engine returns either F(L_j) computed inline
// (trivially identical) or a speculation F(L_g), g <= j, accepted under
// the validation rule. Acceptance soundness rests on two facts:
//
//  1. F depends only on the sublist of slots whose node matches the
//     request: core.Scan skips non-matching slots before they contribute a
//     candidate or a scan position, and the cuts csa.Search applies
//     internally derive from windows placed on matching nodes only.
//     Ordering of the matching sublist is preserved because SortByStart's
//     comparator (start, node ID, end) is a total order on valid lists
//     (per-node slots cannot share a start), so equal slot multisets sort
//     identically regardless of surrounding slots.
//  2. If every cut committed in [g, j) lies on nodes the request does NOT
//     match, then L_g and L_j contain the very same matching slots: cuts
//     replace slots of non-matching nodes by shorter remainders on those
//     same nodes and never touch a matching slot.
//
// Together: validation passing implies the matching sublists of L_g and
// L_j are equal, hence F(L_g) = F(L_j) by value. The committed cuts are
// then applied to the authoritative list in the same job order and the
// same within-job discovery order as the sequential loop, so L_{j+1} is
// value-identical to its sequential counterpart by induction. Window
// placements reference slots of different clones across the two paths but
// are equal in every field value, which is what "identical results" means
// for windows everywhere in this library (and what the differential suite
// compares).
//
// LIVENESS. Every pushed task sends exactly one result on its job's
// channel; channels are buffered to the worst-case task count per job
// (1 initial + at most one relaunch per earlier commit), so workers never
// block on delivery and the master's receive always terminates. Stale
// results (an older generation than the job's newest speculation) are
// discarded on receipt; the queue also drops superseded and
// already-committed tasks at pop time to keep workers off dead work.
func alternativesSpec(list slots.List, ordered []*job.Job, opts csa.Options, workers int, col obs.Collector) ([][]*core.Window, error) {
	k := len(ordered)
	if workers > k {
		workers = k
	}
	var begin time.Duration
	if col != nil {
		begin = obs.Now()
	}

	results := make([]chan specResult, k)
	for j := range results {
		results[j] = make(chan specResult, k)
	}

	q := newSpecQueue(k)
	// Searches run on a caller-provided scanner so each worker goroutine
	// (and the master's inline path) reuses its own recycled state; scanners
	// are never shared across goroutines. CSA copies the snapshot's slot
	// values into the scanner before cutting, so the shared immutable
	// snapshots are never mutated.
	search := func(sc *core.Scanner, snapshot slots.List, j int) ([]*core.Window, error) {
		alts, err := sc.Alternatives(snapshot, &ordered[j].Request, opts.MaxAlternatives, opts.MinSlotLength, col)
		if errors.Is(err, core.ErrNoWindow) {
			return nil, nil // no window is a valid empty alternative set
		}
		return alts, err
	}

	// Per-worker work accounting, indexed by worker id. Each slot is written
	// only by its own goroutine and read by the master after wg.Wait, so no
	// further synchronization is needed.
	busy := make([]time.Duration, workers)
	runs := make([]int, workers)

	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			sc := core.AcquireScanner()
			defer core.ReleaseScanner(sc)
			for {
				tk, ok := q.pop()
				if !ok {
					return
				}
				var t0 time.Duration
				if col != nil {
					t0 = obs.Now()
				}
				alts, err := search(sc, tk.snapshot, tk.jobIdx)
				runs[wk]++
				if col != nil {
					d := obs.Now() - t0
					busy[wk] += d
					col.Span(obs.Span{
						Name:  fmt.Sprintf("speculate job %d", tk.jobIdx),
						Cat:   "spec",
						Tid:   wk + 1,
						Start: t0,
						Dur:   d,
						Arg:   fmt.Sprintf("gen=%d", tk.gen),
					})
				}
				results[tk.jobIdx] <- specResult{gen: tk.gen, alts: alts, err: err}
			}
		}(wk)
	}
	var shutdownOnce sync.Once
	shutdown := func() {
		shutdownOnce.Do(func() {
			q.close()
			wg.Wait()
		})
	}
	defer shutdown() // error paths; the success path shuts down explicitly

	work := list.Clone()
	cutNodes := make([][]*nodes.Node, 0, k) // per committed job: distinct nodes its cuts touched
	out := make([][]*core.Window, k)
	var st obs.BatchStats

	for j := 0; j < k; j++ {
		q.push(specTask{jobIdx: j, gen: 0, snapshot: work})
	}

	for j := 0; j < k; j++ {
		res := <-results[j]
		for res.gen < q.newestGen(j) {
			res = <-results[j] // discard speculations superseded by a relaunch
		}
		if !specValid(res.gen, &ordered[j].Request, cutNodes) {
			// Authoritative inline recomputation on the current list. The
			// relaunch rule makes this unreachable, but correctness must
			// not depend on that optimization.
			msc := core.AcquireScanner()
			alts, err := search(msc, work, j)
			core.ReleaseScanner(msc)
			st.InlineRecomputes++
			res = specResult{gen: len(cutNodes), alts: alts, err: err}
		}
		if res.err != nil {
			return nil, &JobError{Job: ordered[j], Err: res.err}
		}
		out[j] = res.alts
		q.markCommitted(j + 1)

		var commitStart time.Duration
		if col != nil {
			commitStart = obs.Now()
		}

		// Commit: apply the cuts in discovery order (matching the
		// sequential loop exactly) and record the touched nodes.
		var cut []*nodes.Node
		seen := make(map[int]bool)
		for _, w := range res.alts {
			work = slots.Cut(work, w.UsedIntervals(), opts.MinSlotLength)
			st.CutOps++
			for _, p := range w.Placements {
				if n := p.Node(); !seen[n.ID] {
					seen[n.ID] = true
					cut = append(cut, n)
				}
			}
		}
		cutNodes = append(cutNodes, cut)
		st.AltsFound += len(res.alts)

		// Relaunch every pending job whose newest speculation these cuts
		// invalidate, against the new authoritative snapshot.
		if len(cut) > 0 {
			gen := len(cutNodes)
			for t := j + 1; t < k; t++ {
				if reqMatchesAny(&ordered[t].Request, cut) {
					q.relaunch(specTask{jobIdx: t, gen: gen, snapshot: work})
					st.Relaunches++
				}
			}
		}
		if col != nil {
			col.Span(obs.Span{
				Name:  fmt.Sprintf("commit job %d", j),
				Cat:   "commit",
				Start: commitStart,
				Dur:   obs.Now() - commitStart,
				Arg:   fmt.Sprintf("alts=%d", len(res.alts)),
			})
		}
	}

	// Shut the pool down before reading the per-worker accounting: the
	// slices are complete only once every worker has returned, and the
	// total-executed count must include speculations still in flight at the
	// last commit (their results are simply never received).
	shutdown()
	if col != nil {
		st.Jobs = k
		st.Workers = workers
		for _, r := range runs {
			st.SpecRuns += r
		}
		st.SpecCommitted = k - st.InlineRecomputes
		st.SpecDiscarded = st.SpecRuns - st.SpecCommitted
		st.TasksCut = q.droppedCount()
		st.WorkerBusy = busy
		st.Elapsed = obs.Now() - begin
		col.BatchDone(st)
	}
	return out, nil
}

// specValid reports whether a speculation computed at generation gen is
// exact at commit time: no later-committed job may have cut a node the
// request matches (see the proof on alternativesSpec).
func specValid(gen int, req *job.Request, cutNodes [][]*nodes.Node) bool {
	for g := gen; g < len(cutNodes); g++ {
		if reqMatchesAny(req, cutNodes[g]) {
			return false
		}
	}
	return true
}

func reqMatchesAny(req *job.Request, ns []*nodes.Node) bool {
	for _, n := range ns {
		if req.Matches(n) {
			return true
		}
	}
	return false
}

// specQueue is the engine's priority task queue. pop prefers the pending
// task with the smallest job index (the next commit blocks on it) and,
// within a job, the newest generation; superseded and already-committed
// tasks are dropped unexecuted.
type specQueue struct {
	mu        sync.Mutex
	cond      *sync.Cond
	tasks     []specTask
	closed    bool
	committed int
	newest    []int // newest pushed generation per job
	dropped   int   // tasks dropped unexecuted (superseded or committed)
}

func newSpecQueue(jobs int) *specQueue {
	q := &specQueue{newest: make([]int, jobs)}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *specQueue) push(t specTask) {
	q.mu.Lock()
	if t.gen > q.newest[t.jobIdx] {
		q.newest[t.jobIdx] = t.gen
	}
	q.tasks = append(q.tasks, t)
	q.mu.Unlock()
	q.cond.Signal()
}

// relaunch pushes a replacement speculation; identical to push but named
// for the call sites where a commit invalidated the previous one.
func (q *specQueue) relaunch(t specTask) { q.push(t) }

// newestGen returns the generation of the newest speculation requested for
// the job. Only the master calls it, after all relaunches for that job
// have been issued, so the value is final.
func (q *specQueue) newestGen(jobIdx int) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.newest[jobIdx]
}

// markCommitted lets pop drop tasks for jobs at index < n.
func (q *specQueue) markCommitted(n int) {
	q.mu.Lock()
	q.committed = n
	q.mu.Unlock()
}

func (q *specQueue) pop() (specTask, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		best := -1
		kept := q.tasks[:0]
		for _, t := range q.tasks {
			if t.jobIdx < q.committed || t.gen < q.newest[t.jobIdx] {
				q.dropped++
				continue // committed or superseded: drop unexecuted
			}
			kept = append(kept, t)
			i := len(kept) - 1
			if best < 0 || kept[i].jobIdx < kept[best].jobIdx ||
				(kept[i].jobIdx == kept[best].jobIdx && kept[i].gen > kept[best].gen) {
				best = i
			}
		}
		q.tasks = kept
		if best >= 0 {
			t := q.tasks[best]
			q.tasks[best] = q.tasks[len(q.tasks)-1]
			q.tasks = q.tasks[:len(q.tasks)-1]
			return t, true
		}
		if q.closed {
			return specTask{}, false
		}
		q.cond.Wait()
	}
}

// droppedCount returns how many queued tasks were dropped unexecuted.
// Note: tasks still queued when the pool shuts down are not counted —
// after the final commit markCommitted has made every remaining task
// droppable, and the drained workers pop (and count) them on their way
// out only if they get one more pop in before close.
func (q *specQueue) droppedCount() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.dropped
}

func (q *specQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}
