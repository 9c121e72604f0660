package batchsched

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"slotsel/internal/core"
	"slotsel/internal/csa"
	"slotsel/internal/generic"
	"slotsel/internal/job"
	"slotsel/internal/obs"
	"slotsel/internal/randx"
	"slotsel/internal/slots"
	"slotsel/internal/testkit"
)

// minSlotLengths are the remainder-suppression settings every differential
// below runs at: off in practice (1), the environment default (10), and one
// (40) above the length of many base spans of the generated lists (slot
// lengths are uniform in [1, horizon/2]) — a cut must suppress short
// remainders only, never an untouched short slot, and the two cutting
// implementations have diverged exactly there before.
var minSlotLengths = []float64{1, 10, 40}

// referenceAlternatives is stage 1 written out the slow way, the semantics
// FindAlternatives must reproduce by value: a clone of the list, one
// csa.Search per job in priority order, and a persistent slots.Cut of the
// clone per alternative found.
func referenceAlternatives(list slots.List, batch *job.Batch, opts csa.Options, col obs.Collector) ([]JobAlternatives, error) {
	work := list.Clone()
	out := []JobAlternatives{}
	for _, j := range batch.ByPriority() {
		alts, err := csa.Search(work, &j.Request, opts, col)
		if err != nil && !errors.Is(err, core.ErrNoWindow) {
			return nil, fmt.Errorf("batchsched: job %v: %w", j, err)
		}
		for _, w := range alts {
			work = slots.Cut(work, w.UsedIntervals(), opts.MinSlotLength)
		}
		out = append(out, JobAlternatives{Job: j, Alts: alts})
	}
	return out, nil
}

// referenceDirected is ScheduleDirected written out the same way: a clone,
// one caller-owned find per job, slots.Cut per accepted window.
func referenceDirected(list slots.List, batch *job.Batch, voBudget float64, alg core.Algorithm, minSlotLength float64) (*Plan, error) {
	work := list.Clone()
	plan := &Plan{}
	remaining := voBudget
	for _, j := range batch.ByPriority() {
		req := j.Request
		if voBudget > 0 && (req.MaxCost <= 0 || req.MaxCost > remaining) {
			req.MaxCost = remaining
		}
		a := Assignment{Job: j}
		w, err := core.FindObserved(alg, work.Cursor(), &req, nil)
		if err != nil && !errors.Is(err, core.ErrNoWindow) {
			return nil, fmt.Errorf("batchsched: directed pipeline, job %v: %w", j, err)
		}
		if err == nil && (voBudget <= 0 || w.Cost <= remaining) {
			a.Chosen = w
			plan.TotalCost += w.Cost
			plan.Scheduled++
			remaining -= w.Cost
			work = slots.Cut(work, w.UsedIntervals(), minSlotLength)
		}
		plan.Assignments = append(plan.Assignments, a)
	}
	return plan, nil
}

// sameAlternatives compares two stage-1 outputs job by job and field by
// field (testkit.WindowSignature is exact), in order.
func sameAlternatives(t *testing.T, label string, got, want []JobAlternatives) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d jobs, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Job != want[i].Job {
			t.Errorf("%s: job order diverged at %d: %v vs %v", label, i, got[i].Job, want[i].Job)
		}
		if len(got[i].Alts) != len(want[i].Alts) {
			t.Errorf("%s job=%v: %d alternatives, want %d", label, want[i].Job, len(got[i].Alts), len(want[i].Alts))
			continue
		}
		for k := range want[i].Alts {
			gs, ws := testkit.WindowSignature(got[i].Alts[k]), testkit.WindowSignature(want[i].Alts[k])
			if gs != ws {
				t.Errorf("%s job=%v alt=%d: diverged\n got: %s\nwant: %s", label, want[i].Job, k, gs, ws)
			}
		}
	}
}

// listValues renders every slot of the list by value.
func listValues(l slots.List) string {
	var b strings.Builder
	for _, s := range l {
		fmt.Fprintf(&b, "%d:%x..%x ", s.Node.ID, s.Start, s.End)
	}
	return b.String()
}

func samePlan(t *testing.T, label string, got, want *Plan) {
	t.Helper()
	if got.TotalCost != want.TotalCost || got.TotalValue != want.TotalValue || got.Scheduled != want.Scheduled {
		t.Fatalf("%s: plan diverged: cost %v/%v value %v/%v scheduled %d/%d",
			label, got.TotalCost, want.TotalCost, got.TotalValue, want.TotalValue, got.Scheduled, want.Scheduled)
	}
	if len(got.Assignments) != len(want.Assignments) {
		t.Fatalf("%s: %d assignments, want %d", label, len(got.Assignments), len(want.Assignments))
	}
	for i := range want.Assignments {
		if got.Assignments[i].Job != want.Assignments[i].Job {
			t.Errorf("%s: assignment %d is job %v, want %v", label, i, got.Assignments[i].Job, want.Assignments[i].Job)
		}
		gs := testkit.WindowSignature(got.Assignments[i].Chosen)
		ws := testkit.WindowSignature(want.Assignments[i].Chosen)
		if gs != ws {
			t.Errorf("%s job=%v: chosen window diverged\n got: %s\nwant: %s", label, want.Assignments[i].Job, gs, ws)
		}
	}
}

// TestFindAlternativesMatchesReference is the stage-1 differential: for
// every seed and minimum slot length, the one-working-copy loop must return
// exactly the reference loop's alternatives — same jobs, same alternatives
// in the same order, every field — and the alternatives of all jobs together
// must be pairwise disjoint, which is what the cutting is for.
func TestFindAlternativesMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 120; seed++ {
		for _, minLen := range minSlotLengths {
			rng := randx.New(seed)
			list := testkit.HeteroList(rng, rng.IntRange(4, 12), 4, 300)
			batch := testkit.RandomBatch(rng, rng.IntRange(2, 8))
			opts := csa.Options{MaxAlternatives: rng.Intn(4), MinSlotLength: minLen} // 0 = unbounded
			label := fmt.Sprintf("seed=%d min=%g", seed, minLen)
			before := listValues(list)

			want, err := referenceAlternatives(list, batch, opts, nil)
			if err != nil {
				t.Fatalf("%s: reference: %v", label, err)
			}
			got, err := FindAlternatives(list, batch, Options{CSA: opts})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sameAlternatives(t, label, got, want)

			var all []*core.Window
			for _, ja := range got {
				all = append(all, ja.Alts...)
			}
			if !csa.Disjoint(all) {
				t.Errorf("%s: alternatives are not pairwise disjoint across jobs", label)
			}
			if listValues(list) != before {
				t.Fatalf("%s: FindAlternatives modified its input list", label)
			}
		}
	}
}

// TestFindAlternativesBatchCounters pins what stage 1 reports: one BatchDone
// per call carrying the batch's job, alternative and cut counts, the very
// scans the reference loop performs (same slots examined, same visits), and
// the same alternatives as without a collector.
func TestFindAlternativesBatchCounters(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		rng := randx.New(seed)
		list := testkit.HeteroList(rng, rng.IntRange(4, 12), 4, 300)
		batch := testkit.RandomBatch(rng, rng.IntRange(2, 8))
		opts := csa.Options{MaxAlternatives: rng.Intn(4), MinSlotLength: minSlotLengths[seed%3]}
		label := fmt.Sprintf("seed=%d", seed)

		var refStats, stats obs.Stats
		want, err := referenceAlternatives(list, batch, opts, &refStats)
		if err != nil {
			t.Fatalf("%s: reference: %v", label, err)
		}
		got, err := FindAlternatives(list, batch, Options{CSA: opts, Collector: &stats})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		sameAlternatives(t, label, got, want)

		found := 0
		for _, ja := range want {
			found += len(ja.Alts)
		}
		b := stats.Snapshot().Batch
		b.Elapsed = 0
		if wantB := (obs.BatchAgg{Batches: 1, Jobs: len(want), AltsFound: found, CutOps: found}); b != wantB {
			t.Errorf("%s: batch counters %+v, want %+v", label, b, wantB)
		}
		if g, w := stats.Snapshot().Scan, refStats.Snapshot().Scan; g != w {
			t.Errorf("%s: scan counters diverged\n got: %+v\nwant: %+v", label, g, w)
		}
	}
}

// TestFindAlternativesEmptyAndSingle pins the degenerate shapes: no jobs,
// one job, and an empty slot list.
func TestFindAlternativesEmptyAndSingle(t *testing.T) {
	rng := randx.New(7)
	list := testkit.RandomList(rng, 4, 3, 100)
	opts := csa.Options{MaxAlternatives: 2, MinSlotLength: 1}

	var stats obs.Stats
	got, err := FindAlternatives(list, &job.Batch{}, Options{CSA: opts, Collector: &stats})
	if err != nil || len(got) != 0 {
		t.Fatalf("no jobs: got %v, %v", got, err)
	}
	if b := stats.Snapshot().Batch; b.Batches != 1 || b.Jobs != 0 || b.AltsFound != 0 {
		t.Errorf("no jobs: batch counters %+v", b)
	}

	single := testkit.RandomBatch(rng, 1)
	want, err := referenceAlternatives(list, single, opts, nil)
	if err != nil {
		t.Fatalf("single job: reference: %v", err)
	}
	got, err = FindAlternatives(list, single, Options{CSA: opts})
	if err != nil {
		t.Fatalf("single job: %v", err)
	}
	sameAlternatives(t, "single job", got, want)

	got, err = FindAlternatives(slots.List{}, single, Options{CSA: opts})
	if err != nil {
		t.Fatalf("empty list: %v", err)
	}
	if len(got) != 1 || got[0].Job != single.Jobs[0] || got[0].Alts != nil {
		t.Fatalf("empty list: got %v, want the job with a nil alternative set", got)
	}
}

// csaSpans counts the csa.Search spans a run emits: one per job whose
// search ran to completion.
type csaSpans struct {
	obs.Nop
	n, batches int
}

func (c *csaSpans) Span(s obs.Span) {
	if s.Cat == "csa" {
		c.n++
	}
}
func (c *csaSpans) BatchDone(obs.BatchStats) { c.batches++ }

// TestFindAlternativesInvalidJobReported: an invalid request in the k-th job
// of the priority order fails the batch with that job's error — the
// reference loop's very message — after the k jobs before it were searched,
// and without a BatchDone.
func TestFindAlternativesInvalidJobReported(t *testing.T) {
	rng := randx.New(3)
	list := testkit.HeteroList(rng, 8, 4, 300)
	opts := csa.Options{MaxAlternatives: 2, MinSlotLength: 10}
	const k = 2
	batch := &job.Batch{}
	for i := 0; i < 5; i++ {
		req := job.Request{TaskCount: 1, Volume: 40, MaxCost: 2000}
		if i == k {
			req.TaskCount = 0
		}
		if i == k+1 {
			req.Volume = -1 // a later invalid job must not be the one reported
		}
		batch.Add(&job.Job{ID: i + 1, Priority: 10 - i, Request: req})
	}
	bad := batch.ByPriority()[k]

	_, wantErr := referenceAlternatives(list, batch, opts, nil)
	if wantErr == nil {
		t.Fatal("reference accepted the invalid job")
	}
	col := &csaSpans{}
	got, err := FindAlternatives(list, batch, Options{CSA: opts, Collector: col})
	if err == nil || got != nil {
		t.Fatalf("invalid job accepted: %v, %v", got, err)
	}
	if err.Error() != wantErr.Error() {
		t.Errorf("error = %q, want the reference's %q", err, wantErr)
	}
	if want := fmt.Sprintf("batchsched: job %v: %v", bad, bad.Request.Validate()); err.Error() != want {
		t.Errorf("error = %q, want %q", err, want)
	}
	if col.n != k || col.batches != 0 {
		t.Errorf("%d jobs searched and %d BatchDone before the error, want %d and 0", col.n, col.batches, k)
	}
}

// TestBatchesDoNotLeakThroughThePool: stage 1 and the directed pipeline
// borrow pooled scanners and leave their cut-up working copies in them. A
// batch run after other batches — and after scanners dirtied through every
// public entry were released into the pool — must still match the
// reference. (Reset against arbitrary poison is core's
// TestScannerWorkDirtyReset.)
func TestBatchesDoNotLeakThroughThePool(t *testing.T) {
	junkRng := randx.New(99)
	for seed := uint64(1); seed <= 30; seed++ {
		// Dirty a few scanners and hand them all back, so the calls below
		// very likely draw one.
		var held []*core.Scanner
		for i := 0; i < 4; i++ {
			sc := core.AcquireScanner()
			sc.LoadWork(testkit.RandomList(junkRng, 12, 4, 500).Cursor())
			r := job.Request{TaskCount: 2, Volume: 50}
			_, _ = sc.WorkAlternatives(&r, 0, 0, nil)
			_, _ = sc.Find(core.MinProcTime{Seed: seed}, sc.WorkCursor(), &r, nil)
			held = append(held, sc)
		}
		for _, sc := range held {
			core.ReleaseScanner(sc)
		}

		rng := randx.New(seed)
		opts := csa.Options{MaxAlternatives: 3, MinSlotLength: minSlotLengths[seed%3]}
		for round := 0; round < 2; round++ { // the second batch follows the first's leftovers
			list := testkit.HeteroList(rng, rng.IntRange(4, 12), 4, 300)
			batch := testkit.RandomBatch(rng, rng.IntRange(2, 6))
			label := fmt.Sprintf("seed=%d round=%d", seed, round)

			want, err := referenceAlternatives(list, batch, opts, nil)
			if err != nil {
				t.Fatalf("%s: reference: %v", label, err)
			}
			got, err := FindAlternatives(list, batch, Options{CSA: opts})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sameAlternatives(t, label, got, want)

			wantPlan, err := referenceDirected(list, batch, 1500, core.MinCost{}, opts.MinSlotLength)
			if err != nil {
				t.Fatalf("%s: directed reference: %v", label, err)
			}
			gotPlan, err := ScheduleDirected(list, batch, 1500, core.MinCost{}, opts.MinSlotLength, nil)
			if err != nil {
				t.Fatalf("%s: directed: %v", label, err)
			}
			samePlan(t, label+" directed", gotPlan, wantPlan)
		}
	}
}

// TestScheduleMatchesReference checks the end-to-end plan: both stages must
// produce the plan the combination selection makes of the reference loop's
// alternatives, including costs, values and the chosen windows.
func TestScheduleMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := randx.New(seed)
		list := testkit.HeteroList(rng, 8, 4, 300)
		batch := testkit.RandomBatch(rng, 5)
		opts := csa.Options{MaxAlternatives: 3, MinSlotLength: minSlotLengths[seed%3]}
		sel := SelectConfig{Budget: 1500, Criterion: csa.ByFinish}

		alts, err := referenceAlternatives(list, batch, opts, nil)
		if err != nil {
			t.Fatalf("seed=%d: reference: %v", seed, err)
		}
		want, err := SelectCombination(alts, sel)
		if err != nil {
			t.Fatalf("seed=%d: SelectCombination: %v", seed, err)
		}
		got, err := Schedule(list, batch, opts, sel)
		if err != nil {
			t.Fatalf("seed=%d: Schedule: %v", seed, err)
		}
		samePlan(t, fmt.Sprintf("seed=%d", seed), got, want)
	}
}

// TestScheduleDirectedMatchesReference is the directed pipeline's
// differential: searching and cutting the scanner's working copy must give
// the plan of the clone + slots.Cut loop, window for window, for the two
// algorithms the pipelines ship with and for one the scanner does not know
// (the generic minimum-total-cost search, which takes the fallback path and
// is handed the working copy itself), with and without a VO budget.
func TestScheduleDirectedMatchesReference(t *testing.T) {
	foreign := generic.Extreme{Weight: generic.WeightCost}
	for seed := uint64(1); seed <= 60; seed++ {
		rng := randx.New(seed)
		list := testkit.HeteroList(rng, rng.IntRange(4, 12), 4, 300)
		batch := testkit.RandomBatch(rng, rng.IntRange(2, 8))
		budget := float64(rng.Intn(3)) * 800 // 0 = unconstrained
		for _, minLen := range minSlotLengths {
			for _, alg := range []core.Algorithm{core.AMP{}, core.MinCost{}, foreign} {
				label := fmt.Sprintf("seed=%d min=%g budget=%g alg=%T", seed, minLen, budget, alg)
				want, err := referenceDirected(list, batch, budget, alg, minLen)
				if err != nil {
					t.Fatalf("%s: reference: %v", label, err)
				}
				got, err := ScheduleDirected(list, batch, budget, alg, minLen, nil)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				samePlan(t, label, got, want)
			}
		}
	}
}
