// Package slotlab is the scenario-driven conformance and soak harness for
// the slot-inventory service. Each scenario boots a live slotserve stack
// (inventory + HTTP server on a loopback listener), drives it over real
// HTTP with a workload shaped like one production failure mode — flash
// crowds, hot-spot contention, node churn, deadline farms, starved
// budgets, diurnal load — and then holds the end state to the invariants
// that make the service trustworthy:
//
//   - zero double-booking across all committed reservations;
//   - journal-replay determinism: the live concurrent run, replayed
//     sequentially, reproduces the exact end state (the oracle);
//   - admission-control conformance under overload: clean 429s with valid
//     Retry-After, bounded goroutines, no undefined status codes;
//   - per-scenario latency/throughput SLOs.
//
// Results are written as schema-versioned JSON reports (see Report) so CI
// can gate on them and successive PRs can diff behavior.
package slotlab

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"slotsel/internal/env"
	"slotsel/internal/inventory"
	"slotsel/internal/randx"
	"slotsel/internal/server"
	"slotsel/internal/telemetry"
)

// Config is the run-level configuration shared by every scenario in one
// slotlab invocation.
type Config struct {
	// Seed fixes every random stream in the run (environment generation,
	// per-worker workload draws, recorder reservoirs).
	Seed uint64

	// Duration is the traffic window per scenario.
	Duration time.Duration

	// Soak marks a long-run invocation (nightly tier). It only changes
	// the report envelope; the caller picks the longer Duration.
	Soak bool

	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
}

func (cfg Config) logf(format string, args ...any) {
	if cfg.Log != nil {
		cfg.Log(format, args...)
	}
}

// Run executes the given scenarios sequentially under cfg and returns the
// combined report. Scenario failures are reported, not returned as errors;
// an error means the harness itself could not run (boot failure, statusz
// unreachable).
func Run(cfg Config, scenarios []*Scenario) (*Report, error) {
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	rep := &Report{Pass: true}
	rep.stamp(cfg)
	for _, sc := range scenarios {
		cfg.logf("scenario %s: %s", sc.Name, sc.Description)
		sr, err := runScenario(cfg, sc)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		rep.Scenarios = append(rep.Scenarios, *sr)
		if !sr.Pass {
			rep.Pass = false
		}
		verdict := "PASS"
		if !sr.Pass {
			verdict = "FAIL"
		}
		cfg.logf("scenario %s: %s (%d ops)", sc.Name, verdict, totalOps(sr))
	}
	return rep, nil
}

func totalOps(sr *ScenarioReport) int {
	n := 0
	for _, os := range sr.Ops {
		n += os.Count
	}
	return n
}

// runScenario boots a fresh stack, runs the scenario's traffic window, and
// assembles its report entry.
func runScenario(cfg Config, sc *Scenario) (*ScenarioReport, error) {
	params := sc.params(cfg)
	seed := cfg.Seed ^ nameHash(sc.Name)

	// Environment: heterogeneous nodes with the paper's initial
	// non-dedicated load already cut out of the free lists.
	ecfg := env.DefaultConfig().WithNodeCount(params.Nodes).WithHorizon(params.Horizon)
	ecfg.MinSlotLength = params.MinSlotLength
	e := env.Generate(ecfg, randx.New(seed))

	inv, err := inventory.New(e.Slots, inventory.Options{
		MinSlotLength: params.MinSlotLength,
		DefaultTTL:    params.TTL,
		Record:        true, // the journal is the oracle's input
	})
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	srv := server.New(inv, server.Options{
		MaxInflight:    params.MaxInflight,
		QueueDepth:     params.QueueDepth,
		RequestTimeout: params.RequestTimeout,
		Metrics:        reg,
	})

	baseline := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		hs.Serve(ln)
	}()

	rec := NewRecorder(seed)
	client := NewClient("http://"+ln.Addr().String(), rec)
	client.stall = params.BodyStall

	// Telemetry scrapes bracket the traffic window in a FIXED order —
	// metricsz, then statusz — repeated identically afterwards. The scrapes
	// pass through the admission gate and so count themselves, but with the
	// same ordering on both sides every monotonic counter sees the same
	// between-samples traffic in both views, so the harness's own requests
	// cancel exactly out of every delta (the telemetry_agreement check
	// relies on this).
	mBefore, err := client.Metricsz()
	if err != nil {
		hs.Close()
		<-serveDone
		return nil, err
	}
	before, err := client.Statusz()
	if err != nil {
		hs.Close()
		<-serveDone
		return nil, err
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.Duration)
	defer cancel()
	lab := &Lab{
		Cfg: cfg, Params: params, Client: client, Inv: inv,
		ctx: ctx, start: time.Now(), dur: cfg.Duration,
	}

	// Goroutine watermark: sampled through the traffic window, checked
	// against the structural bound afterwards. Overload must shed, not
	// spawn.
	peak := baseline
	var peakMu sync.Mutex
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				n := runtime.NumGoroutine()
				peakMu.Lock()
				if n > peak {
					peak = n
				}
				peakMu.Unlock()
			}
		}
	}()

	// The background actor is awaited before the end-state reads: a churn
	// mutation landing between the after-scrapes would break the
	// fixed-order delta algebra above.
	bgDone := make(chan struct{})
	if params.Background != nil {
		go func() {
			defer close(bgDone)
			params.Background(lab, ctx.Done())
		}()
	} else {
		close(bgDone)
	}

	var wg sync.WaitGroup
	for i := 0; i < params.Workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := randx.New(seed ^ (uint64(id+1) * 0x9e3779b97f4a7c15))
			body := sc.worker(lab, rng, id)
			for op := 0; ctx.Err() == nil; op++ {
				body(op)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(lab.start)
	<-bgDone
	<-samplerDone

	// End-state reads happen with no mutators left: metricsz-after and
	// statusz-after (same order as before) over the still-live server,
	// then shutdown, then one final sweep so lapsed holds are journaled
	// before the oracle snapshots everything.
	mAfter, err := client.Metricsz()
	if err != nil {
		hs.Close()
		<-serveDone
		return nil, err
	}
	after, err := client.Statusz()
	if err != nil {
		hs.Close()
		<-serveDone
		return nil, err
	}
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 10*time.Second)
	err = hs.Shutdown(shutCtx)
	shutCancel()
	<-serveDone
	if err != nil {
		return nil, fmt.Errorf("server shutdown: %w", err)
	}
	inv.Sweep()

	peakMu.Lock()
	peakN := peak
	peakMu.Unlock()

	delta := newStatuszDelta(before, after)
	mDelta := newMetricszDelta(mBefore, mAfter)
	invariants := []CheckResult{
		checkNoDoubleBooking(inv.Committed()),
		checkReplay(inv, params.MinSlotLength),
		checkAdmission(rec),
		checkConformance(rec),
		checkDeadlines(rec),
		checkGoroutineBound(baseline, peakN, params.Workers, params.MaxInflight, params.QueueDepth),
		checkTelemetryAgreement(mBefore, mAfter, before, after),
	}
	if sc.verify != nil {
		invariants = append(invariants, sc.verify(lab, delta)...)
	}
	slos := params.SLO.Evaluate(rec, elapsed)

	sr := &ScenarioReport{
		Name:           sc.Name,
		Description:    sc.Description,
		Pass:           allPass(invariants) && allPass(slos),
		ElapsedSeconds: round2(elapsed.Seconds()),
		Invariants:     invariants,
		SLOs:           slos,
		Ops:            rec.opStats(),
		Statusz:        delta,
		Metricsz:       mDelta,
	}
	return sr, nil
}

// telemetryPairs maps statusz dotted keys to their /metricsz twins — the
// counters that are sampled from the very same atomics by both views.
// Expiries are deliberately absent: statusz sweeps before reporting and
// metricsz does not, so an expiry landing between the two after-reads
// would be a false alarm, not a bug.
var telemetryPairs = [][2]string{
	{"server.requests", "slotserve_requests_total"},
	{"server.completed", "slotserve_completed_total"},
	{"server.shed", "slotserve_shed_total"},
	{"server.deadline_expired", "slotserve_deadline_expired_total"},
	{"inventory.counters.reserves", "slotsel_inventory_reserves_total"},
	{"inventory.counters.conflicts", "slotsel_inventory_conflicts_total"},
	{"inventory.counters.no_window", "slotsel_inventory_no_window_total"},
	{"inventory.counters.commits", "slotsel_inventory_commits_total"},
	{"inventory.counters.releases", "slotsel_inventory_releases_total"},
}

// checkTelemetryAgreement is the conformance gate over the two telemetry
// surfaces: for every paired monotonic counter, the delta observed through
// /metricsz must equal the delta observed through /v1/statusz. With the
// fixed scrape order both views count the harness's own scrapes
// identically, so any disagreement means the exposition and the JSON view
// diverged — double-counting, a missed sample, or a metric wired to the
// wrong atomic.
func checkTelemetryAgreement(mBefore, mAfter, sBefore, sAfter map[string]float64) CheckResult {
	var bad []string
	for _, pair := range telemetryPairs {
		sd := sAfter[pair[0]] - sBefore[pair[0]]
		md := mAfter[pair[1]] - mBefore[pair[1]]
		if sd != md {
			bad = append(bad, fmt.Sprintf("%s: statusz %+g vs metricsz %+g", pair[0], sd, md))
		}
	}
	if len(bad) > 0 {
		return verdict("telemetry_agreement", false, strings.Join(bad, "; "))
	}
	return verdict("telemetry_agreement", true,
		fmt.Sprintf("%d paired counter deltas agree across /metricsz and /v1/statusz", len(telemetryPairs)))
}

func allPass(checks []CheckResult) bool {
	for _, c := range checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// nameHash is FNV-1a over the scenario name: a stable per-scenario seed
// perturbation so scenarios draw independent streams from one run seed.
func nameHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
