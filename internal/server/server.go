// Package server exposes the slot inventory as an HTTP JSON scheduling
// API — the front-end a grid metascheduler offers its users:
//
//	POST /v1/find     stateless window search on the current snapshot
//	POST /v1/reserve  search + TTL'd hold (the optimistic first phase)
//	POST /v1/commit   make a hold permanent
//	POST /v1/release  cancel a hold
//	GET  /v1/watch    long-poll until a satisfying window appears
//	GET  /v1/slots    current free slot list (persist slot-list format)
//	GET  /v1/statusz  inventory + server status JSON
//	GET  /metricsz    Prometheus text exposition (when Options.Metrics set)
//
// Request and window payloads reuse the internal/persist wire encodings,
// so snapshots written by cmd/slotgen and windows printed by cmd/slotfind
// interoperate with the service unchanged.
//
// # Durability
//
// With Options.WALs (or WAL) set the server reports the durability
// stores' progress (journal vs durable sequence, snapshot age, fsync
// count) in a "durability" statusz section and as slotserve_wal_* metrics
// — both sampled from the same store atomics.
//
// # Event-driven finds
//
// /v1/find rides a churn-aware result cache (inventory.FindCache): a
// memoized window is served only when the inventory's invalidation history
// proves no mutation since the entry's snapshot overlapped the request's
// time horizon, so a hit is byte-identical to a fresh full scan. /v1/watch
// inverts the polling loop: a bounded set of subscribers long-polls for a
// window, and each is re-evaluated only when a publication's change range
// overlaps its horizon — the first satisfying window is pushed, a deadline
// answers 404, and graceful drain answers 503 (see DrainWatches).
//
// # Admission control
//
// Every request passes a bounded admission gate: at most MaxInflight
// requests execute concurrently and at most QueueDepth more wait for a
// slot; anything beyond that is shed immediately with 429 and a
// Retry-After header, so overload degrades by load shedding rather than by
// unbounded goroutine/queue growth. The Retry-After value is not a
// constant: it is the estimated time for the current queue to drain at the
// observed service rate (MaxInflight executors x mean handler time),
// clamped to [1, 30] seconds — a client that obeys it comes back when
// capacity is plausibly free instead of hammering a deep queue every
// second. Admitted requests run under a
// per-request deadline (RequestTimeout); a request whose deadline expires
// while it waits in the queue is answered 503 and counted separately
// (deadline_expired in /v1/statusz) — the client did nothing wrong and the
// request was never shed, the server was just too slow for its deadline.
//
// # Telemetry
//
// Every response carries an X-Trace-Id header with a fresh 16-hex trace ID.
// The same ID appears on the request's obs span and — when
// Options.RequestLog is set — in the structured JSON log line, so traces,
// logs and client observations join on one key.
//
// With Options.Metrics set, the server registers its metric families on
// the registry and serves the Prometheus text exposition at GET /metricsz:
// per-endpoint/per-status request counters and latency histograms, an
// admission queue-wait histogram, the admission counters (sampled from the
// very atomics /v1/statusz reports, so the two views cannot disagree), and
// inventory gauges sampled from inventory.Status at scrape time. /metricsz
// itself passes through the admission gate and is therefore self-counted;
// monitors diffing two scrapes should scrape in a fixed order so their own
// requests cancel out of every counter delta (internal/slotlab does this).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"slotsel"
	"slotsel/internal/core"
	"slotsel/internal/csa"
	"slotsel/internal/inventory"
	"slotsel/internal/obs"
	"slotsel/internal/persist"
	"slotsel/internal/telemetry"
	"slotsel/internal/telemetry/reqlog"
	"slotsel/internal/wal"
)

// Options configures the HTTP front-end. The zero value gets sensible
// defaults.
type Options struct {
	// MaxInflight caps concurrently executing requests. Default 32.
	MaxInflight int

	// QueueDepth caps requests waiting for an execution slot; beyond it
	// requests are shed with 429. Default 64.
	QueueDepth int

	// RequestTimeout is the per-request deadline (also bounds queue wait).
	// Default 5s.
	RequestTimeout time.Duration

	// Collector receives one "http" span per admitted request. nil = off.
	Collector obs.Collector

	// Metrics, when non-nil, receives the server's metric families and is
	// served as a Prometheus text exposition at GET /metricsz. nil = no
	// metrics and no /metricsz route (404).
	Metrics *telemetry.Registry

	// RequestLog, when non-nil, receives one structured JSON line per
	// request (including shed and deadline-expired ones). nil = off.
	RequestLog *reqlog.Logger

	// WAL, when non-nil, is the durability store behind the inventory.
	// Its stats feed the "durability" section of /v1/statusz and the
	// slotserve_wal_* metric families — both sampled from the same store
	// atomics, so the two views cannot disagree.
	WAL *wal.Store

	// WALs, when non-empty, are the durability stores behind the
	// inventory, index i backing shard i (wal.Stack.Stores): one store
	// for a flat pool, which renders exactly as WAL does. The
	// slotserve_wal_* metric families and the statusz "durability"
	// aggregate sum the per-store figures (snapshot age takes the oldest
	// shard); with more than one store statusz additionally lists every
	// shard's own figures. Mutually exclusive with WAL.
	WALs []*wal.Store

	// FindCacheSize bounds the churn-aware /v1/find result cache:
	// 0 uses the inventory package's default capacity, > 0 sets an
	// explicit entry bound, < 0 disables the cache (every find runs a
	// fresh full scan — the stateless oracle behavior). Over a sharded
	// pool the value is a per-shard budget: the cache's total entry bound
	// is FindCacheSize (or the package default) times the shard count, so
	// raising -shards never shrinks the per-shard working set.
	FindCacheSize int

	// WatchLimit caps concurrently parked /v1/watch subscribers; beyond
	// it new watches are rejected with 429 + Retry-After. Default 8. It
	// should stay below MaxInflight: a parked watch holds an execution
	// slot for its whole long-poll.
	WatchLimit int
}

// Server is the HTTP handler over one inventory pool — a single
// *inventory.Inventory or a sharded router; every handler goes through
// the Pool interface, so the HTTP surface is identical either way.
type Server struct {
	inv  inventory.Pool
	opts Options
	mux  *http.ServeMux

	inflight chan struct{}
	queued   atomic.Int64
	requests atomic.Uint64
	shed     atomic.Uint64

	// completed counts admitted requests whose handler finished. serviced
	// and busyNanos tally the drain-rate estimate behind Retry-After: how
	// many non-watch requests finished and their summed handler wall time.
	// A /v1/watch long-poll parks for seconds by design, and folding its
	// wall time into the mean would poison the estimate.
	completed atomic.Uint64
	serviced  atomic.Uint64
	busyNanos atomic.Uint64

	// cache memoizes find results across requests with churn-aware
	// invalidation; nil when Options.FindCacheSize < 0.
	cache *inventory.FindCache

	// watch is the bounded /v1/watch subscriber hub.
	watch *watchHub

	// deadlineExpired counts requests whose deadline passed while they
	// waited in the admission queue — answered 503, distinct from shed
	// (queue full, answered 429).
	deadlineExpired atomic.Uint64

	// mx holds the request-scoped metric instruments; nil when
	// Options.Metrics is unset (metrics off).
	mx *serverMetrics

	// testHook, when set, runs inside the admission-guarded section of
	// every request — the seam the overload tests use to keep handlers
	// busy deterministically.
	testHook func()
}

// serverMetrics are the per-request instruments updated on the serving
// path. The cumulative admission counters and the inventory view are
// sampled at scrape time instead (see registerMetrics) — sampling the same
// atomics /v1/statusz reads is what makes the two views agree exactly.
type serverMetrics struct {
	// requests counts finished requests by normalized path and status.
	requests *telemetry.CounterVec

	// latency is the handler wall time of admitted requests by path.
	latency *telemetry.HistogramVec

	// queueWait is the admission-queue wait of admitted requests.
	queueWait *telemetry.Histogram
}

// registerMetrics registers the server families on reg. Counters that back
// /v1/statusz fields are sampled from the identical atomics; inventory
// gauges are sampled from one inventory.Status read at scrape time.
func (s *Server) registerMetrics(reg *telemetry.Registry) *serverMetrics {
	m := &serverMetrics{
		requests: reg.CounterVec("slotserve_http_requests_total",
			"Finished HTTP requests by endpoint and status (shed and expired included).", "path", "status"),
		latency: reg.HistogramVec("slotserve_request_duration_seconds",
			"Handler wall time of admitted requests by endpoint.",
			telemetry.LatencyBucketsSeconds(), "path"),
		queueWait: reg.Histogram("slotserve_queue_wait_seconds",
			"Admission-queue wait of admitted requests.",
			telemetry.LatencyBucketsSeconds()),
	}
	reg.SampledCounter("slotserve_requests_total",
		"Requests received, including shed ones (statusz server.requests).",
		func() float64 { return float64(s.requests.Load()) })
	reg.SampledCounter("slotserve_completed_total",
		"Admitted requests whose handler finished (statusz server.completed).",
		func() float64 { return float64(s.completed.Load()) })
	reg.SampledCounter("slotserve_shed_total",
		"Requests shed with 429 because the admission queue was full.",
		func() float64 { return float64(s.shed.Load()) })
	reg.SampledCounter("slotserve_deadline_expired_total",
		"Requests answered 503 because their deadline expired while queued.",
		func() float64 { return float64(s.deadlineExpired.Load()) })
	reg.SampledGauge("slotserve_inflight",
		"Requests currently executing.",
		func() float64 { return float64(len(s.inflight)) })
	reg.SampledGauge("slotserve_queued",
		"Requests currently waiting in the admission queue.",
		func() float64 { return float64(s.queued.Load()) })

	// One Status per scrape backs every inventory family, so the families of
	// one scrape describe one version (on the router, one merged snapshot
	// and one count of its hold and commit IDs).
	inv := s.inv
	var st inventory.Status
	reg.OnScrape(func() { st = inv.Status() })
	reg.SampledGauge("slotsel_inventory_free_slots",
		"Free slots in the published snapshot.",
		func() float64 { return float64(st.FreeSlots) })
	reg.SampledGauge("slotsel_inventory_free_span",
		"Total time span of the free slots.",
		func() float64 { return st.FreeSpan })
	reg.SampledGauge("slotsel_inventory_holds",
		"Live TTL'd reservations.",
		func() float64 { return float64(st.Holds) })
	reg.SampledGauge("slotsel_inventory_committed",
		"Permanent allocations.",
		func() float64 { return float64(st.Committed) })
	reg.SampledGauge("slotsel_inventory_nodes",
		"Nodes with registered capacity.",
		func() float64 { return float64(st.Nodes) })
	reg.SampledGauge("slotsel_inventory_snapshot_version",
		"Version of the published free-list snapshot.",
		func() float64 { return float64(st.Version) })
	reg.SampledGauge("slotsel_inventory_journal_len",
		"Events retained in the inventory journal.",
		func() float64 { return float64(st.JournalLen) })
	reg.SampledCounter("slotsel_inventory_reserves_total",
		"Accepted holds.",
		func() float64 { return float64(st.Counters.Reserves) })
	reg.SampledCounter("slotsel_inventory_conflicts_total",
		"Reserves rejected by re-validation.",
		func() float64 { return float64(st.Counters.Conflicts) })
	reg.SampledCounter("slotsel_inventory_no_window_total",
		"Reserve searches that found no feasible window.",
		func() float64 { return float64(st.Counters.NoWindow) })
	reg.SampledCounter("slotsel_inventory_commits_total",
		"Holds made permanent.",
		func() float64 { return float64(st.Counters.Commits) })
	reg.SampledCounter("slotsel_inventory_releases_total",
		"Holds released by the caller.",
		func() float64 { return float64(st.Counters.Releases) })
	reg.SampledCounter("slotsel_inventory_expiries_total",
		"Holds swept after their TTL lapsed.",
		func() float64 { return float64(st.Counters.Expiries) })

	if c := s.cache; c != nil {
		reg.SampledCounter("slotserve_find_cache_hits_total",
			"Find results served from the churn-aware cache (statusz find_cache.hits).",
			func() float64 { return float64(c.Stats().Hits) })
		reg.SampledCounter("slotserve_find_cache_misses_total",
			"Find results computed by a full scan (statusz find_cache.misses).",
			func() float64 { return float64(c.Stats().Misses) })
		reg.SampledCounter("slotserve_find_cache_invalidated_total",
			"Cache entries dropped because churn overlapped their horizon.",
			func() float64 { return float64(c.Stats().Invalidated) })
		reg.SampledCounter("slotserve_find_cache_evicted_total",
			"Cache entries evicted by the capacity bound.",
			func() float64 { return float64(c.Stats().Evicted) })
		reg.SampledGauge("slotserve_find_cache_entries",
			"Memoized request shapes currently cached.",
			func() float64 { return float64(c.Stats().Entries) })
	}
	hub := s.watch
	reg.SampledGauge("slotserve_watch_active",
		"Watch subscribers currently parked on /v1/watch.",
		func() float64 { return float64(hub.active()) })
	reg.SampledCounter("slotserve_watch_delivered_total",
		"Watches answered with a satisfying window.",
		func() float64 { return float64(hub.delivered.Load()) })
	reg.SampledCounter("slotserve_watch_expired_total",
		"Watches that timed out without a window (404).",
		func() float64 { return float64(hub.expired.Load()) })
	reg.SampledCounter("slotserve_watch_rejected_total",
		"Watches rejected because the subscriber limit was reached (429).",
		func() float64 { return float64(hub.rejected.Load()) })

	if n := s.inv.Shards(); n > 1 {
		reg.SampledGauge("slotserve_shards",
			"Inventory shards behind this server (1 = unsharded).",
			func() float64 { return float64(n) })
	}
	if ws := s.walList(); len(ws) > 0 {
		// With one store these sample it directly; with per-shard stores
		// the sums (and oldest snapshot age) describe the layout as a
		// whole — the same aggregates the statusz "durability" section
		// reports, from the same atomics.
		reg.SampledGauge("slotserve_wal_journal_seq",
			"Last sequence handed to the WAL (appended, not necessarily durable; summed over shards).",
			func() float64 { return float64(aggregateWALStats(ws).AppendedSeq) })
		reg.SampledGauge("slotserve_wal_durable_seq",
			"Last sequence confirmed on stable storage by fsync (summed over shards).",
			func() float64 { return float64(aggregateWALStats(ws).DurableSeq) })
		reg.SampledGauge("slotserve_wal_snapshot_seq",
			"Sequence covered by the latest snapshot (0 = log-only; summed over shards).",
			func() float64 { return float64(aggregateWALStats(ws).SnapshotSeq) })
		reg.SampledGauge("slotserve_wal_snapshot_age_seconds",
			"Seconds since the latest snapshot was written (-1 = none this process; oldest shard).",
			func() float64 { return snapshotAgeSeconds(aggregateWALStats(ws)) })
		reg.SampledCounter("slotserve_wal_fsyncs_total",
			"Group commits flushed to stable storage (summed over shards).",
			func() float64 { return float64(aggregateWALStats(ws).Fsyncs) })
		reg.SampledGauge("slotserve_wal_failed_stores",
			"WAL stores that latched an I/O failure; mutations they journal answer 503 until restart.",
			func() float64 { n, _ := walFailures(ws); return float64(n) })
	}
	return m
}

// FsyncHistogram registers the WAL fsync-latency histogram on reg and
// returns an observer to hand to wal.Options.OnFsync. It lives apart from
// registerMetrics because the store — and therefore its OnFsync callback —
// must exist before the server does.
func FsyncHistogram(reg *telemetry.Registry) func(time.Duration) {
	h := reg.Histogram("slotserve_wal_fsync_seconds",
		"WAL fsync latency (one observation per group commit).",
		telemetry.LatencyBucketsSeconds())
	return func(d time.Duration) { h.Observe(d.Seconds()) }
}

// snapshotAgeSeconds is the age of the latest snapshot, or -1 when none
// has been written in this process's lifetime — an age of 0 would read as
// "snapshotted just now", the opposite of the truth.
func snapshotAgeSeconds(st wal.Stats) float64 {
	if st.SnapshotUnixNano == 0 {
		return -1
	}
	return time.Since(time.Unix(0, st.SnapshotUnixNano)).Seconds()
}

// walList is the durability stores behind the server: Options.WALs for a
// sharded layout, a one-element list for Options.WAL, nil for none.
func (s *Server) walList() []*wal.Store {
	if len(s.opts.WALs) > 0 {
		return s.opts.WALs
	}
	if s.opts.WAL != nil {
		return []*wal.Store{s.opts.WAL}
	}
	return nil
}

// aggregateWALStats folds per-shard store stats into one layout-wide view:
// sequences and fsyncs sum (each shard numbers its own log), and the
// snapshot timestamp takes the *oldest* shard with one — the layout is only
// as freshly snapshotted as its most stale member. Zero timestamps (no
// snapshot yet) dominate for the same reason.
func aggregateWALStats(ws []*wal.Store) wal.Stats {
	if len(ws) == 1 {
		return ws[0].Stats()
	}
	var out wal.Stats
	for i, w := range ws {
		st := w.Stats()
		out.AppendedSeq += st.AppendedSeq
		out.DurableSeq += st.DurableSeq
		out.SnapshotSeq += st.SnapshotSeq
		out.Fsyncs += st.Fsyncs
		if i == 0 || st.SnapshotUnixNano < out.SnapshotUnixNano {
			out.SnapshotUnixNano = st.SnapshotUnixNano
		}
	}
	return out
}

// walFailures counts the stores that have latched an I/O failure and
// returns the first one's error ("" when none has) — the statusz
// "durability.error" and the slotserve_wal_failed_stores gauge.
func walFailures(ws []*wal.Store) (failed int, first string) {
	for _, w := range ws {
		if err := w.Err(); err != nil {
			if failed == 0 {
				first = err.Error()
			}
			failed++
		}
	}
	return failed, first
}

// New builds the handler over a pool — a single *inventory.Inventory or
// an *inventory.Sharded router. The pool must be non-nil.
func New(inv inventory.Pool, opts Options) *Server {
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = 32
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 5 * time.Second
	}
	if opts.WatchLimit <= 0 {
		opts.WatchLimit = 8
	}
	s := &Server{
		inv:      inv,
		opts:     opts,
		mux:      http.NewServeMux(),
		inflight: make(chan struct{}, opts.MaxInflight),
		watch:    newWatchHub(opts.WatchLimit),
	}
	if opts.FindCacheSize >= 0 {
		// FindCacheSize is a per-shard budget: the total bound scales with
		// the shard count so each shard keeps its configured working set.
		size := opts.FindCacheSize
		if n := inv.Shards(); n > 1 {
			if size == 0 {
				size = inventory.DefaultFindCacheEntries
			}
			size *= n
		}
		s.cache = inventory.NewFindCache(inv, size)
	}
	// The hub re-checks a parked watch only when a publication's change
	// range overlaps its horizon — the event-driven path: no polling, no
	// full re-evaluation on unrelated churn.
	inv.AddChangeListener(s.watch.notify)
	// Pre-populate the scanner pool to the admission bound: the first
	// MaxInflight concurrent searches skip scanner construction. Best
	// effort — sync.Pool may shed entries under GC pressure.
	core.WarmScanners(opts.MaxInflight)
	s.mux.HandleFunc("/v1/find", s.route(http.MethodPost, s.handleFind))
	s.mux.HandleFunc("/v1/reserve", s.route(http.MethodPost, s.handleReserve))
	s.mux.HandleFunc("/v1/commit", s.route(http.MethodPost, s.handleCommit))
	s.mux.HandleFunc("/v1/release", s.route(http.MethodPost, s.handleRelease))
	s.mux.HandleFunc("/v1/watch", s.route(http.MethodGet, s.handleWatch))
	s.mux.HandleFunc("/v1/slots", s.route(http.MethodGet, s.handleSlots))
	s.mux.HandleFunc("/v1/statusz", s.route(http.MethodGet, s.handleStatusz))
	if opts.Metrics != nil {
		s.mx = s.registerMetrics(opts.Metrics)
		metrics := opts.Metrics.Handler()
		s.mux.HandleFunc("/metricsz", s.route(http.MethodGet, func(sc *reqScope, r *http.Request) { metrics.ServeHTTP(sc, r) }))
	}
	return s
}

// ServeHTTP implements http.Handler: trace ID, admission gate, deadline,
// dispatch, then telemetry (span, metrics, request log).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	trace := reqlog.NewTraceID()
	w.Header().Set("X-Trace-Id", trace)
	arrive := obs.Now()
	deadline := arrive + s.opts.RequestTimeout
	switch s.admit(r) {
	case admitShed:
		s.shed.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
		writeBody(w, http.StatusTooManyRequests, bodyOverloaded)
		s.finish(r, trace, http.StatusTooManyRequests, obs.Now()-arrive, 0, false, "")
		return
	case admitExpired:
		s.deadlineExpired.Add(1)
		writeBody(w, http.StatusServiceUnavailable, bodyExpiredQueued)
		s.finish(r, trace, http.StatusServiceUnavailable, obs.Now()-arrive, 0, false, "")
		return
	}
	queueWait := obs.Now() - arrive
	defer func() { <-s.inflight }()
	if s.testHook != nil {
		s.testHook()
	}
	if r.Context().Err() != nil || obs.Now() >= deadline {
		// Admitted, but the deadline passed (or the client left) before the
		// handler could run — the same too-slow outcome as expiring in the
		// queue.
		s.deadlineExpired.Add(1)
		writeBody(w, http.StatusServiceUnavailable, bodyExpiredAdmit)
		s.finish(r, trace, http.StatusServiceUnavailable, queueWait, 0, false, "")
		return
	}
	begin := obs.Now()
	sc := acquireScope(w, deadline)
	s.mux.ServeHTTP(sc, r)
	code, alg := sc.code, sc.alg
	releaseScope(sc)
	dur := obs.Now() - begin
	s.completed.Add(1)
	if r.URL.Path != "/v1/watch" {
		// Watch long-polls are excluded from the service-time mean: their
		// handler time is dominated by intentional parking, not work.
		s.busyNanos.Add(uint64(dur))
		s.serviced.Add(1)
	}
	if col := s.opts.Collector; col != nil {
		col.Span(obs.Span{
			Name:  "http " + r.URL.Path,
			Cat:   "http",
			Start: begin,
			Dur:   dur,
			Arg:   strconv.Itoa(code),
			Trace: trace,
		})
	}
	s.finish(r, trace, code, queueWait, dur, true, alg)
}

// finish records the per-request telemetry once the response is decided:
// the path x status counter (every request, shed included), the latency and
// queue-wait histograms (admitted requests only — rejections have no
// handler time), and the structured log line.
func (s *Server) finish(r *http.Request, trace string, code int, queueWait, dur time.Duration, admitted bool, alg string) {
	if s.mx != nil {
		path := normPath(r.URL.Path)
		s.mx.requests.With2(path, statusLabel(code)).Inc()
		if admitted {
			s.mx.latency.With1(path).Observe(float64(dur) / float64(time.Second))
			s.mx.queueWait.Observe(float64(queueWait) / float64(time.Second))
		}
	}
	if s.opts.RequestLog != nil {
		s.opts.RequestLog.Log(reqlog.Entry{
			Time:      time.Now(),
			TraceID:   trace,
			Method:    r.Method,
			Path:      r.URL.Path,
			Status:    code,
			QueueWait: queueWait,
			Duration:  dur,
			Alg:       alg,
		})
	}
}

// normPath maps the request path onto the bounded label set of the
// endpoint metrics: the served routes keep their name, anything else —
// typos, probes, scrapers guessing URLs — collapses into "other" so
// arbitrary client input cannot grow the metric cardinality.
func normPath(p string) string {
	switch p {
	case "/v1/find", "/v1/reserve", "/v1/commit", "/v1/release",
		"/v1/watch", "/v1/slots", "/v1/statusz", "/metricsz":
		return p
	}
	return "other"
}

// statusLabel renders an HTTP status as a metric label without allocating
// for the codes the server actually emits.
func statusLabel(code int) string {
	switch code {
	case http.StatusOK:
		return "200"
	case http.StatusBadRequest:
		return "400"
	case http.StatusNotFound:
		return "404"
	case http.StatusMethodNotAllowed:
		return "405"
	case http.StatusConflict:
		return "409"
	case http.StatusRequestEntityTooLarge:
		return "413"
	case http.StatusTooManyRequests:
		return "429"
	case http.StatusServiceUnavailable:
		return "503"
	}
	return strconv.Itoa(code)
}

// admitResult distinguishes the admission outcomes: the two rejection
// paths carry different status codes and counters.
type admitResult int

const (
	// admitOK: an execution slot was acquired; the caller must release it.
	admitOK admitResult = iota

	// admitShed: the wait queue is full; the request is shed (429).
	admitShed

	// admitExpired: the request's deadline passed while it waited in the
	// queue (503).
	admitExpired
)

// admit implements the bounded queue: immediate entry when an execution
// slot is free; otherwise wait in the bounded queue until a slot frees,
// the deadline passes or the client goes away; shed when the queue itself
// is full. Only a request that has to wait pays for a timer.
func (s *Server) admit(r *http.Request) admitResult {
	select {
	case s.inflight <- struct{}{}:
		return admitOK
	default:
	}
	if s.queued.Add(1) > int64(s.opts.QueueDepth) {
		s.queued.Add(-1)
		return admitShed
	}
	defer s.queued.Add(-1)
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	defer cancel()
	select {
	case s.inflight <- struct{}{}:
		return admitOK
	case <-ctx.Done():
		return admitExpired
	}
}

// retryAfter computes the Retry-After hint for a shed request from the
// current queue depth and the observed mean service time.
func (s *Server) retryAfter() int {
	return retryAfterSeconds(s.queued.Load(), s.opts.MaxInflight, s.avgService())
}

// avgService is the observed mean handler wall time of non-watch
// requests; zero until the first one completes.
func (s *Server) avgService() time.Duration {
	n := s.serviced.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(s.busyNanos.Load() / n)
}

// Retry-After clamps: never tell a client to come back sooner than 1s
// (sub-second retry storms defeat the point of shedding) or later than 30s
// (the estimate is too noisy to justify parking clients for minutes).
const (
	minRetryAfterSeconds = 1
	maxRetryAfterSeconds = 30
)

// retryAfterSeconds estimates how long a shed client should wait: the time
// for the current queue (plus this request) to drain at the observed
// drain rate — maxInflight executors retiring one request every avgService
// — rounded up to whole seconds and clamped to [1, 30].
//
// The rate is guarded explicitly: with no service-time observation yet
// (fresh boot) or a degenerate executor count, the drain rate is zero or
// undefined, and the estimate falls back to the 1-second floor rather
// than dividing by zero or reporting a clamp derived from stale state. A
// post-drain idle server (queue emptied after a burst) takes the same
// floor by arithmetic: zero waiters drain within one mean service time.
func retryAfterSeconds(queued int64, maxInflight int, avgService time.Duration) int {
	if queued < 0 {
		queued = 0 // the gauge can transiently undershoot during admits
	}
	svc := avgService.Seconds()
	if svc <= 0 || maxInflight <= 0 {
		return minRetryAfterSeconds
	}
	rate := float64(maxInflight) / svc // requests retired per second
	secs := int(math.Ceil(float64(queued+1) / rate))
	if secs < minRetryAfterSeconds {
		return minRetryAfterSeconds
	}
	if secs > maxRetryAfterSeconds {
		return maxRetryAfterSeconds
	}
	return secs
}

// handler is a route's function: the request's scope, which is also its
// http.ResponseWriter, and the request.
type handler func(sc *reqScope, r *http.Request)

// route adapts a handler to the mux for one method.
func (s *Server) route(method string, h handler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sc := w.(*reqScope) // ServeHTTP hands the mux nothing else
		if r.Method != method {
			sc.Header().Set("Allow", method)
			sc.error(http.StatusMethodNotAllowed, "use "+method)
			return
		}
		h(sc, r)
	}
}

// decodeSearch reads a /v1/find or /v1/reserve body into the scope's
// searchInputs.
func (s *Server) decodeSearch(sc *reqScope, r *http.Request) (*searchInputs, bool) {
	if !sc.readBody(r) {
		return nil, false
	}
	body, ok := sc.decodeSearchBody()
	if !ok {
		return nil, false
	}
	if !body.Request.set {
		sc.error(http.StatusBadRequest, `missing "request" field`)
		return nil, false
	}
	if body.Request.err != nil {
		sc.error(http.StatusBadRequest, body.Request.err.Error())
		return nil, false
	}
	in, ok := resolveSearch(sc, body.Request.req, body.Alg, body.CSA)
	if !ok {
		return nil, false
	}
	if body.TTLSeconds < 0 {
		sc.error(http.StatusBadRequest, "ttl_seconds must be >= 0")
		return nil, false
	}
	if in.ttl, ok = seconds(body.TTLSeconds); !ok {
		sc.error(http.StatusBadRequest, fmt.Sprintf("ttl_seconds must be at most %d", maxSeconds))
		return nil, false
	}
	return in, true
}

// resolveSearch names the search of a decoded request — a CSA criterion
// when csaName is set, else the algorithm algName (default "amp") — and
// keys it for the find cache. Shared by the /v1/find and /v1/reserve body
// and the /v1/watch query string.
func resolveSearch(sc *reqScope, req *slotsel.Request, algName, csaName string) (*searchInputs, bool) {
	in := &sc.search
	*in = searchInputs{req: req}
	if csaName != "" {
		crit, ok := criterionByName(csaName)
		if !ok {
			sc.error(http.StatusBadRequest, fmt.Sprintf("unknown CSA criterion %q", csaName))
			return nil, false
		}
		in.useCSA, in.crit = true, crit
		sc.alg = "csa:" + crit.String()
		in.key = inventory.NewCacheKey(req, sc.alg)
		return in, true
	}
	if algName == "" {
		algName = "amp"
	}
	alg, err := slotsel.AlgorithmByName(algName, 1)
	if err != nil {
		sc.error(http.StatusBadRequest, err.Error())
		return nil, false
	}
	in.alg = alg
	in.key = inventory.NewCacheKey(req, alg.Name())
	sc.alg = algName
	return in, true
}

type searchInputs struct {
	req    *slotsel.Request
	alg    core.Algorithm
	useCSA bool
	crit   csa.Criterion
	ttl    time.Duration

	// key is the canonical (request shape, algorithm) identity the find
	// cache memoizes under; the key's horizon also scopes /v1/watch
	// re-evaluation to overlapping invalidations.
	key inventory.CacheKey
}

// runSearch is the stateless search against one snapshot — the oracle
// path every cached result is provably equal to. It walks the version as
// it was published: no copy of the pool, no second check of its order.
func (s *Server) runSearch(in *searchInputs, snap *inventory.Snapshot) (*core.Window, error) {
	if in.useCSA {
		return snap.BestAlternative(in.req, in.crit, 0, s.opts.Collector)
	}
	return snap.Find(in.alg, in.req, s.opts.Collector)
}

// search resolves a find through the churn-aware cache when enabled; with
// the cache disabled it is exactly the stateless scan of the latest
// version. Either way the snapshot the result is valid against is returned
// alongside, and a cache hit comes with the window's wire bytes.
func (s *Server) search(in *searchInputs) (*core.Window, []byte, *inventory.Snapshot, error) {
	if s.cache == nil {
		snap := inventory.Latest(s.inv)
		win, err := s.runSearch(in, snap)
		return win, nil, snap, err
	}
	return s.cache.FindEncoded(in.key, func(snap *inventory.Snapshot) (*core.Window, error) {
		return s.runSearch(in, snap)
	}, encodeForCache)
}

// encodeForCache renders a window as a reply carries it, for the find
// cache to keep: owned bytes, where a reply's own are the scope's.
func encodeForCache(w *core.Window) ([]byte, error) { return persist.AppendWindow(nil, w, 1) }

// replyFound answers a find or watch from a search outcome: the window
// under the version of the snapshot it was served at — a hit's wire bytes
// as the cache kept them, a fresh window encoded in place.
func replyFound(sc *reqScope, win *core.Window, enc []byte, snap *inventory.Snapshot, err error) {
	switch {
	case errors.Is(err, core.ErrNoWindow):
		sc.error(http.StatusNotFound, "no feasible window")
	case errors.Is(err, persist.ErrNonFinite):
		// Found, but not encodable: the server's failure, not the request's.
		sc.error(http.StatusInternalServerError, err.Error())
	case err != nil:
		sc.error(http.StatusBadRequest, err.Error())
	default:
		sc.uint("version", snap.Version)
		if enc != nil {
			sc.field("window")
			sc.out = append(sc.out, enc...)
		} else if !sc.window(win) {
			return
		}
		sc.send(http.StatusOK)
	}
}

var criteria = [...]csa.Criterion{csa.ByStart, csa.ByFinish, csa.ByCost, csa.ByRuntime, csa.ByProcTime}

func criterionByName(name string) (csa.Criterion, bool) {
	for _, c := range criteria {
		if c.String() == name {
			return c, true
		}
	}
	return 0, false
}

// handleFind is the stateless search: nothing is held. It rides the find
// cache — a hit is served only when the invalidation history proves no
// churn since the entry's snapshot overlapped the request's horizon, so
// the response is byte-identical to a fresh full scan either way.
func (s *Server) handleFind(sc *reqScope, r *http.Request) {
	in, ok := s.decodeSearch(sc, r)
	if !ok {
		return
	}
	win, enc, snap, err := s.search(in)
	replyFound(sc, win, enc, snap, err)
}

func (s *Server) handleReserve(sc *reqScope, r *http.Request) {
	in, ok := s.decodeSearch(sc, r)
	if !ok {
		return
	}
	var res *inventory.Reservation
	var err error
	if in.useCSA {
		res, err = s.inv.ReserveBest(in.req, in.crit, 0, in.ttl)
	} else {
		res, err = s.inv.Reserve(in.req, in.alg, in.ttl)
	}
	if err != nil {
		replyMutationError(sc, err)
		return
	}
	sc.field("expires")
	sc.out = append(sc.out, '"')
	sc.out = res.Expires.UTC().AppendFormat(sc.out, time.RFC3339Nano)
	sc.out = append(sc.out, '"')
	sc.str("id", res.ID)
	sc.uint("version", res.Version)
	if sc.window(res.Window) {
		sc.send(http.StatusOK)
	}
}

func (s *Server) handleCommit(sc *reqScope, r *http.Request) {
	id, ok := sc.decodeID(r)
	if !ok {
		return
	}
	win, err := s.inv.Commit(id)
	if err != nil {
		replyMutationError(sc, err)
		return
	}
	sc.str("id", id)
	if sc.window(win) {
		sc.send(http.StatusOK)
	}
}

func (s *Server) handleRelease(sc *reqScope, r *http.Request) {
	id, ok := sc.decodeID(r)
	if !ok {
		return
	}
	if err := s.inv.Release(id); err != nil {
		replyMutationError(sc, err)
		return
	}
	sc.str("id", id)
	sc.field("released")
	sc.out = append(sc.out, "true"...)
	sc.send(http.StatusOK)
}

// replyMutationError answers a failed reserve, commit or release.
func replyMutationError(sc *reqScope, err error) {
	switch {
	case errors.Is(err, inventory.ErrNotDurable):
		// The store has latched an I/O failure until restart: there is no
		// retry time to promise, and the cause (it names the data
		// directory) is statusz's to show, not a client's.
		sc.error(http.StatusServiceUnavailable, "journal not durable: this server is fail-stopped")
	case errors.Is(err, core.ErrNoWindow):
		sc.error(http.StatusNotFound, "no feasible window")
	case errors.Is(err, inventory.ErrConflict):
		sc.error(http.StatusConflict, "lost the race for those slots, retry")
	case errors.Is(err, inventory.ErrUnknownReservation):
		sc.error(http.StatusNotFound, err.Error())
	default:
		sc.error(http.StatusBadRequest, err.Error())
	}
}

func (s *Server) handleSlots(sc *reqScope, r *http.Request) {
	s.inv.Sweep() // bound snapshot staleness on read-only traffic
	snap := s.inv.Snapshot()
	sc.Header()["Content-Type"] = contentTypeJSON
	sc.Header().Set("X-Inventory-Version", strconv.FormatUint(snap.Version, 10))
	if err := persist.WriteSlotList(sc, snap.Slots); err != nil {
		// Headers are out; nothing to do but drop the connection.
		return
	}
}

func (s *Server) handleStatusz(sc *reqScope, r *http.Request) {
	s.inv.Sweep()
	// go_memstats-style runtime figures, so the service's steady-state
	// allocation discipline (the scanner pool's whole point) is observable
	// in production, not just in the regression suite. ReadMemStats
	// stops the world briefly; statusz is low-frequency monitoring traffic.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	// One Status() call backs both the inventory section and the top-level
	// snapshot_version, so a monitor diffing two statusz reads can
	// correlate every counter delta with the exact inventory-version range
	// [before.snapshot_version, after.snapshot_version] it happened in.
	st := s.inv.Status()
	body := map[string]any{
		"snapshot_version": st.Version,
		"inventory":        st,
		"server": map[string]any{
			"requests":         s.requests.Load(),
			"completed":        s.completed.Load(),
			"shed":             s.shed.Load(),
			"deadline_expired": s.deadlineExpired.Load(),
			"inflight":         len(s.inflight),
			"queued":           s.queued.Load(),
			"avg_service_ns":   s.avgService().Nanoseconds(),
			"retry_after_hint": s.retryAfter(),
		},
		"watch": map[string]any{
			"active":    s.watch.active(),
			"limit":     s.opts.WatchLimit,
			"delivered": s.watch.delivered.Load(),
			"expired":   s.watch.expired.Load(),
			"rejected":  s.watch.rejected.Load(),
		},
		"runtime": map[string]any{
			"heap_alloc_bytes":  ms.HeapAlloc,
			"heap_inuse_bytes":  ms.HeapInuse,
			"gc_cycles":         ms.NumGC,
			"gc_pause_total_ns": ms.PauseTotalNs,
		},
	}
	if s.cache != nil {
		body["find_cache"] = s.cache.Stats()
	}
	// A sharded pool additionally exposes each shard's own Status, so an
	// operator can see skew (one hot shard, one cold) that the merged
	// inventory section averages away.
	if sp, ok := s.inv.(interface{ ShardStatuses() []inventory.Status }); ok && s.inv.Shards() > 1 {
		body["shards"] = sp.ShardStatuses()
	}
	// The durability figures come from the same store atomics the
	// slotserve_wal_* metrics sample, so statusz and /metricsz agree.
	// Single store: the exact historical shape. Per-shard stores: the
	// same shape holds the layout-wide aggregate, plus a per-shard list.
	if ws := s.walList(); len(ws) > 0 {
		wst := aggregateWALStats(ws)
		_, walErr := walFailures(ws)
		dur := map[string]any{
			"journal_seq":          wst.AppendedSeq,
			"durable_seq":          wst.DurableSeq,
			"last_snapshot_seq":    wst.SnapshotSeq,
			"snapshot_age_seconds": snapshotAgeSeconds(wst),
			"fsyncs":               wst.Fsyncs,
			"error":                walErr,
		}
		if len(ws) > 1 {
			perShard := make([]map[string]any, len(ws))
			for i, w := range ws {
				sst := w.Stats()
				_, shardErr := walFailures(ws[i : i+1])
				perShard[i] = map[string]any{
					"shard":                i,
					"journal_seq":          sst.AppendedSeq,
					"durable_seq":          sst.DurableSeq,
					"last_snapshot_seq":    sst.SnapshotSeq,
					"snapshot_age_seconds": snapshotAgeSeconds(sst),
					"fsyncs":               sst.Fsyncs,
					"error":                shardErr,
				}
			}
			dur["shards"] = perShard
		}
		body["durability"] = dur
	}
	sc.Header()["Content-Type"] = contentTypeJSON
	enc := json.NewEncoder(sc)
	enc.SetIndent("", "  ")
	_ = enc.Encode(body) // a monitor that went away is not the handler's to report
}
