package server

import (
	"time"

	"slotsel/internal/inventory"
	"slotsel/internal/telemetry"
	"slotsel/internal/wal"
)

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
