package server

import (
	"encoding/json"
	"net/http"
	"runtime"

	"slotsel/internal/inventory"
)

// handleStatusz renders /v1/statusz: the inventory's Status, the admission
// and watch counters, runtime memory figures, the find cache, per-shard
// statuses over a router, and the durability figures of the WAL stores.
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
