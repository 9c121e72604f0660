package telemetry

import (
	"math"
	"net/http"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. The zero value is ready to
// use; all methods are lock-free.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current total.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous int64 value. The zero value is ready to use;
// all methods are lock-free.
type Gauge struct {
	v atomic.Int64
}

// SetMax raises the gauge to v when v exceeds the current value — a
// high-watermark tracker (peak window size, peak queue depth).
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets: bounds[i] is the
// inclusive upper limit of bucket i (the Prometheus `le` convention), and
// one extra bucket catches everything above the last bound (`+Inf`).
// Observe is lock-free: one atomic bucket increment plus a CAS loop on the
// float sum. Construct with NewHistogram (or through a Registry); the zero
// value is not usable.
//
// The same type backs both the /metricsz exposition (rendered cumulative,
// per the format) and the slotlab report histograms (rendered
// non-cumulative) — one bucket layout, two renderings, so the surfaces
// cannot drift.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; last is +Inf
	count   atomic.Uint64
	sum     atomic.Uint64 // float64 bits
}

// NewHistogram builds a histogram over the given strictly increasing
// bucket upper bounds. The bounds slice is copied.
func NewHistogram(bounds []float64) *Histogram {
	bs := checkBounds(bounds)
	return &Histogram{bounds: bs, buckets: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		s := math.Float64frombits(old) + v
		if h.sum.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// Bounds returns the bucket upper bounds (not including +Inf). The
// returned slice is shared and must not be mutated.
func (h *Histogram) Bounds() []float64 { return h.bounds }

// BucketCounts returns a snapshot of the per-bucket counts,
// NON-cumulative: element i counts observations in (bounds[i-1],
// bounds[i]], and the final element counts observations above the last
// bound (the +Inf bucket). Concurrent Observes may land between element
// reads; callers wanting exact totals read at quiescence.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// LinearBuckets returns n strictly increasing bounds width, 2*width, ...,
// n*width — the shape of the slotlab latency histograms.
func LinearBuckets(width float64, n int) []float64 {
	if width <= 0 || n <= 0 {
		panic("telemetry: LinearBuckets needs positive width and count")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = width * float64(i+1)
	}
	return out
}

// Latency-bucket layout shared by every HTTP latency histogram in the
// repo: 40 linear 25ms buckets over (0, 1s], overflow in +Inf. The
// slotlab report histograms use the same layout in milliseconds
// (LatencyBucketsMs), so the /metricsz buckets and the report buckets are
// two renderings of one definition and cannot drift.
const (
	latencyBucketWidthSeconds = 0.025
	latencyBucketCount        = 40
)

// LatencyBucketsSeconds returns the shared HTTP latency bucket bounds in
// seconds (the /metricsz unit).
func LatencyBucketsSeconds() []float64 {
	return LinearBuckets(latencyBucketWidthSeconds, latencyBucketCount)
}

// LatencyBucketsMs returns the same bounds in milliseconds (the slotlab
// report unit).
func LatencyBucketsMs() []float64 {
	return LinearBuckets(latencyBucketWidthSeconds*1000, latencyBucketCount)
}

// Handler returns an http.Handler serving the registry's text exposition —
// mount it wherever the service exposes /metricsz.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}
