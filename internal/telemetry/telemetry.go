// Package telemetry is the production metrics layer of the scheduling
// service: a zero-dependency (stdlib-only) registry of counters, gauges and
// fixed-bucket histograms exposed in the Prometheus text exposition format
// (the `GET /metricsz` endpoint of cmd/slotserve).
//
// The package complements internal/obs rather than replacing it: obs
// defines the event seam the scheduling kernels emit into (per-scan and
// per-search event structs, nil-collector = off), while telemetry is a
// *sink* — Collector in this package adapts obs events into registry
// metrics, so scan/select/CSA counters surface on /metricsz without the
// kernels knowing metrics exist. /v1/statusz (point-in-time JSON for
// humans and the slotlab oracle) and /metricsz (scrapeable time series for
// monitoring) deliberately coexist; internal/slotlab cross-checks that the
// two surfaces agree after every scenario.
//
// # Hot-path discipline
//
// Read-modify-write operations never take a lock: Counter.Add and
// Gauge.Set are single atomic operations, Histogram.Observe is one atomic
// bucket increment plus a CAS loop on the float sum, and vector lookups
// (CounterVec.With / HistogramVec.With) are an RLock-guarded map hit with
// a fixed-size array key — no allocation on the hit path. Registration
// (the only write-locked path) happens once at wiring time. The whole
// package is safe for concurrent use.
//
// # Naming
//
// Metric names follow the Prometheus conventions: `snake_case`, a
// `slotsel_` prefix for everything this repo exports, `_total` suffix on
// counters, base units (seconds, bytes) for histograms.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// MetricType is the exposition TYPE of one metric family.
type MetricType string

// The exposition types used by this package.
const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// maxLabels is the label-arity bound of vector metrics. Two labels cover
// every vector in the stack (endpoint x status, algorithm x found) and a
// fixed-size array key keeps the hot-path map lookup allocation-free.
const maxLabels = 2

// labelKey is the child key of a vector metric: unused positions stay "".
type labelKey [maxLabels]string

// family is one registered metric family: a name, its metadata, and either
// direct children (counters/gauges/histograms keyed by label values) or a
// sample function evaluated at scrape time.
type family struct {
	name   string
	help   string
	typ    MetricType
	labels []string // label names; empty for unlabelled metrics

	mu       sync.RWMutex
	counters map[labelKey]*Counter
	gauges   map[labelKey]*Gauge
	hists    map[labelKey]*Histogram
	bounds   []float64 // histogram bucket upper bounds

	// sampled, when non-nil, is evaluated at scrape time — the bridge for
	// values owned elsewhere (inventory.Status fields, queue depths).
	sampled func() float64
}

// Registry holds metric families and renders them as Prometheus text
// exposition. The zero value is not usable; construct with NewRegistry.
// All methods are safe for concurrent use, but registration methods
// (Counter, Gauge, ...) panic on a name registered twice with a different
// shape — duplicate registration is a wiring bug, not a runtime condition.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	onScrape []func()

	// scrapeMu serializes WriteText, so what an OnScrape hook stores is
	// read by its own scrape's sample functions only.
	scrapeMu sync.Mutex
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register installs a new family or returns the existing one when the
// shape matches exactly (same type, labels and histogram bounds) —
// re-registration with an identical shape is idempotent so independent
// subsystems can share a registry without coordinating.
func (r *Registry) register(f *family) *family {
	if !validName(f.name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", f.name))
	}
	for _, l := range f.labels {
		if !validName(l) {
			panic(fmt.Sprintf("telemetry: invalid label name %q on %s", l, f.name))
		}
	}
	if len(f.labels) > maxLabels {
		panic(fmt.Sprintf("telemetry: %s: at most %d labels supported", f.name, maxLabels))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.families[f.name]; ok {
		if prev.typ != f.typ || !equalStrings(prev.labels, f.labels) || !equalFloats(prev.bounds, f.bounds) {
			panic(fmt.Sprintf("telemetry: metric %s re-registered with a different shape", f.name))
		}
		return prev
	}
	r.families[f.name] = f
	return f
}

// Counter registers (or fetches) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(&family{name: name, help: help, typ: TypeCounter,
		counters: make(map[labelKey]*Counter)})
	return f.counter(labelKey{})
}

// CounterVec registers a labelled counter family (1 or 2 labels).
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic("telemetry: CounterVec needs at least one label (use Counter)")
	}
	f := r.register(&family{name: name, help: help, typ: TypeCounter,
		labels: labels, counters: make(map[labelKey]*Counter)})
	return &CounterVec{f: f}
}

// Gauge registers (or fetches) an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(&family{name: name, help: help, typ: TypeGauge,
		gauges: make(map[labelKey]*Gauge)})
	return f.gauge(labelKey{})
}

// Histogram registers an unlabelled fixed-bucket histogram. bounds are the
// bucket upper limits in increasing order (the implicit +Inf bucket is
// always added).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	f := r.register(&family{name: name, help: help, typ: TypeHistogram,
		bounds: checkBounds(bounds), hists: make(map[labelKey]*Histogram)})
	return f.histogram(labelKey{})
}

// HistogramVec registers a labelled histogram family (1 or 2 labels).
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if len(labels) == 0 {
		panic("telemetry: HistogramVec needs at least one label (use Histogram)")
	}
	f := r.register(&family{name: name, help: help, typ: TypeHistogram,
		labels: labels, bounds: checkBounds(bounds), hists: make(map[labelKey]*Histogram)})
	return &HistogramVec{f: f}
}

// SampledCounter registers a counter whose value is read from fn at scrape
// time — for monotonic totals owned elsewhere (inventory lifecycle
// counters). fn must be safe for concurrent use.
func (r *Registry) SampledCounter(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, typ: TypeCounter, sampled: fn})
}

// SampledGauge registers a gauge whose value is read from fn at scrape
// time — for instantaneous values owned elsewhere (free slots, queue
// depth). fn must be safe for concurrent use.
func (r *Registry) SampledGauge(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, typ: TypeGauge, sampled: fn})
}

// OnScrape registers fn to run at the start of every WriteText, before any
// sampled family is read. Scrapes are serialized, so a value fn stores for
// sample functions to read describes the scrape in progress: several
// families then report one reading of a source that is costly to read, or
// could change between two reads (the inventory Status).
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	r.onScrape = append(r.onScrape, fn)
	r.mu.Unlock()
}

// ---- family child access ----

func (f *family) counter(k labelKey) *Counter {
	f.mu.RLock()
	c := f.counters[k]
	f.mu.RUnlock()
	if c != nil {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c = f.counters[k]; c == nil {
		c = &Counter{}
		f.counters[k] = c
	}
	return c
}

func (f *family) gauge(k labelKey) *Gauge {
	f.mu.RLock()
	g := f.gauges[k]
	f.mu.RUnlock()
	if g != nil {
		return g
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if g = f.gauges[k]; g == nil {
		g = &Gauge{}
		f.gauges[k] = g
	}
	return g
}

func (f *family) histogram(k labelKey) *Histogram {
	f.mu.RLock()
	h := f.hists[k]
	f.mu.RUnlock()
	if h != nil {
		return h
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if h = f.hists[k]; h == nil {
		h = NewHistogram(f.bounds)
		f.hists[k] = h
	}
	return h
}

// CounterVec is a labelled counter family.
type CounterVec struct{ f *family }

// With1 returns the child counter of a one-label vector. Children are
// created on first use; the hit path is one RLock-guarded map lookup with no
// allocation.
func (v *CounterVec) With1(a string) *Counter {
	v.f.checkArity(1)
	return v.f.counter(labelKey{a})
}

// With2 is With1 for two-label vectors.
func (v *CounterVec) With2(a, b string) *Counter {
	v.f.checkArity(2)
	return v.f.counter(labelKey{a, b})
}

// HistogramVec is a labelled histogram family.
type HistogramVec struct{ f *family }

// With1 returns the child histogram of a one-label vector, created on first
// use.
func (v *HistogramVec) With1(a string) *Histogram {
	v.f.checkArity(1)
	return v.f.histogram(labelKey{a})
}

func (f *family) checkArity(n int) {
	if len(f.labels) != n {
		panic(fmt.Sprintf("telemetry: %s: got %d label values, want %d", f.name, n, len(f.labels)))
	}
}

// ---- exposition ----

// WriteText renders every registered family in the Prometheus text
// exposition format (version 0.0.4): `# HELP` and `# TYPE` comment lines
// followed by the samples, families sorted by name and children by label
// values, histograms rendered as cumulative `_bucket{le=...}` series plus
// `_sum` and `_count`.
func (r *Registry) WriteText(w io.Writer) error {
	r.scrapeMu.Lock()
	defer r.scrapeMu.Unlock()
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	hooks := r.onScrape
	r.mu.RUnlock()
	for _, fn := range hooks {
		fn()
	}

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		f.writeText(&b)
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) writeText(b *strings.Builder) {
	if f.help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
	if f.sampled != nil {
		fmt.Fprintf(b, "%s %s\n", f.name, formatFloat(f.sampled()))
		return
	}
	f.mu.RLock()
	keys := f.sortedKeysLocked()
	switch f.typ {
	case TypeCounter:
		for _, k := range keys {
			fmt.Fprintf(b, "%s%s %d\n", f.name, f.labelString(k, "", 0), f.counters[k].Value())
		}
	case TypeGauge:
		for _, k := range keys {
			fmt.Fprintf(b, "%s%s %d\n", f.name, f.labelString(k, "", 0), f.gauges[k].Value())
		}
	case TypeHistogram:
		for _, k := range keys {
			h := f.hists[k]
			cum := uint64(0)
			for i, bound := range h.bounds {
				cum += h.buckets[i].Load()
				fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, f.labelString(k, "le", bound), cum)
			}
			cum += h.buckets[len(h.bounds)].Load()
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, f.labelStringInf(k), cum)
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name, f.labelString(k, "", 0), formatFloat(h.Sum()))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name, f.labelString(k, "", 0), h.Count())
		}
	}
	f.mu.RUnlock()
}

// sortedKeysLocked returns the child keys in label-value order. Requires
// f.mu held (read or write).
func (f *family) sortedKeysLocked() []labelKey {
	var keys []labelKey
	switch f.typ {
	case TypeCounter:
		for k := range f.counters {
			keys = append(keys, k)
		}
	case TypeGauge:
		for k := range f.gauges {
			keys = append(keys, k)
		}
	case TypeHistogram:
		for k := range f.hists {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		for p := 0; p < maxLabels; p++ {
			if keys[i][p] != keys[j][p] {
				return keys[i][p] < keys[j][p]
			}
		}
		return false
	})
	return keys
}

// labelString renders the label block for one child, optionally appending
// an le label (histogram buckets). Empty for unlabelled children with no le.
func (f *family) labelString(k labelKey, leName string, le float64) string {
	if len(f.labels) == 0 && leName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, name := range f.labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(k[i]))
		b.WriteByte('"')
	}
	if leName != "" {
		if len(f.labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(leName)
		b.WriteString(`="`)
		b.WriteString(formatFloat(le))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func (f *family) labelStringInf(k labelKey) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, name := range f.labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(k[i]))
		b.WriteByte('"')
	}
	if len(f.labels) > 0 {
		b.WriteByte(',')
	}
	b.WriteString(`le="+Inf"}`)
	return b.String()
}

// ---- helpers ----

// validName checks the Prometheus metric/label name grammar:
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// formatFloat renders a float the way Prometheus expects: shortest
// round-trip representation, integral values without an exponent.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// escapeHelp escapes a help string: backslash and newline.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func checkBounds(bounds []float64) []float64 {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	out := make([]float64, len(bounds))
	copy(out, bounds)
	for i := 1; i < len(out); i++ {
		if out[i] <= out[i-1] {
			panic("telemetry: histogram bounds must be strictly increasing")
		}
	}
	return out
}
