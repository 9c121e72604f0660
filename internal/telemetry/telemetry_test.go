package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeExposition(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_ops_total", "Ops.")
	c.Add(41)
	c.Inc()
	g := reg.Gauge("test_depth", "Depth.")
	g.Set(7)
	g.Add(-2)

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP test_ops_total Ops.\n",
		"# TYPE test_ops_total counter\n",
		"test_ops_total 42\n",
		"# TYPE test_depth gauge\n",
		"test_depth 5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestCounterVecExpositionSortedAndEscaped(t *testing.T) {
	reg := NewRegistry()
	v := reg.CounterVec("test_req_total", "Requests.", "path", "status")
	v.With("/v1/find", "200").Add(3)
	v.With("/v1/find", "404").Inc()
	v.With(`/odd"path`, "200").Inc()

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	wantOrder := []string{
		`test_req_total{path="/odd\"path",status="200"} 1`,
		`test_req_total{path="/v1/find",status="200"} 3`,
		`test_req_total{path="/v1/find",status="404"} 1`,
	}
	last := -1
	for _, w := range wantOrder {
		i := strings.Index(out, w)
		if i < 0 {
			t.Fatalf("exposition missing %q:\n%s", w, out)
		}
		if i < last {
			t.Errorf("series %q out of sorted order", w)
		}
		last = i
	}
}

func TestHistogramSemantics(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 100} {
		h.Observe(v)
	}
	// le is inclusive: 1 lands in the le=1 bucket, 2 in le=2.
	want := []uint64{2, 2, 1, 1}
	got := h.BucketCounts()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d: got %d want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 6 {
		t.Errorf("count: got %d want 6", h.Count())
	}
	if h.Sum() != 108 {
		t.Errorf("sum: got %g want 108", h.Sum())
	}
}

func TestHistogramExpositionCumulative(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("test_lat_seconds", "Latency.", []float64{0.1, 0.5})
	h.Observe(0.05)
	h.Observe(0.3)
	h.Observe(2)

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`test_lat_seconds_bucket{le="0.1"} 1`,
		`test_lat_seconds_bucket{le="0.5"} 2`,
		`test_lat_seconds_bucket{le="+Inf"} 3`,
		`test_lat_seconds_sum 2.35`,
		`test_lat_seconds_count 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestSampledMetrics(t *testing.T) {
	reg := NewRegistry()
	v := 3.0
	reg.SampledGauge("test_free", "Free.", func() float64 { return v })
	reg.SampledCounter("test_commits_total", "Commits.", func() float64 { return 9 })

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "test_free 3\n") || !strings.Contains(b.String(), "test_commits_total 9\n") {
		t.Fatalf("sampled metrics missing:\n%s", b.String())
	}
	v = 4
	b.Reset()
	reg.WriteText(&b)
	if !strings.Contains(b.String(), "test_free 4\n") {
		t.Fatalf("sampled gauge not re-evaluated at scrape time:\n%s", b.String())
	}
}

func TestDuplicateRegistration(t *testing.T) {
	reg := NewRegistry()
	c1 := reg.Counter("test_total", "x")
	c2 := reg.Counter("test_total", "x") // identical shape: idempotent
	if c1 != c2 {
		t.Error("identical re-registration should return the same counter")
	}
	defer func() {
		if recover() == nil {
			t.Error("re-registration with a different shape should panic")
		}
	}()
	reg.Gauge("test_total", "x")
}

func TestInvalidNamePanics(t *testing.T) {
	reg := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("invalid metric name should panic")
		}
	}()
	reg.Counter("bad-name", "x")
}

// TestExpositionParsesRoundTrip holds the writer to its own parser — the
// well-formedness contract the slotlab gate and the CI scrape rely on.
func TestExpositionParsesRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test_a_total", "A.").Add(5)
	reg.Gauge("test_b", "B.").Set(-3)
	v := reg.CounterVec("test_c_total", "C.", "path", "status")
	v.With("/v1/find", "200").Add(2)
	h := reg.HistogramVec("test_d_seconds", "D.", LatencyBucketsSeconds(), "path")
	h.With("/v1/reserve").Observe(0.04)
	reg.SampledGauge("test_e", "E.", func() float64 { return 1.5 })

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	got, err := ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("own exposition failed to parse: %v\n%s", err, b.String())
	}
	for key, want := range map[string]float64{
		"test_a_total": 5,
		"test_b":       -3,
		`test_c_total{path="/v1/find",status="200"}`:          2,
		`test_d_seconds_bucket{le="0.05",path="/v1/reserve"}`: 1,
		`test_d_seconds_count{path="/v1/reserve"}`:            1,
		"test_e": 1.5,
	} {
		if got[key] != want {
			t.Errorf("%s: got %g want %g", key, got[key], want)
		}
	}
}

func TestParseExpositionRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"no_value_here\n",
		"bad-name 1\n",
		"dup 1\ndup 2\n",
		`unbalanced{a="b" 1` + "\n",
		`badlabel{a=b} 1` + "\n",
		"name 1 2 3\n",
		"name abc\n",
	} {
		if _, err := ParseExposition(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseExposition accepted malformed input %q", bad)
		}
	}
}

func TestLatencyBucketLayoutsAgree(t *testing.T) {
	sec, ms := LatencyBucketsSeconds(), LatencyBucketsMs()
	if len(sec) != len(ms) {
		t.Fatalf("layouts differ in length: %d vs %d", len(sec), len(ms))
	}
	for i := range sec {
		if diff := sec[i]*1000 - ms[i]; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("bucket %d: %g s vs %g ms", i, sec[i], ms[i])
		}
	}
	if ms[len(ms)-1] != 1000 {
		t.Errorf("last bucket: got %g ms, want 1000", ms[len(ms)-1])
	}
}

// TestConcurrentUse exercises every mutation path against concurrent
// scrapes; run under -race this is the registry's thread-safety proof.
func TestConcurrentUse(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_ops_total", "x")
	g := reg.Gauge("test_gauge", "x")
	vec := reg.CounterVec("test_vec_total", "x", "k")
	h := reg.Histogram("test_hist", "x", []float64{1, 2, 3})
	reg.SampledGauge("test_sampled", "x", func() float64 { return 1 })

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			keys := []string{"a", "b", "c"}
			for i := 0; i < 2000; i++ {
				c.Inc()
				g.Add(1)
				g.SetMax(int64(i))
				vec.With(keys[i%3]).Inc()
				h.Observe(float64(i % 5))
			}
		}(w)
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var b strings.Builder
				if err := reg.WriteText(&b); err != nil {
					t.Error(err)
					return
				}
				if _, err := ParseExposition(strings.NewReader(b.String())); err != nil {
					t.Errorf("mid-flight exposition malformed: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.Value() != 16000 {
		t.Errorf("counter: got %d want 16000", c.Value())
	}
	if h.Count() != 16000 {
		t.Errorf("histogram count: got %d want 16000", h.Count())
	}
}
