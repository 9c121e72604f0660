package slotlab

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"slotsel/internal/job"
	"slotsel/internal/metrics"
	"slotsel/internal/persist"
	"slotsel/internal/telemetry"
)

// Client drives one slotserve instance over real HTTP, recording every
// observation (latency, status code, protocol conformance) into a shared
// Recorder. All methods are safe for concurrent use by scenario workers.
type Client struct {
	base string
	hc   *http.Client
	rec  *Recorder

	// stall, when positive, makes every POST a slow upload: the body
	// arrives in two parts this far apart (see Params.BodyStall).
	stall time.Duration
}

// NewClient builds a client for the service at base (e.g.
// "http://127.0.0.1:NNNN"). The HTTP timeout is a backstop well above the
// server's own per-request deadline: a hit means the server stopped
// answering, which the recorder counts as a transport error.
func NewClient(base string, rec *Recorder) *Client {
	return &Client{
		base: base,
		hc:   &http.Client{Timeout: 30 * time.Second},
		rec:  rec,
	}
}

// allowedStatuses is the per-operation conformance contract: any response
// outside this set is an invariant violation (the server answered, but
// with a status the API does not define for that path).
var allowedStatuses = map[string]map[int]bool{
	opFind:     {200: true, 404: true, 429: true, 503: true},
	opReserve:  {200: true, 404: true, 409: true, 429: true, 503: true},
	opCommit:   {200: true, 404: true, 429: true, 503: true},
	opRelease:  {200: true, 404: true, 429: true, 503: true},
	opStatusz:  {200: true, 429: true, 503: true},
	opMetricsz: {200: true, 429: true, 503: true},
}

// Operation names used as recorder keys and report sections.
const (
	opFind     = "find"
	opReserve  = "reserve"
	opCommit   = "commit"
	opRelease  = "release"
	opStatusz  = "statusz"
	opMetricsz = "metricsz"
)

// ReserveResult is the parsed outcome of one reserve call.
type ReserveResult struct {
	Code   int
	ID     string
	Finish float64 // window finish time (slot-timeline units), 200s only
}

// Reserve searches and holds a window for req using the named algorithm
// ("" = server default). A 200 response on a deadline-carrying request
// whose window finishes after the deadline is recorded as a deadline
// violation — the Buyya-farm conformance check.
func (c *Client) Reserve(req *job.Request, alg string, ttlSeconds float64) ReserveResult {
	body := map[string]any{"request": requestRaw(req)}
	if alg != "" {
		body["alg"] = alg
	}
	if ttlSeconds > 0 {
		body["ttl_seconds"] = ttlSeconds
	}
	var out struct {
		ID     string `json:"id"`
		Window struct {
			Finish float64 `json:"finish"`
		} `json:"window"`
	}
	code := c.post(opReserve, "/v1/reserve", body, &out)
	res := ReserveResult{Code: code, ID: out.ID, Finish: out.Window.Finish}
	if code == http.StatusOK && req.Deadline > 0 && res.Finish > req.Deadline+1e-9 {
		c.rec.deadlineViolation()
	}
	return res
}

// Find runs the stateless search.
func (c *Client) Find(req *job.Request, alg string) int {
	body := map[string]any{"request": requestRaw(req)}
	if alg != "" {
		body["alg"] = alg
	}
	return c.post(opFind, "/v1/find", body, nil)
}

// Commit settles a hold.
func (c *Client) Commit(id string) int {
	return c.post(opCommit, "/v1/commit", map[string]any{"id": id}, nil)
}

// Release cancels a hold.
func (c *Client) Release(id string) int {
	return c.post(opRelease, "/v1/release", map[string]any{"id": id}, nil)
}

// Statusz fetches /v1/statusz and returns its numeric leaves flattened to
// dotted keys ("server.shed", "inventory.counters.commits", ...), the form
// the report's counter-delta section diffs.
func (c *Client) Statusz() (map[string]float64, error) {
	start := time.Now()
	resp, err := c.hc.Get(c.base + "/v1/statusz")
	if err != nil {
		c.rec.transportError(opStatusz)
		return nil, err
	}
	defer resp.Body.Close()
	c.observe(opStatusz, resp, start)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("statusz: HTTP %d", resp.StatusCode)
	}
	var tree map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&tree); err != nil {
		return nil, fmt.Errorf("statusz: %w", err)
	}
	flat := make(map[string]float64)
	flattenNumbers("", tree, flat)
	return flat, nil
}

// Metricsz scrapes GET /metricsz and returns the parsed exposition keyed
// the way telemetry.ParseExposition keys it (`name{labels}`). A malformed
// exposition is an error: the scrape doubles as the report's
// well-formedness gate.
func (c *Client) Metricsz() (map[string]float64, error) {
	start := time.Now()
	resp, err := c.hc.Get(c.base + "/metricsz")
	if err != nil {
		c.rec.transportError(opMetricsz)
		return nil, err
	}
	defer resp.Body.Close()
	c.observe(opMetricsz, resp, start)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metricsz: HTTP %d", resp.StatusCode)
	}
	got, err := telemetry.ParseExposition(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("metricsz: malformed exposition: %w", err)
	}
	return got, nil
}

// post issues one JSON POST, recording latency/status, and decodes a 200
// body into out (when non-nil). Returns the status code, 0 on transport
// failure.
func (c *Client) post(op, path string, body, out any) int {
	payload, err := json.Marshal(body)
	if err != nil {
		c.rec.transportError(op)
		return 0
	}
	start := time.Now()
	var rd io.Reader = bytes.NewReader(payload)
	if c.stall > 0 {
		rd = &stalledBody{rest: payload, stall: c.stall}
	}
	resp, err := c.hc.Post(c.base+path, "application/json", rd)
	if err != nil {
		c.rec.transportError(op)
		return 0
	}
	defer resp.Body.Close()
	c.observe(op, resp, start)
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			c.rec.transportError(op)
			return resp.StatusCode
		}
	} else {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	}
	return resp.StatusCode
}

// stalledBody is a request body on a slow uplink: everything but the last
// byte arrives at once, the last byte after the stall.
type stalledBody struct {
	rest  []byte
	stall time.Duration
}

func (b *stalledBody) Read(p []byte) (int, error) {
	switch len(b.rest) {
	case 0:
		return 0, io.EOF
	case 1:
		time.Sleep(b.stall)
	}
	n := copy(p, b.rest[:max(1, len(b.rest)-1)])
	b.rest = b.rest[n:]
	return n, nil
}

func (c *Client) observe(op string, resp *http.Response, start time.Time) {
	lat := time.Since(start)
	if resp.StatusCode == http.StatusTooManyRequests {
		c.rec.checkRetryAfter(resp.Header.Get("Retry-After"))
	}
	c.rec.observe(op, resp.StatusCode, lat, allowedStatuses[op][resp.StatusCode])
}

func requestRaw(req *job.Request) json.RawMessage {
	var buf bytes.Buffer
	if err := persist.WriteRequest(&buf, req); err != nil {
		return json.RawMessage(`null`)
	}
	return json.RawMessage(bytes.TrimSpace(buf.Bytes()))
}

// flattenNumbers walks a decoded JSON tree collecting numeric leaves under
// dotted keys.
func flattenNumbers(prefix string, v any, out map[string]float64) {
	switch t := v.(type) {
	case map[string]any:
		for k, sub := range t {
			key := k
			if prefix != "" {
				key = prefix + "." + k
			}
			flattenNumbers(key, sub, out)
		}
	case float64:
		out[prefix] = t
	}
}

// Recorder accumulates everything the scenario run observed. One Recorder
// backs one scenario; workers share it through the Client.
type Recorder struct {
	mu sync.Mutex

	lat    map[string]*metrics.Sample      // per-op latency reservoirs (ms)
	hist   map[string]*telemetry.Histogram // per-op latency histograms (ms, shared telemetry layout)
	search *metrics.Sample                 // find+reserve combined: the SLO path
	status map[string]map[int]int          // op -> status code -> count

	transport  map[string]int // transport failures per op
	unexpected int            // responses outside the allowed status set
	badRetry   int            // 429s with a missing/invalid Retry-After
	deadlines  int            // 200 windows finishing past their deadline
}

// latReservoir bounds each latency sample; quantiles over 4096 retained
// points have negligible rank error at the p50/p99 grain the SLOs use.
const latReservoir = 4096

// The report's latency histograms use the shared telemetry bucket layout
// (telemetry.LatencyBucketsMs: 40 x 25ms, le-inclusive, +Inf overflow) —
// the very layout /metricsz exposes in seconds, so the harness-side and
// server-side distributions are bucket-for-bucket comparable and the two
// renderings cannot drift.

// NewRecorder builds an empty recorder. seed fixes the reservoir
// subsampling so identical runs retain identical samples.
func NewRecorder(seed uint64) *Recorder {
	return &Recorder{
		lat:       make(map[string]*metrics.Sample),
		hist:      make(map[string]*telemetry.Histogram),
		search:    metrics.NewReservoir(latReservoir, seed),
		status:    make(map[string]map[int]int),
		transport: make(map[string]int),
	}
}

func (r *Recorder) observe(op string, code int, lat time.Duration, allowed bool) {
	ms := float64(lat) / float64(time.Millisecond)
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lat[op]
	if s == nil {
		s = metrics.NewReservoir(latReservoir, uint64(len(r.lat))+1)
		r.lat[op] = s
		r.hist[op] = telemetry.NewHistogram(telemetry.LatencyBucketsMs())
	}
	s.Add(ms)
	r.hist[op].Observe(ms)
	if op == opFind || op == opReserve {
		r.search.Add(ms)
	}
	byCode := r.status[op]
	if byCode == nil {
		byCode = make(map[int]int)
		r.status[op] = byCode
	}
	byCode[code]++
	if !allowed {
		r.unexpected++
	}
}

func (r *Recorder) transportError(op string) {
	r.mu.Lock()
	r.transport[op]++
	r.mu.Unlock()
}

func (r *Recorder) deadlineViolation() {
	r.mu.Lock()
	r.deadlines++
	r.mu.Unlock()
}

// checkRetryAfter validates the shed-path contract: Retry-After must parse
// as an integer number of seconds in [1, 30].
func (r *Recorder) checkRetryAfter(header string) {
	n, err := strconv.Atoi(header)
	if err != nil || n < 1 || n > 30 {
		r.mu.Lock()
		r.badRetry++
		r.mu.Unlock()
	}
}

// Totals returns the overall response count and the count of responses
// with one of the given statuses.
func (r *Recorder) Totals(statuses ...int) (total, matching int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, byCode := range r.status {
		for code, n := range byCode {
			total += n
			for _, want := range statuses {
				if code == want {
					matching += n
				}
			}
		}
	}
	return total, matching
}

// TransportErrors returns the total transport-failure count.
func (r *Recorder) TransportErrors() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, c := range r.transport {
		n += c
	}
	return n
}

// ops returns the recorded operation names, sorted.
func (r *Recorder) opNames() []string {
	names := make([]string, 0, len(r.lat))
	for op := range r.lat {
		names = append(names, op)
	}
	sort.Strings(names)
	return names
}
