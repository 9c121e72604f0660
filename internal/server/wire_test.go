package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"slotsel/internal/core"
	"slotsel/internal/inventory"
	"slotsel/internal/job"
	"slotsel/internal/testkit"
)

// serve runs one request through the handler, no network in between, and
// returns the recorded response.
func serve(h http.Handler, method, target, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	var rd io.Reader
	if method == http.MethodPost {
		rd = strings.NewReader(body)
	}
	h.ServeHTTP(rec, httptest.NewRequest(method, target, rd))
	return rec
}

func errorReply(msg string) string {
	q, _ := json.Marshal(msg)
	return "{\n  \"error\": " + string(q) + "\n}\n"
}

const (
	goldenRequest = `{"tasks":2,"volume":50,"max_cost":10000}`

	// goldenWatchQuery is {"tasks":2,"volume":50} as the request parameter.
	goldenWatchQuery = "/v1/watch?request=%7B%22tasks%22%3A2%2C%22volume%22%3A50%7D"

	// goldenWindowA is what the request finds on newTestServer's fresh
	// pool, goldenWindowB what it finds once A is committed — as a reply
	// carries them.
	goldenWindowA = `{
    "start": 0,
    "runtime": 12.5,
    "finish": 12.5,
    "cost": 22.5,
    "proc_time": 22.5,
    "placements": [
      {
        "node": 0,
        "start": 0,
        "exec": 10,
        "cost": 10
      },
      {
        "node": 1,
        "start": 0,
        "exec": 12.5,
        "cost": 12.5
      }
    ]
  }`
	goldenWindowB = `{
    "start": 10,
    "runtime": 16.666666666666668,
    "finish": 26.666666666666668,
    "cost": 26.666666666666668,
    "proc_time": 26.666666666666668,
    "placements": [
      {
        "node": 0,
        "start": 10,
        "exec": 10,
        "cost": 10
      },
      {
        "node": 2,
        "start": 10,
        "exec": 16.666666666666668,
        "cost": 16.666666666666668
      }
    ]
  }`
)

// TestErrorBodiesGolden pins status, Allow header and the exact body of
// every rejection, as captured from the commit before the one-pass request
// path (PR 21): whichever half decodes a body — the Scanner or
// encoding/json — a client sees the bytes it always saw.
func TestErrorBodiesGolden(t *testing.T) {
	type row struct {
		name, method, target, body string
		status                     int
		allow, want                string
	}
	var rows []row
	searchReq := func(rest string) string { return `{"request":` + goldenRequest + rest }
	for _, p := range []string{"/v1/find", "/v1/reserve"} {
		for _, r := range []row{
			{name: "empty body", body: ``, status: 400, want: "bad request body: EOF"},
			{name: "whitespace body", body: " \n", status: 400, want: "bad request body: EOF"},
			{name: "not json", body: `not json`, status: 400, want: "bad request body: invalid character 'o' in literal null (expecting 'u')"},
			{name: "truncated", body: `{"alg":`, status: 400, want: "bad request body: unexpected EOF"},
			{name: "missing colon", body: `{"alg" "amp"}`, status: 400, want: `bad request body: invalid character '"' after object key`},
			{name: "alg of wrong type", body: searchReq(`,"alg":5}`), status: 400, want: "bad request body: json: cannot unmarshal number into Go struct field searchBody.alg of type string"},
			{name: "ttl of wrong type", body: searchReq(`,"ttl_seconds":"60"}`), status: 400, want: "bad request body: json: cannot unmarshal string into Go struct field searchBody.ttl_seconds of type float64"},
			{name: "request of wrong type", body: `{"request":[1,2]}`, status: 400, want: "persist: decoding request: json: cannot unmarshal array into Go value of type persist.requestJSON"},
			{name: "request field of wrong type", body: `{"request":{"tasks":"2","volume":50}}`, status: 400, want: "persist: decoding request: json: cannot unmarshal string into Go struct field requestJSON.tasks of type int"},
			{name: "request field fractional", body: `{"request":{"tasks":2.5,"volume":50}}`, status: 400, want: "persist: decoding request: json: cannot unmarshal number 2.5 into Go struct field requestJSON.tasks of type int"},
			{name: "envelope error before request error", body: `{"request":{"tasks":"2"},"alg":5}`, status: 400, want: "bad request body: json: cannot unmarshal number into Go struct field searchBody.alg of type string"},
			{name: "trailing value", body: searchReq(`} {"second":1}`), status: 400, want: "trailing data after JSON body"},
			{name: "trailing garbage", body: searchReq(`}garbage`), status: 400, want: "trailing data after JSON body"},
			{name: "trailing brace", body: searchReq(`}}`), status: 400, want: "trailing data after JSON body"},
			{name: "over 1 MiB", body: `{"pad":"` + strings.Repeat("x", 1<<20) + `"}`, status: 413, want: "request body exceeds the 1048576-byte limit"},
			{name: "missing request", body: `{"alg":"amp"}`, status: 400, want: `missing "request" field`},
			{name: "empty object", body: `{}`, status: 400, want: `missing "request" field`},
			{name: "null request", body: `{"request":null}`, status: 400, want: "persist: invalid request: job: request needs a positive task count, got 0"},
			{name: "invalid request: tasks", body: `{"request":{"tasks":0,"volume":50}}`, status: 400, want: "persist: invalid request: job: request needs a positive task count, got 0"},
			{name: "invalid request: volume", body: `{"request":{"tasks":2,"volume":-1}}`, status: 400, want: "persist: invalid request: job: request needs a positive volume, got -1"},
			{name: "unknown alg", body: searchReq(`,"alg":"nope"}`), status: 400, want: `slotsel: unknown algorithm "nope"`},
			{name: "unknown alg, html escaped", body: searchReq(`,"alg":"<b>&"}`), status: 400, want: `slotsel: unknown algorithm "<b>&"`},
			{name: "unknown csa", body: searchReq(`,"csa":"vibes"}`), status: 400, want: `unknown CSA criterion "vibes"`},
			{name: "negative ttl", body: searchReq(`,"ttl_seconds":-1}`), status: 400, want: "ttl_seconds must be >= 0"},
			{name: "no window", body: `{"request":{"tasks":50,"volume":10}}`, status: 404, want: "no feasible window"},
			{name: "wrong method", method: http.MethodGet, status: 405, allow: "POST", want: "use POST"},
		} {
			r.target = p
			rows = append(rows, r)
		}
	}
	for _, p := range []string{"/v1/commit", "/v1/release"} {
		for _, r := range []row{
			{name: "empty body", body: ``, status: 400, want: "bad request body: EOF"},
			{name: "not json", body: `garbage`, status: 400, want: "bad request body: invalid character 'g' looking for beginning of value"},
			{name: "id of wrong type", body: `{"id":7}`, status: 400, want: "bad request body: json: cannot unmarshal number into Go struct field idBody.id of type string"},
			{name: "trailing garbage", body: `{"id":"r1"}garbage`, status: 400, want: "trailing data after JSON body"},
			{name: "trailing whitespace, unknown id", body: "{\"id\":\"r99999999\"} \n\t", status: 404, want: "inventory: unknown, expired or already settled reservation"},
			{name: "escaped id, unknown", body: `{"id":"r1<"}`, status: 404, want: "inventory: unknown, expired or already settled reservation"},
			{name: "over 1 MiB", body: `{"id":"` + strings.Repeat("x", 1<<20) + `"}`, status: 413, want: "request body exceeds the 1048576-byte limit"},
			{name: "missing id", body: `{}`, status: 400, want: `missing "id" field`},
			{name: "null id", body: `{"id":null}`, status: 400, want: `missing "id" field`},
			{name: "wrong method", method: http.MethodGet, status: 405, allow: "POST", want: "use POST"},
		} {
			r.target = p
			rows = append(rows, r)
		}
	}
	found := "{\n  \"version\": 1,\n  \"window\": " + goldenWindowA + "\n}\n"
	rows = append(rows,
		row{name: "trailing whitespace accepted", target: "/v1/find", body: searchReq("}\n \t"), status: 200, want: found},
		row{name: "spaced body accepted", target: "/v1/find", body: "{ \"alg\" : \"amp\" ,\n \"request\" : " + goldenRequest + " }", status: 200, want: found},
		row{name: "case-folded keys accepted", target: "/v1/find", body: `{"REQUEST":{"Tasks":2,"VOLUME":50},"Alg":"AMP"}`, status: 200, want: found},
		row{name: "duplicate keys: last wins", target: "/v1/find", body: `{"alg":"nope","request":{"tasks":0},"request":` + goldenRequest + `,"alg":"amp"}`, status: 200, want: found},
		row{name: "unknown keys ignored", target: "/v1/find", body: searchReq(`,"note":{"a":[1,null]}}`), status: 200, want: found},
		row{name: "post to slots", target: "/v1/slots", body: `{}`, status: 405, allow: "GET", want: "use GET"},
		row{name: "post to statusz", target: "/v1/statusz", body: `{}`, status: 405, allow: "GET", want: "use GET"},
		row{name: "post to watch", target: "/v1/watch", body: `{}`, status: 405, allow: "GET", want: "use GET"},
		row{name: "watch without request", method: http.MethodGet, target: "/v1/watch", status: 400, want: `missing "request" query parameter`},
		row{name: "watch with bad request", method: http.MethodGet, target: "/v1/watch?request=%7B%22tasks%22%3A%22x%22%7D", status: 400, want: "persist: decoding request: json: cannot unmarshal string into Go struct field requestJSON.tasks of type int"},
		row{name: "watch with bad timeout", method: http.MethodGet, target: goldenWatchQuery + "&timeout_seconds=-1", status: 400, want: "timeout_seconds must be a positive number"},
		row{name: "unknown path", method: http.MethodGet, target: "/v1/nope", status: 404, want: "404 page not found\n"},
	)

	srv, _, _ := newTestServer(t, Options{})
	check := func(h http.Handler, r row) {
		t.Helper()
		if r.method == "" {
			r.method = http.MethodPost
		}
		if r.status != 200 && r.name != "unknown path" {
			r.want = errorReply(r.want)
		}
		rec := serve(h, r.method, r.target, r.body)
		if rec.Code != r.status || rec.Header().Get("Allow") != r.allow || rec.Body.String() != r.want {
			t.Errorf("%s %s, %s: got %d, Allow %q, body %q\nwant %d, Allow %q, body %q",
				r.method, r.target, r.name, rec.Code, rec.Header().Get("Allow"), rec.Body.String(), r.status, r.allow, r.want)
		}
	}
	for _, r := range rows {
		check(srv, r)
	}
}

var (
	expiresRE = regexp.MustCompile(`"expires": "[0-9T:.Z-]+"`)
	versionRE = regexp.MustCompile(`"version": [0-9]+`)
)

// TestReplyBodiesGolden pins every success reply, also from the commit
// before the one-pass request path: key order, indentation, the window as
// persist renders it, the final newline. Expiry times always differ and
// snapshot versions differ with the shard count, so both are masked.
func TestReplyBodiesGolden(t *testing.T) {
	srv, _, _ := newTestServer(t, Options{})
	search := `{"request":` + goldenRequest
	found := func(win string) string { return "{\n  \"version\": N,\n  \"window\": " + win + "\n}\n" }
	held := func(id, win string) string {
		return "{\n  \"expires\": T,\n  \"id\": \"" + id + "\",\n  \"version\": N,\n  \"window\": " + win + "\n}\n"
	}
	for _, step := range []struct {
		method, target, body string
		status               int
		want                 string
	}{
		{"POST", "/v1/find", search + `}`, 200, found(goldenWindowA)},              // miss
		{"POST", "/v1/find", search + `}`, 200, found(goldenWindowA)},              // hit
		{"POST", "/v1/find", search + `,"csa":"cost"}`, 200, found(goldenWindowA)}, // CSA
		{"GET", goldenWatchQuery, ``, 200, found(goldenWindowA)},                   // watch
		{"POST", "/v1/reserve", search + `,"ttl_seconds":60}`, 200, held("r00000001", goldenWindowA)},
		{"POST", "/v1/commit", `{"id":"r00000001"}`, 200, "{\n  \"id\": \"r00000001\",\n  \"window\": " + goldenWindowA + "\n}\n"},
		{"POST", "/v1/commit", `{"id":"r00000001"}`, 404, errorReply("inventory: unknown, expired or already settled reservation")},
		{"POST", "/v1/reserve", search + `,"csa":"finish"}`, 200, held("r00000002", goldenWindowB)},
		{"POST", "/v1/release", `{"id":"r00000002"}`, 200, "{\n  \"id\": \"r00000002\",\n  \"released\": true\n}\n"},
		{"POST", "/v1/find", search + `}`, 200, found(goldenWindowB)}, // invalidated, searched again
	} {
		rec := serve(srv, step.method, step.target, step.body)
		got := expiresRE.ReplaceAllString(rec.Body.String(), `"expires": T`)
		got = versionRE.ReplaceAllString(got, `"version": N`)
		if rec.Code != step.status || got != step.want {
			t.Fatalf("%s %s %s: got %d %s\nwant %d %s", step.method, step.target, step.body, rec.Code, got, step.status, step.want)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: Content-Type %q", step.method, step.target, ct)
		}
	}
}

// nanPool answers every search with a window whose cost is NaN — the
// handler-level seam (inventory.Pool) through which an unencodable window
// reaches each reply path.
type nanPool struct {
	inventory.Pool
}

func nanWindow() *core.Window {
	slot := testkit.Slot(testkit.Node(0, 5, 1), 0, 200)
	w := core.NewWindow(0, []core.Candidate{{Slot: slot, Exec: 10, Cost: math.NaN()}})
	return w
}

func (p nanPool) Snapshot() *inventory.Snapshot {
	// A NaN price makes every candidate's cost NaN, and NaN never exceeds
	// a budget, so the search itself succeeds.
	return &inventory.Snapshot{Version: 7, Slots: testkit.SlotList(
		testkit.Slot(testkit.Node(0, 5, math.NaN()), 0, 200),
		testkit.Slot(testkit.Node(1, 4, math.NaN()), 0, 200),
	)}
}

func (p nanPool) Reserve(*job.Request, core.Algorithm, time.Duration) (*inventory.Reservation, error) {
	return &inventory.Reservation{ID: "r00000001", Window: nanWindow(), Version: 7, Expires: time.Now()}, nil
}

func (p nanPool) Commit(string) (*core.Window, error) { return nanWindow(), nil }

// TestUnencodableWindowAnswers500: a window persist cannot encode used to
// be answered 200 with "window": null. It is the server's failure, so
// every path that carries a window now answers 500 with an error body and
// nothing of the reply it had begun.
func TestUnencodableWindowAnswers500(t *testing.T) {
	for _, cacheSize := range []int{0, -1} {
		_, _, pool := newTestServer(t, Options{})
		srv := New(nanPool{pool}, Options{FindCacheSize: cacheSize})
		for _, step := range [][3]string{
			{"POST", "/v1/find", `{"request":{"tasks":2,"volume":50}}`},
			{"POST", "/v1/find", `{"request":{"tasks":2,"volume":50}}`}, // a hit: the entry's first encode fails too
			{"POST", "/v1/find", `{"request":{"tasks":2,"volume":50}}`},
			{"GET", goldenWatchQuery, ``},
			{"POST", "/v1/reserve", `{"request":{"tasks":2,"volume":50}}`},
			{"POST", "/v1/commit", `{"id":"r00000001"}`},
		} {
			rec := serve(srv, step[0], step[1], step[2])
			var body map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatalf("%s (cache %d): body %q: %v", step[1], cacheSize, rec.Body, err)
			}
			if rec.Code != http.StatusInternalServerError || !strings.Contains(body["error"], "NaN") || len(body) != 1 {
				t.Errorf("%s (cache %d): got %d %q, want 500 and only an error naming the NaN", step[1], cacheSize, rec.Code, rec.Body)
			}
		}
	}
}

// jsonSearchBody is the encoding/json half alone.
func jsonSearchBody(data []byte) (searchBody, bool) {
	sc := &reqScope{ResponseWriter: httptest.NewRecorder()}
	sc.in.Write(data)
	return decodeJSON[searchBody](sc)
}

// checkSearchBodyScan holds the Scanner half of the search body decode to
// the encoding/json half: whatever it takes, encoding/json takes too and
// reads the same — fields, request and the request's error.
func checkSearchBodyScan(t testing.TB, data []byte) (scanned bool) {
	t.Helper()
	var got searchBody
	if !got.scan(data) {
		return false
	}
	want, ok := jsonSearchBody(data)
	if !ok {
		t.Fatalf("the Scanner took %q, encoding/json rejects it", data)
	}
	gotErr, wantErr := got.Request.err, want.Request.err
	got.Request.err, want.Request.err = nil, nil
	if !reflect.DeepEqual(got, want) || (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%q: the Scanner read %+v (%v), encoding/json %+v (%v)", data, got, gotErr, want, wantErr)
	}
	return true
}

func TestSearchBodyScanMatchesEncodingJSON(t *testing.T) {
	for _, tc := range []struct {
		in      string
		scanned bool
	}{
		{`{"request":` + goldenRequest + `,"alg":"amp"}`, true}, // what benchmark/ and slotlab send
		{`{"request":` + goldenRequest + `}`, true},
		{`{"alg":"mincost","csa":"cost","ttl_seconds":2.5,"request":` + goldenRequest + `}` + "\n", true},
		{`{"request":{"tasks":0}}`, true}, // scanned; the request's error is kept
		{`{}`, true},
		{`{"alg":"amp"}`, true},
		{`{"request":null}`, false},
		{`{"request":` + goldenRequest + `,"ttl_seconds":1e999}`, false},
		{`{"request":` + goldenRequest + `,"extra":1}`, false},
		{`{"request":` + goldenRequest + `} x`, false},
		{`[]`, false},
		{``, false},
	} {
		if got := checkSearchBodyScan(t, []byte(tc.in)); got != tc.scanned {
			t.Errorf("%q: taken by the Scanner = %v, want %v", tc.in, got, tc.scanned)
		}
	}
}

func FuzzSearchBodyScan(f *testing.F) {
	f.Add([]byte(`{"request":` + goldenRequest + `,"alg":"amp"}`))
	f.Add([]byte(`{"csa":"cost","ttl_seconds":60,"request":{"tasks":1,"volume":1e1,"os":["linux"]}}`))
	f.Add([]byte(`{"request":{"tasks":0},"alg":""}`))
	f.Add([]byte(`{"alg":"alp","request":{"tasks":0},"request":{"tasks":1,"volume":2},"alg":"amp"}`))
	f.Fuzz(func(t *testing.T, data []byte) { checkSearchBodyScan(t, data) })
}

// stubWriter is a reusable http.ResponseWriter: its header map is cleared,
// not reallocated, between requests, as net/http's own is fresh per
// request at net/http's expense.
type stubWriter struct {
	header http.Header
	code   int
	body   []byte
}

func (w *stubWriter) Header() http.Header  { return w.header }
func (w *stubWriter) WriteHeader(code int) { w.code = code }
func (w *stubWriter) Write(b []byte) (int, error) {
	w.body = append(w.body[:0], b...)
	return len(b), nil
}

// resettableBody is a request body the test rewinds instead of replacing.
type resettableBody struct{ bytes.Reader }

func (*resettableBody) Close() error { return nil }

// TestServeFindHitAllocs is the allocation gate on the request the claim
// of this path lives on: ServeHTTP for a /v1/find cache hit, everything
// outside the server (connection, net/http's request and header parsing)
// stubbed out. The residual, each named:
//
//  1. the trace ID string (reqlog.NewTraceID),
//  2. the X-Trace-Id header's value slice (Header.Set),
//  3. http.MaxBytesReader's reader,
//  4. the job.Request the body decodes to,
//  5. the "amp" string of the body's alg field.
//
// The stub's header map keeps its buckets; on a real connection the first
// insert into net/http's fresh map is a sixth. Nothing else may allocate:
// not the scope, the buffers, the search inputs, the cache lookup or the
// reply.
func TestServeFindHitAllocs(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	srv, _, _ := newTestServer(t, Options{})
	payload := []byte(`{"request":` + goldenRequest + `,"alg":"amp"}`)
	body := &resettableBody{}
	req := httptest.NewRequest(http.MethodPost, "/v1/find", nil)
	req.Body = body
	w := &stubWriter{header: make(http.Header)}
	run := func() {
		body.Reset(payload)
		clear(w.header)
		srv.ServeHTTP(w, req)
	}
	run() // the miss that fills the cache
	want := "{\n  \"version\": 1,\n  \"window\": " + goldenWindowA + "\n}\n"
	if n := testing.AllocsPerRun(200, run); n != 5 {
		t.Errorf("ServeHTTP on a find hit: %v allocs/op, want 5 (see the list above)", n)
	}
	if w.code != http.StatusOK || string(w.body) != want {
		t.Fatalf("find hit answered %d %s", w.code, w.body)
	}
	if st := srv.cache.Stats(); st.Misses != 1 || st.Hits < 200 {
		t.Fatalf("the measured requests were not hits: %+v", st)
	}
}

// TestDecodeFindBodyAllocs: decoding a find body costs the request it
// yields and its alg string; the scope supplies the buffer and the
// searchInputs.
func TestDecodeFindBodyAllocs(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	sc := acquireScope(&stubWriter{header: make(http.Header)}, time.Hour)
	defer releaseScope(sc)
	sc.in.WriteString(`{"request":` + goldenRequest + `,"alg":"amp"}`)
	if n := testing.AllocsPerRun(200, func() {
		body, ok := sc.decodeSearchBody()
		if !ok || body.Request.err != nil {
			t.Fatal("body not decoded")
		}
		if _, ok := resolveSearch(sc, body.Request.req, body.Alg, body.CSA); !ok {
			t.Fatal("search not resolved")
		}
	}); n != 2 {
		t.Errorf("decoding a find body: %v allocs/op, want 2 (the job.Request and the alg string)", n)
	}
}
