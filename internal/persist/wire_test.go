package persist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"slotsel/internal/core"
	"slotsel/internal/job"
	"slotsel/internal/nodes"
	"slotsel/internal/slots"
	"slotsel/internal/testkit"
)

// referenceWindow is the rendering AppendWindow replaced, kept here as the
// oracle: windowJSON through an indenting encoding/json Encoder.
func referenceWindow(win *core.Window) ([]byte, error) {
	out := windowJSON{
		Start: win.Start, Runtime: win.Runtime, Finish: win.Finish(),
		Cost: win.Cost, ProcTime: win.ProcTime,
	}
	for _, p := range win.Placements {
		out.Placements = append(out.Placements, placementJSON{
			Node: p.Node().ID, Start: p.Start, Exec: p.Exec, Cost: p.Cost,
		})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(out)
	return buf.Bytes(), err
}

// referenceNested is the service's former reply pipeline: the document
// trimmed, wrapped as a RawMessage in a map and indented a second time.
func referenceNested(doc []byte) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(map[string]any{"window": json.RawMessage(bytes.TrimSpace(doc))}); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// checkWindow compares AppendWindow with the oracle at depth 0 (a document
// of its own, as slotfind -json prints it) and depth 1 (inside a reply).
func checkWindow(t testing.TB, win *core.Window) {
	t.Helper()
	want, wantErr := referenceWindow(win)
	prefix := []byte("kept")
	got, err := AppendWindow(prefix, win, 0)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("AppendWindow error %v, encoding/json error %v", err, wantErr)
	}
	if err != nil {
		if string(got) != "kept" {
			t.Fatalf("failed AppendWindow returned %q, want dst unchanged", got)
		}
		return
	}
	if got = append(got[len(prefix):], '\n'); !bytes.Equal(got, want) {
		t.Fatalf("depth 0 differs:\n got %s\nwant %s", got, want)
	}
	nested, err := AppendWindow([]byte("{\n  \"window\": "), win, 1)
	if err != nil {
		t.Fatal(err)
	}
	if nested = append(nested, "\n}\n"...); !bytes.Equal(nested, referenceNested(want)) {
		t.Fatalf("depth 1 differs:\n got %s\nwant %s", nested, referenceNested(want))
	}
}

// adversarialFloats sit on every branch of encoding/json's float rule: the
// 'e' cut-offs, the exponent clean-up, negative zero, the subnormal and the
// largest value, integers, and shortest representations that round-trip
// only with 17 digits.
var adversarialFloats = []float64{
	0, math.Copysign(0, -1), 5e-324, 1e-7, 9.999999e-7, 1e-6, 1.5e-9, 1.234e-10, 2.5e-100,
	999999.9999999999, 0.1 + 0.2, 1e20, 123456789012345680000, 1e21, 1.5e21, 1e22, 1e100,
	math.MaxFloat64, -math.MaxFloat64, -1e-7, -1e21, 1, -1, 42, 1e6, 1 << 53, 600, 12.5, 1.0 / 3,
}

// windowOf builds a window whose every number is drawn from next.
func windowOf(n int, next func() float64) *core.Window {
	w := &core.Window{Start: next(), Runtime: next(), Cost: next(), ProcTime: next()}
	for i := 0; i < n; i++ {
		node := testkit.Node(int(int32(math.Float64bits(next()))), 1, 1)
		w.Placements = append(w.Placements, core.Placement{
			Slot: testkit.Slot(node, 0, 1), Start: next(), Exec: next(), Cost: next(),
		})
	}
	return w
}

// randomFloat mixes the shapes real windows hold (times and costs with a
// few decimals, integers) with raw bit patterns and the adversarial set.
func randomFloat(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return float64(rng.Intn(100000))
	case 1:
		return math.Round(rng.Float64()*1e6) / 1e3
	case 2:
		return rng.Float64() * math.Pow(10, float64(rng.Intn(60)-30))
	case 3:
		return adversarialFloats[rng.Intn(len(adversarialFloats))]
	case 4:
		return -rng.Float64() * 1000
	}
	for {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
	}
}

// TestAppendWindowMatchesEncodingJSON is the encoder's proof of
// equivalence: 1 000 seeded random windows of 1 to 64 placements, every
// adversarial float in every position, and the no-placement window.
func TestAppendWindowMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 1000; i++ {
		checkWindow(t, windowOf(1+rng.Intn(64), func() float64 { return randomFloat(rng) }))
	}
	for _, f := range adversarialFloats {
		checkWindow(t, windowOf(2, func() float64 { return f }))
	}
	checkWindow(t, &core.Window{Start: 1, Runtime: 2})
	checkWindow(t, &core.Window{Placements: []core.Placement{}})
}

// TestAppendWindowRejectsNonFinite: NaN and the infinities are an error in
// whichever field they sit, as they were through encoding/json, and nothing
// is appended.
func TestAppendWindowRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for pos := 0; pos < 10; pos++ {
			i := 0
			win := windowOf(2, func() float64 {
				if i++; i-1 == pos {
					return bad
				}
				return 1
			})
			if pos == 4 || pos == 8 {
				continue // the draw that becomes a node ID
			}
			if _, err := AppendWindow(nil, win, 0); err == nil {
				t.Errorf("%v in position %d encoded without error", bad, pos)
			}
			checkWindow(t, win)
			if err := WriteWindow(&bytes.Buffer{}, win); err == nil {
				t.Errorf("WriteWindow accepted %v in position %d", bad, pos)
			}
		}
	}
}

func FuzzAppendWindow(f *testing.F) {
	for _, v := range adversarialFloats {
		f.Add(math.Float64bits(v), math.Float64bits(1e-7), math.Float64bits(12.5), uint8(1))
	}
	f.Add(math.Float64bits(math.NaN()), uint64(0), uint64(1), uint8(3))
	f.Fuzz(func(t *testing.T, a, b, c uint64, n uint8) {
		bits := [3]uint64{a, b, c}
		i := 0
		checkWindow(t, windowOf(int(n%8), func() float64 {
			i++
			return math.Float64frombits(bits[i%3] + uint64(i/3))
		}))
	})
}

// TestAppendWindowAllocs: into a buffer with room the encoder allocates
// nothing, which is what lets a reply be assembled in a pooled buffer.
func TestAppendWindowAllocs(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	rng := rand.New(rand.NewSource(1))
	win := windowOf(5, func() float64 { return randomFloat(rng) })
	buf := make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := AppendWindow(buf, win, 1); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("AppendWindow into a sized buffer: %v allocs/op, want 0", n)
	}
}

// referenceRequest is the request parse ParseRequest replaced: one
// encoding/json Decoder over the bytes.
func referenceRequest(b []byte) (*job.Request, error) {
	var in requestJSON
	if err := json.NewDecoder(bytes.NewReader(b)).Decode(&in); err != nil {
		return nil, fmt.Errorf("persist: decoding request: %w", err)
	}
	return in.request()
}

// checkRequest compares ParseRequest with the oracle — the request or the
// exact error text — and, when the Scanner takes the input, the Scanner's
// own result with encoding/json's field by field.
func checkRequest(t testing.TB, data []byte) (scanned bool) {
	t.Helper()
	want, wantErr := referenceRequest(data)
	got, err := ParseRequest(data)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("ParseRequest(%q) error %q, encoding/json %q", data, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseRequest(%q) = %+v, encoding/json %+v", data, got, want)
	}
	var in, ref requestJSON
	if s := NewScanner(data); in.scan(s) && s.End() {
		if err := json.Unmarshal(data, &ref); err != nil || !reflect.DeepEqual(in, ref) {
			t.Fatalf("Scanner took %q as %+v, encoding/json as %+v (%v)", data, in, ref, err)
		}
		return true
	}
	return false
}

// TestParseRequestMatchesEncodingJSON pins both halves of the parser: the
// inputs the Scanner must take (or the fast path is dead code) and the ones
// it must leave to encoding/json.
func TestParseRequestMatchesEncodingJSON(t *testing.T) {
	var canonical bytes.Buffer
	full := job.Request{TaskCount: 5, Volume: 150.25, MaxCost: 750, Deadline: 600, MinPerf: 1.5,
		MinRAMMB: 2048, MinDiskGB: 10, OS: []nodes.OS{nodes.Linux}, Arch: []nodes.Arch{nodes.AMD64, nodes.ARM64}}
	if err := WriteRequest(&canonical, &full); err != nil {
		t.Fatal(err)
	}
	compact := new(bytes.Buffer)
	if err := json.Compact(compact, canonical.Bytes()); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		in      string
		scanned bool
	}{
		{canonical.String(), true},
		{compact.String(), true},
		{`{"tasks":3,"volume":60}`, true},
		{" {\t\"tasks\" : 3 ,\r\n\"volume\" : 6e1 } \n", true},
		{`{"tasks":3,"volume":-0.5e+1,"max_cost":1E2}`, true},
		{`{"tasks":0,"volume":60}`, true}, // scanned, then invalid
		{`{"tasks":3,"volume":60,"os":[],"arch":["amd64"]}`, true},
		{`{}`, true},
		{`{"tasks":3,"volume":60} trailing`, false},
		{`{"tasks":3,"volume":60}{"tasks":9}`, false},
		{`{"Tasks":3,"VOLUME":60}`, false},
		{`{"tasks":3,"volume":60,"tasks":4}`, true}, // the last value stands, as in encoding/json
		{`{"tasks":3,"volume":60,"os":["bsd"],"os":[]}`, true},
		{`{"tasks":3,"volume":60,"tasks":"4"}`, false},
		{`{"tasks":3,"volume":60,"extra":{"a":[1,2]}}`, false},
		{`{"tasks":3,"volume":60,"os":["linüx"]}`, false},
		{`{"tasks":3,"volume":60,"os":null,"max_cost":null}`, false},
		{`{"tasks":3.0,"volume":60}`, false},
		{`{"tasks":3e0,"volume":60}`, false},
		{`{"tasks":"3","volume":60}`, false},
		{`{"tasks":03,"volume":60}`, false},
		{`{"tasks":3,"volume":.5}`, false},
		{`{"tasks":3,"volume":5.}`, false},
		{`{"tasks":3,"volume":+5}`, false},
		{`{"tasks":3,"volume":1e999}`, false},
		{`{"tasks":99999999999999999999,"volume":60}`, false},
		{`{"tasks":3,"volume":60,}`, false},
		{`{"tasks":3 "volume":60}`, false},
		{`{"tasks":3,"volume":60`, false},
		{`{"tasks":3,"volume":"a\"b"}`, false},
		{"{\"tasks\":3,\"volume\":60}\x00", false},
		{`null`, false},
		{`[]`, false},
		{`"x"`, false},
		{``, false},
		{`   `, false},
		{`nope`, false},
	} {
		if got := checkRequest(t, []byte(tc.in)); got != tc.scanned {
			t.Errorf("%q: taken by the Scanner = %v, want %v", tc.in, got, tc.scanned)
		}
	}
}

func FuzzParseRequest(f *testing.F) {
	var buf bytes.Buffer
	req := testkit.SmallRequest(3, 300)
	if err := WriteRequest(&buf, &req); err != nil {
		f.Fatal(err)
	}
	seedCorpus(f, buf.Bytes())
	f.Add([]byte(`{"tasks":5,"volume":1.5e2,"max_cost":750,"os":["linux"],"arch":[]}`))
	f.Add([]byte(`{"tasks":-0,"volume":0.0,"deadline":1E-2,"min_ram_mb":7}`))
	f.Add([]byte(`{"tasks":1,"tasks":2,"volume":3,"os":["bsd"],"os":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) { checkRequest(t, data) })
}

// TestParseRequestAllocs: the request of a find body costs the job.Request
// it returns and nothing else.
func TestParseRequestAllocs(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	body := []byte(`{"tasks":5,"volume":150,"max_cost":750}`)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ParseRequest(body); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("ParseRequest: %v allocs/op, want 1 (the returned request)", n)
	}
}

// referenceSlotList is the slot-list decode ParseSlotList replaced: one
// encoding/json Decoder over the bytes, then the same linking and checks.
func referenceSlotList(b []byte) (slots.List, error) {
	var in slotListJSON
	if err := json.NewDecoder(bytes.NewReader(b)).Decode(&in); err != nil {
		return nil, fmt.Errorf("persist: decoding slot list: %w", err)
	}
	return in.list()
}

// checkSlotList compares ParseSlotList with the oracle — the same list or
// the same error text — and, when the Scanner takes the input, the
// Scanner's document with encoding/json's field by field.
func checkSlotList(t testing.TB, data []byte) (scanned bool) {
	t.Helper()
	want, wantErr := referenceSlotList(data)
	got, err := ParseSlotList(data)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("ParseSlotList(%q) error %q, encoding/json %q", data, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseSlotList(%q) = %v, encoding/json %v", data, got, want)
	}
	var in, ref slotListJSON
	if in.scan(NewScanner(data)) {
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&ref); err != nil || !reflect.DeepEqual(in, ref) {
			t.Fatalf("Scanner took %q as %+v, encoding/json as %+v (%v)", data, in, ref, err)
		}
		return true
	}
	return false
}

// TestParseSlotListMatchesEncodingJSON pins both halves of the slot-list
// reader: what every writer emits goes through the Scanner (or recovery's
// fast path is dead code), and what it must leave goes to encoding/json.
func TestParseSlotListMatchesEncodingJSON(t *testing.T) {
	var canonical bytes.Buffer
	if err := WriteSlotList(&canonical, testkit.SmallEnv(1, 10, 300).Slots); err != nil {
		t.Fatal(err)
	}
	compact := new(bytes.Buffer)
	if err := json.Compact(compact, canonical.Bytes()); err != nil {
		t.Fatal(err)
	}
	const n = `"nodes":[{"id":1,"perf":2,"price":1,"os":"linux"}]`
	for _, tc := range []struct {
		in      string
		scanned bool
	}{
		{canonical.String(), true},
		{compact.String(), true},
		{compact.String() + " trailing", true}, // the first value is the list, as for a Decoder
		{`{"version":1,` + n + `,"slots":[{"node":1,"start":4,"end":9},{"node":1,"start":0,"end":4}]}`, true},
		{`{"version":1,` + n + `,"slots":[{"node":1,"start":0,"end":5},{"node":1,"start":4,"end":9}]}`, true}, // scanned, then invalid
		{`{"version":1,` + n + `,"slots":[{"node":2,"start":0,"end":5}]}`, true},
		{`{"version":2,"nodes":[],"slots":[]}`, true},
		{`{"version":1,"version":1}`, true},
		{`{}`, true},
		{`{"version":1,` + n + `,"slots":[{"node":1,"start":0,"end":5}],"slots":[{"node":1}]}`, false},
		{`{"version":1,` + n + `,` + n + `}`, false},
		{`{"version":1,"Nodes":[]}`, false},
		{`{"version":1,"nodes":null}`, false},
		{`{"version":1,"nodes":[{"id":1,"os":"lin\u0075x"}]}`, false},
		{`{"version":1,"nodes":[{"id":1.5}]}`, false},
		{`{"version":1,"slots":[{"node":1,"start":1e999}]}`, false},
		{`{"version":1,"extra":[1]}`, false},
		{`{"version":1,"slots":[{"node":1,"start":0,"end":5}`, false},
		{``, false},
		{`null`, false},
		{`[]`, false},
	} {
		if got := checkSlotList(t, []byte(tc.in)); got != tc.scanned {
			t.Errorf("%q: taken by the Scanner = %v, want %v", tc.in, got, tc.scanned)
		}
	}
}

// referenceOwnedWindow is the owned-window decode ParseOwnedWindow
// replaced: one encoding/json Decoder over the bytes, then the same checks
// and linking.
func referenceOwnedWindow(b []byte) (*core.Window, error) {
	var in ownedWindowJSON
	if err := json.NewDecoder(bytes.NewReader(b)).Decode(&in); err != nil {
		return nil, fmt.Errorf("persist: decoding owned window: %w", err)
	}
	return in.window()
}

// checkOwnedWindow is checkSlotList for owned windows.
func checkOwnedWindow(t testing.TB, data []byte) (scanned bool) {
	t.Helper()
	want, wantErr := referenceOwnedWindow(data)
	got, err := ParseOwnedWindow(data)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("ParseOwnedWindow(%q) error %q, encoding/json %q", data, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseOwnedWindow(%q) = %v, encoding/json %v", data, got, want)
	}
	var in, ref ownedWindowJSON
	if in.scan(NewScanner(data)) {
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&ref); err != nil || !reflect.DeepEqual(in, ref) {
			t.Fatalf("Scanner took %q as %+v, encoding/json as %+v (%v)", data, in, ref, err)
		}
		return true
	}
	return false
}

// TestParseOwnedWindowMatchesEncodingJSON pins both halves of the
// owned-window reader: every window the WAL writes goes through the
// Scanner, and what it must leave goes to encoding/json.
func TestParseOwnedWindowMatchesEncodingJSON(t *testing.T) {
	e := testkit.SmallEnv(3, 20, 400)
	req := testkit.SmallRequest(3, 300)
	w, err := (core.MinCost{}).Find(e.Slots, &req)
	if err != nil {
		t.Fatal(err)
	}
	written, err := new(Encoder).AppendOwnedWindow(nil, w)
	if err != nil {
		t.Fatal(err)
	}
	const n = `"nodes":[{"id":1,"perf":2,"price":1,"os":"linux"}]`
	const p = `"placements":[{"node":1,"start":0,"exec":2,"cost":4,"slot_start":0,"slot_end":5}]`
	for _, tc := range []struct {
		in      string
		scanned bool
	}{
		{string(written), true},
		{string(written) + " trailing", true}, // the first value is the window, as for a Decoder
		{`{"version":1,"start":0,` + n + `,` + p + `}`, true},
		{`{"version":1,"start":1,` + n + `,` + p + `}`, true}, // scanned, then refused
		{`{"version":2,"start":0,` + n + `,` + p + `}`, true},
		{`{"version":1,"start":0,"nodes":[],` + p + `}`, true},
		{`{"version":1,"start":0,` + n + `,"placements":[]}`, true},
		{`{}`, true},
		{`{"version":1,"start":0,` + n + `,` + n + `,` + p + `}`, false},
		{`{"version":1,"start":0,` + n + `,` + p + `,` + p + `}`, false},
		{`{"version":1,"start":0,"Nodes":[],` + p + `}`, false},
		{`{"version":1,"start":0,` + n + `,"placements":[{"node":1,"exec":"NaN"}]}`, false},
		{`{"version":1,"start":0,` + n + `,"placements":[{"node":1.5}]}`, false},
		{`{"version":1,"start":1e999}`, false},
		{`{"version":1,"start":0,"extra":[1]}`, false},
		{`{"version":1,"start":0,` + n, false},
		{``, false},
		{`null`, false},
		{`[]`, false},
	} {
		if got := checkOwnedWindow(t, []byte(tc.in)); got != tc.scanned {
			t.Errorf("%q: taken by the Scanner = %v, want %v", tc.in, got, tc.scanned)
		}
	}
}
