package persist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"testing"

	"slotsel/internal/core"
	"slotsel/internal/nodes"
	"slotsel/internal/randx"
	"slotsel/internal/slots"
	"slotsel/internal/testkit"
)

// The reflection encoders the appenders replaced, kept here as their
// oracle: the structs that define what decodes, rendered by encoding/json.

// nodeJSONOf mirrors a node.
func nodeJSONOf(n *nodes.Node) nodeJSON {
	return nodeJSON{
		ID: n.ID, Perf: n.Perf, Price: n.Price,
		RAMMB: n.RAMMB, DiskGB: n.DiskGB,
		OS: string(n.OS), Arch: string(n.Arch),
	}
}

// WriteOwnedWindow is the owned-window encoder AppendOwnedWindow replaced:
// ownedWindowJSON through a compact json.Encoder, its nodes deduped with a
// map and sorted with sort.Slice.
func WriteOwnedWindow(w io.Writer, win *core.Window) error {
	out := ownedWindowJSON{Version: FormatVersion, Start: win.Start}
	seen := make(map[int]bool, len(win.Placements))
	for _, p := range win.Placements {
		if p.Slot == nil || p.Slot.Node == nil {
			return fmt.Errorf("persist: window placement has a nil slot or node")
		}
		n := p.Slot.Node
		if !seen[n.ID] {
			seen[n.ID] = true
			out.Nodes = append(out.Nodes, nodeJSONOf(n))
		}
		out.Placements = append(out.Placements, ownedPlacementJSON{
			Node: n.ID, Start: p.Start, Exec: p.Exec, Cost: p.Cost,
			SlotStart: p.Slot.Start, SlotEnd: p.Slot.End,
		})
	}
	sort.Slice(out.Nodes, func(i, j int) bool { return out.Nodes[i].ID < out.Nodes[j].ID })
	return json.NewEncoder(w).Encode(out)
}

// referenceSlotListDoc is the slot-list encoder AppendSlotList replaced:
// slotListJSON through an indenting json.Encoder, as WriteSlotList wrote
// it, or the compact form the durable log made of that by marshalling the
// trimmed document as a json.RawMessage.
func referenceSlotListDoc(l slots.List, indent bool) ([]byte, error) {
	out := slotListJSON{Version: FormatVersion}
	seen := make(map[int]bool)
	var ns []*nodes.Node
	for _, s := range l {
		if s == nil || s.Node == nil {
			return nil, fmt.Errorf("persist: slot list contains a nil slot or node")
		}
		if !seen[s.Node.ID] {
			seen[s.Node.ID] = true
			ns = append(ns, s.Node)
		}
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i].ID < ns[j].ID })
	for _, n := range ns {
		out.Nodes = append(out.Nodes, nodeJSONOf(n))
	}
	for _, s := range l {
		out.Slots = append(out.Slots, slotJSON{Node: s.Node.ID, Start: s.Start, End: s.End})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return nil, err
	}
	if indent {
		return buf.Bytes(), nil
	}
	return json.Marshal(json.RawMessage(bytes.TrimSpace(buf.Bytes())))
}

// checkOwnedWindowEncoding compares enc.AppendOwnedWindow with the oracle:
// the same bytes after a prefix it keeps, or an error from both and the
// prefix back unchanged.
func checkOwnedWindowEncoding(t testing.TB, enc *Encoder, w *core.Window) {
	t.Helper()
	var ref bytes.Buffer
	wantErr := WriteOwnedWindow(&ref, w)
	got, err := enc.AppendOwnedWindow([]byte("kept"), w)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("AppendOwnedWindow error %v, encoding/json error %v", err, wantErr)
	}
	if string(got[:4]) != "kept" || err != nil && len(got) != 4 {
		t.Fatalf("AppendOwnedWindow returned %q, want the prefix kept", got)
	}
	if want := bytes.TrimSuffix(ref.Bytes(), []byte("\n")); err == nil && !bytes.Equal(got[4:], want) {
		t.Fatalf("owned window differs:\n got %s\nwant %s", got[4:], want)
	}
}

// checkSlotListEncoding compares enc.AppendSlotList, compact and indented,
// and WriteSlotList with the oracle.
func checkSlotListEncoding(t testing.TB, enc *Encoder, l slots.List) {
	t.Helper()
	for _, indent := range []bool{false, true} {
		want, wantErr := referenceSlotListDoc(l, indent)
		got, err := enc.AppendSlotList([]byte("kept"), l, indent)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("AppendSlotList(indent %v) error %v, encoding/json error %v", indent, err, wantErr)
		}
		if string(got[:4]) != "kept" || err != nil && len(got) != 4 {
			t.Fatalf("AppendSlotList returned %q, want the prefix kept", got)
		}
		if err != nil {
			continue
		}
		if got = got[4:]; indent {
			got = append(got, '\n')
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("slot list (indent %v) differs:\n got %s\nwant %s", indent, got, want)
		}
	}
	want, wantErr := referenceSlotListDoc(l, true)
	var buf bytes.Buffer
	if err := WriteSlotList(&buf, l); (err != nil) != (wantErr != nil) || err == nil && !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WriteSlotList wrote %q (%v), want %q (%v)", buf.Bytes(), err, want, wantErr)
	}
}

// encodingFloats sit on the edges of encoding/json's float rule: both
// zeros, the least subnormal, both sides of the 1e-6 and 1e21 cut-offs,
// and their negatives.
var encodingFloats = []float64{
	0, math.Copysign(0, -1), 5e-324, 1e-7, 9.99e-7, 1e20, 1e21,
	-5e-324, -1e-7, -9.99e-7, -1e20, -1e21,
}

// encodingStrings hold every class of byte encoding/json escapes: quote,
// backslash, the short escapes, other control bytes, the HTML three, the
// two line separators and invalid UTF-8, beside bytes it keeps.
var encodingStrings = []string{
	"linux", "", `"quoted" \back\slash/`, "\b\f\n\r\t", "\x00\x01\x1f\x7f",
	"<script>&amp;</script>", "\u2028 \u2029", "bad\xff\xfeutf8\xc3", "\u00e9\u6f22\U0001F600",
}

// nodeDraw turns a draw into a node ID in -3..3, so that a few draws give
// shared nodes met out of ID order.
func nodeDraw(f float64) int { return int(math.Float64bits(f)%7) - 3 }

// ownedWindowOf builds a window of n placements whose numbers are drawn
// from next; the nodes carry os and arch.
func ownedWindowOf(n int, next func() float64, os, arch string) *core.Window {
	w := &core.Window{Start: next()}
	byID := map[int]*nodes.Node{}
	for i := 0; i < n; i++ {
		f := next()
		node := byID[nodeDraw(f)]
		if node == nil {
			node = &nodes.Node{ID: nodeDraw(f), Perf: next(), Price: next(), RAMMB: 512 * i, DiskGB: -i,
				OS: nodes.OS(os), Arch: nodes.Arch(arch)}
			byID[node.ID] = node
		}
		w.Placements = append(w.Placements, core.Placement{
			Slot: testkit.Slot(node, next(), next()), Start: f, Exec: next(), Cost: next(),
		})
	}
	return w
}

// slotListOf builds a list of n slots whose numbers are drawn from next;
// the nodes carry os and arch.
func slotListOf(n int, next func() float64, os, arch string) slots.List {
	var l slots.List
	byID := map[int]*nodes.Node{}
	for i := 0; i < n; i++ {
		f := next()
		node := byID[nodeDraw(f)]
		if node == nil {
			node = &nodes.Node{ID: nodeDraw(f), Perf: next(), Price: next(), RAMMB: 512 * i, DiskGB: -i,
				OS: nodes.OS(os), Arch: nodes.Arch(arch)}
			byID[node.ID] = node
		}
		l = append(l, testkit.Slot(node, f, next()))
	}
	return l
}

// drawFrom cycles through three float bit patterns, stepping each on every
// round, as FuzzAppendWindow draws.
func drawFrom(a, b, c uint64) func() float64 {
	bits := [3]uint64{a, b, c}
	i := 0
	return func() float64 {
		i++
		return math.Float64frombits(bits[i%3] + uint64(i/3))
	}
}

// TestAppendOwnedWindowMatchesEncodingJSON: every window a kernel finds on
// 200 seeds for AMP, MinCost and MinRunTime, two tasks on one node, nil
// and empty placements, the edge floats and strings, and a NaN window,
// which both encoders refuse.
func TestAppendOwnedWindowMatchesEncodingJSON(t *testing.T) {
	var enc Encoder
	req := testkit.SmallRequest(3, 0)
	found := 0
	for seed := uint64(1); seed <= 200; seed++ {
		e := testkit.SmallEnv(seed, 12, 400)
		for _, alg := range []core.Algorithm{core.AMP{}, core.MinCost{}, core.MinRunTime{}} {
			if w, err := alg.Find(e.Slots, &req); err == nil {
				checkOwnedWindowEncoding(t, &enc, w)
				found++
			}
		}
	}
	if found < 500 {
		t.Fatalf("the kernels found %d windows on 600 searches, want most of them", found)
	}
	node := testkit.Node(7, 2, 1.5)
	slot := testkit.Slot(node, 0, 50)
	twoOnOne := &core.Window{Start: 5, Placements: []core.Placement{
		{Slot: slot, Start: 5, Exec: 10, Cost: 15}, {Slot: testkit.Slot(node, 0, 50), Start: 5, Exec: 20, Cost: 30},
	}}
	checkOwnedWindowEncoding(t, &enc, twoOnOne)
	checkOwnedWindowEncoding(t, &enc, &core.Window{Start: 1})
	checkOwnedWindowEncoding(t, &enc, &core.Window{Start: 1, Placements: []core.Placement{}})
	for _, f := range encodingFloats {
		checkOwnedWindowEncoding(t, &enc, ownedWindowOf(3, func() float64 { return f }, "linux", "amd64"))
	}
	for _, s := range encodingStrings {
		checkOwnedWindowEncoding(t, &enc, ownedWindowOf(2, drawFrom(1, 2, 3), s, s))
	}
	nan := ownedWindowOf(2, drawFrom(1, 2, 3), "linux", "amd64")
	nan.Placements[1].Cost = math.NaN()
	if _, err := enc.AppendOwnedWindow(nil, nan); err == nil {
		t.Error("a NaN cost encoded without error")
	}
	checkOwnedWindowEncoding(t, &enc, nan)
	checkOwnedWindowEncoding(t, &enc, &core.Window{Placements: []core.Placement{{Start: 1}}})
}

// TestAppendSlotListMatchesEncodingJSON: generated environments, the
// service's shape; nil, empty and one-node lists; the edge floats and
// strings; a nil slot and a NaN, which both encoders refuse.
func TestAppendSlotListMatchesEncodingJSON(t *testing.T) {
	var enc Encoder
	for seed := uint64(1); seed <= 20; seed++ {
		checkSlotListEncoding(t, &enc, testkit.SmallEnv(seed, 16, 400).Slots)
	}
	checkSlotListEncoding(t, &enc, testkit.RandomList(randx.New(3), 24, 4, 2000))
	checkSlotListEncoding(t, &enc, nil)
	checkSlotListEncoding(t, &enc, slots.List{})
	checkSlotListEncoding(t, &enc, slots.List{testkit.Slot(testkit.Node(4, 2, 1), 0, 5)})
	for _, f := range encodingFloats {
		checkSlotListEncoding(t, &enc, slotListOf(3, func() float64 { return f }, "linux", "amd64"))
	}
	for _, s := range encodingStrings {
		checkSlotListEncoding(t, &enc, slotListOf(3, drawFrom(1, 2, 3), s, s))
	}
	checkSlotListEncoding(t, &enc, slots.List{testkit.Slot(testkit.Node(4, 2, 1), 0, 5), nil})
	checkSlotListEncoding(t, &enc, slots.List{testkit.Slot(nil, 0, 5)})
	checkSlotListEncoding(t, &enc, slots.List{testkit.Slot(testkit.Node(4, math.NaN(), 1), 0, 5)})
}

func FuzzAppendOwnedWindow(f *testing.F) {
	for _, v := range encodingFloats {
		f.Add(math.Float64bits(v), math.Float64bits(1e-7), math.Float64bits(12.5), uint8(3), "linux", "amd64")
	}
	for _, s := range encodingStrings {
		f.Add(uint64(1), uint64(2), uint64(3), uint8(2), s, "arm64")
	}
	f.Add(math.Float64bits(4), math.Float64bits(4), math.Float64bits(4), uint8(2), "linux", "amd64") // two tasks on one node
	f.Add(uint64(1), uint64(2), uint64(3), uint8(0), "", "")                                         // no placements
	f.Add(math.Float64bits(math.NaN()), uint64(0), uint64(1), uint8(3), "linux", "amd64")
	var enc Encoder
	f.Fuzz(func(t *testing.T, a, b, c uint64, n uint8, os, arch string) {
		checkOwnedWindowEncoding(t, &enc, ownedWindowOf(int(n%8), drawFrom(a, b, c), os, arch))
	})
}

func FuzzAppendSlotList(f *testing.F) {
	for _, v := range encodingFloats {
		f.Add(math.Float64bits(v), math.Float64bits(1e21), math.Float64bits(600), uint8(3), "linux", "amd64")
	}
	for _, s := range encodingStrings {
		f.Add(uint64(1), uint64(2), uint64(3), uint8(4), "linux", s)
	}
	f.Add(uint64(1), uint64(2), uint64(3), uint8(0), "", "") // empty list
	f.Add(math.Float64bits(math.Inf(-1)), uint64(0), uint64(1), uint8(3), "linux", "amd64")
	var enc Encoder
	f.Fuzz(func(t *testing.T, a, b, c uint64, n uint8, os, arch string) {
		checkSlotListEncoding(t, &enc, slotListOf(int(n%16), drawFrom(a, b, c), os, arch))
	})
}

// TestEncoderAllocs: a reused Encoder appending an owned window or a slot
// list into a buffer with room allocates nothing.
func TestEncoderAllocs(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	w := ownedWindowOf(5, drawFrom(math.Float64bits(3.25), math.Float64bits(100.5), math.Float64bits(7)), "linux", "amd64")
	var enc Encoder
	buf := make([]byte, 0, 1<<16)
	l := testkit.RandomList(randx.New(3), 24, 4, 2000)
	if _, err := enc.AppendSlotList(buf, l, false); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := enc.AppendOwnedWindow(buf, w); err != nil {
			t.Fatal(err)
		}
		if _, err := enc.AppendSlotList(buf, l, false); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("AppendOwnedWindow + AppendSlotList into a sized buffer: %v allocs/op, want 0", n)
	}
}
