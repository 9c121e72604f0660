package wal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"slotsel/internal/core"
	"slotsel/internal/env"
	"slotsel/internal/inventory"
	"slotsel/internal/job"
	"slotsel/internal/nodes"
	"slotsel/internal/persist"
	"slotsel/internal/randx"
	"slotsel/internal/slots"
	"slotsel/internal/testkit"
)

// marshalEvent is the event encoder appendEvent replaced, kept as its
// oracle: eventJSON through json.Marshal, the window and the slot list
// nested as json.RawMessage. The slot list is WriteSlotList's indented
// document, which json.Marshal compacts; the window is the persist
// encoder's, which FuzzAppendOwnedWindow holds to its own reflection
// oracle.
func marshalEvent(ev inventory.Event) ([]byte, error) {
	out := eventJSON{Seq: ev.Seq, Op: int(ev.Op), ID: ev.ID, Node: ev.Node, OK: ev.OK}
	if !ev.Expires.IsZero() {
		out.Expires = ev.Expires.UnixNano()
	}
	if ev.Window != nil {
		w, err := new(persist.Encoder).AppendOwnedWindow(nil, ev.Window)
		if err != nil {
			return nil, err
		}
		out.Window = w
	}
	if len(ev.Slots) > 0 {
		var buf bytes.Buffer
		if err := persist.WriteSlotList(&buf, ev.Slots); err != nil {
			return nil, err
		}
		out.Slots = bytes.TrimSpace(buf.Bytes())
	}
	return json.Marshal(out)
}

// marshalState is the state encoder appendState replaced, kept as its
// oracle, with the nested documents made as marshalEvent makes them.
func marshalState(st *inventory.State) ([]byte, error) {
	out := stateFields[json.RawMessage]{
		Format: persist.FormatVersion, Version: st.Version, Seq: st.Seq, NextID: st.NextID, Counters: st.Counters,
	}
	if len(st.Base) > 0 {
		var buf bytes.Buffer
		if err := persist.WriteSlotList(&buf, st.Base); err != nil {
			return nil, err
		}
		out.Base = bytes.TrimSpace(buf.Bytes())
	}
	for _, h := range st.Holds {
		w, err := new(persist.Encoder).AppendOwnedWindow(nil, h.Window)
		if err != nil {
			return nil, err
		}
		out.Holds = append(out.Holds, holdJSON{ID: h.ID, Expires: h.Expires.UnixNano(), Window: w})
	}
	for _, c := range st.Committed {
		w, err := new(persist.Encoder).AppendOwnedWindow(nil, c.Window)
		if err != nil {
			return nil, err
		}
		out.Committed = append(out.Committed, commitJSON{ID: c.ID, Window: w})
	}
	return json.Marshal(out)
}

// encodeEvent is appendEvent into a buffer of its own.
func encodeEvent(ev inventory.Event) ([]byte, error) {
	return appendEvent(nil, ev, new(persist.Encoder))
}

// appendFrame appends one record holding payload to buf.
func appendFrame(buf, payload []byte) []byte {
	at := len(buf)
	buf = append(beginFrame(buf), payload...)
	endFrame(buf, at)
	return buf
}

// eventWindow builds a window of n placements whose floats step from the
// bit patterns a and b. Node IDs cycle 0, 3, 2, 1, so placements share
// nodes met out of ID order; the nodes run os.
func eventWindow(n int, a, b uint64, os string) *core.Window {
	w := &core.Window{Start: math.Float64frombits(a)}
	byID := map[int]*nodes.Node{}
	for i := 0; i < n; i++ {
		f, g := math.Float64frombits(a+uint64(i)), math.Float64frombits(b+uint64(i))
		id := i * 3 % 4
		if byID[id] == nil {
			byID[id] = &nodes.Node{ID: id, Perf: g, Price: f, RAMMB: i, OS: nodes.OS(os), Arch: nodes.Arch(os)}
		}
		w.Placements = append(w.Placements, core.Placement{Slot: testkit.Slot(byID[id], f, g), Start: f, Exec: g, Cost: f})
	}
	return w
}

// eventSlots builds a list of n slots over the nodes eventWindow uses.
func eventSlots(n int, a, b uint64, os string) slots.List {
	var l slots.List
	for _, p := range eventWindow(n, a, b, os).Placements {
		l = append(l, p.Slot)
	}
	return l
}

// checkEventEncoding compares appendEvent, after a prefix it keeps, with
// the oracle: the same bytes, or an error from both.
func checkEventEncoding(t testing.TB, enc *persist.Encoder, ev inventory.Event) {
	t.Helper()
	want, wantErr := marshalEvent(ev)
	got, err := appendEvent([]byte("kept"), ev, enc)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("appendEvent error %v, encoding/json error %v", err, wantErr)
	}
	if string(got[:4]) != "kept" || err != nil && len(got) != 4 {
		t.Fatalf("appendEvent returned %q, want the prefix kept", got)
	}
	if err == nil && !bytes.Equal(got[4:], want) {
		t.Fatalf("event differs:\n got %s\nwant %s", got[4:], want)
	}
}

// eventStrings hold every class of byte encoding/json escapes.
var eventStrings = []string{
	"r00000001", "", `"quoted" \back\slash/`, "\b\f\n\r\t\x00\x1f\x7f",
	"<script>&amp;</script>", "\u2028 \u2029", "bad\xff\xfeutf8\xc3", "\u00e9\u6f22\U0001F600",
}

// eventFloats sit on the edges of encoding/json's float rule.
var eventFloats = []float64{
	0, math.Copysign(0, -1), 5e-324, 1e-7, 9.99e-7, 1e20, 1e21,
	-5e-324, -1e-7, -9.99e-7, -1e20, -1e21,
}

func FuzzAppendEvent(f *testing.F) {
	f.Add(uint64(0), uint8(0), "", 0, false, int64(0), uint8(0), uint8(0), uint64(0), uint64(0), "") // every optional field zero
	for _, v := range eventFloats {
		f.Add(uint64(7), uint8(inventory.OpReserve), "r00000007", 0, true, time.Now().UnixNano(), uint8(1), uint8(5),
			math.Float64bits(v), math.Float64bits(12.5), "linux")
	}
	for _, s := range eventStrings {
		f.Add(uint64(9), uint8(inventory.OpAdd), s, -4, true, int64(-1), uint8(2), uint8(3), uint64(1), uint64(2), s)
	}
	f.Add(uint64(3), uint8(inventory.OpReserve), "r1", 0, true, int64(0), uint8(1), uint8(5),
		math.Float64bits(4), math.Float64bits(4), "linux") // placements 0 and 4 on one node
	f.Add(uint64(3), uint8(inventory.OpReserve), "r1", 0, false, int64(0), uint8(1), uint8(0), uint64(1), uint64(2), "") // nil placements
	f.Add(uint64(3), uint8(inventory.OpReserve), "r1", 0, true, int64(5), uint8(1), uint8(3),
		math.Float64bits(math.NaN()), uint64(2), "linux")
	var enc persist.Encoder
	f.Fuzz(func(t *testing.T, seq uint64, op uint8, id string, node int, ok bool, expires int64, kind, n uint8, a, b uint64, os string) {
		ev := inventory.Event{Seq: seq, Op: inventory.Op(op), ID: id, Node: node, OK: ok}
		if expires != 0 {
			ev.Expires = time.Unix(0, expires)
		}
		if kind&1 != 0 {
			ev.Window = eventWindow(int(n%8), a, b, os)
		}
		if kind&2 != 0 {
			ev.Slots = eventSlots(int(n%8), b, a, os)
		}
		checkEventEncoding(t, &enc, ev)
	})
}

// TestAppendEventMatchesEncodingJSON: every event of a recorded journal
// over every op kind, events with empty and nil placements and an empty
// slot list, and a NaN window, which both encoders refuse.
func TestAppendEventMatchesEncodingJSON(t *testing.T) {
	var enc persist.Encoder
	inv, err := inventory.New(testkit.RandomList(randx.New(5), 10, 3, 300), inventory.Options{MinSlotLength: 1, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	drive(t, inv, 5, 80)
	for _, ev := range inv.Journal() {
		checkEventEncoding(t, &enc, ev)
	}
	for _, ev := range []inventory.Event{
		{},
		{Seq: 1, Op: inventory.OpReserve, ID: "r1", Window: &core.Window{Start: 3}},
		{Seq: 2, Op: inventory.OpReserve, ID: "r2", Window: &core.Window{Placements: []core.Placement{}}},
		{Seq: 3, Op: inventory.OpAdd, OK: true, Slots: slots.List{}},
		{Seq: 4, Op: inventory.OpReserve, OK: true, Window: eventWindow(2, math.Float64bits(math.NaN()), 1, "linux")},
		{Seq: 5, Op: inventory.OpAdd, OK: true, Slots: eventSlots(2, 1, math.Float64bits(math.Inf(1)), "linux")},
	} {
		checkEventEncoding(t, &enc, ev)
	}
}

// checkStateEncoding compares EncodeState and appendState, after a prefix
// it keeps, with the oracle.
func checkStateEncoding(t *testing.T, st *inventory.State) {
	t.Helper()
	want, wantErr := marshalState(st)
	got, err := appendState([]byte("kept"), st)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("appendState error %v, encoding/json error %v", err, wantErr)
	}
	if string(got[:4]) != "kept" || err != nil && len(got) != 4 {
		t.Fatalf("appendState returned %.40q, want the prefix kept", got)
	}
	if err != nil {
		return
	}
	if !bytes.Equal(got[4:], want) {
		t.Fatalf("state differs:\n got %s\nwant %s", got[4:], want)
	}
	if enc, err := EncodeState(st); err != nil || !bytes.Equal(enc, want) {
		t.Fatalf("EncodeState = %.80q (%v), want the oracle's bytes", enc, err)
	}
}

// TestAppendStateMatchesEncodingJSON: driven inventories with holds and
// commits, flat and regrouped by node as ExportState writes them; an empty
// base; every optional field zero; hold IDs that need escaping and a zero
// expiry; and a NaN hold window, which both encoders refuse.
func TestAppendStateMatchesEncodingJSON(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		inv, err := inventory.New(testkit.RandomList(randx.New(seed), 12, 3, 400), inventory.Options{MinSlotLength: 1})
		if err != nil {
			t.Fatal(err)
		}
		drive(t, inv, seed, 60)
		st := inv.ExportState()
		if len(st.Holds) == 0 || len(st.Committed) == 0 {
			t.Fatalf("seed %d: %d holds and %d commits, want some of each", seed, len(st.Holds), len(st.Committed))
		}
		checkStateEncoding(t, st)
	}
	checkStateEncoding(t, &inventory.State{})
	checkStateEncoding(t, &inventory.State{Base: slots.List{}, Holds: []inventory.HoldRecord{}})
	w := eventWindow(3, math.Float64bits(1e-7), math.Float64bits(1e21), "<os>")
	odd := &inventory.State{
		Version: 1, Seq: math.MaxUint64, NextID: 3,
		Counters: inventory.Counters{Reserves: 1, Cancelled: math.MaxUint64},
		Holds:    []inventory.HoldRecord{{ID: eventStrings[2], Window: w}, {ID: eventStrings[5], Window: w, Expires: time.Unix(0, -1)}},
		Committed: []inventory.CommitRecord{
			{ID: eventStrings[6], Window: w}, {ID: "", Window: &core.Window{}},
		},
	}
	checkStateEncoding(t, odd)
	odd.Holds[1].Window = eventWindow(2, 1, math.Float64bits(math.NaN()), "linux")
	checkStateEncoding(t, odd)
}

// TestAppendEventAllocs: the writer frames a 5-placement reserve and a
// release into its warm buffer without allocating.
func TestAppendEventAllocs(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	reserve, release := reserveEvent(t)
	s := &Store{buf: make([]byte, 0, 64<<10)}
	if n := testing.AllocsPerRun(100, func() {
		s.buf = s.buf[:0]
		if err := s.frame(reserve); err != nil {
			t.Fatal(err)
		}
		if err := s.frame(release); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("framing a reserve and a release: %v allocs/op, want 0", n)
	}
	if frames, err := readSegmentBytes(s.buf); err != nil || len(frames) != 2 {
		t.Fatalf("the frames read back as %d events (%v), want 2", len(frames), err)
	}
}

// TestAppendAllocs: once the writer's two queue slices are warm, an awaited
// append costs one allocation, the wait it returns, and an unawaited one
// none: the writer hands each batch's slice back as a later queue instead
// of leaving the next Append to grow a new one.
func TestAppendAllocs(t *testing.T) {
	if testkit.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	store, err := Create(t.TempDir(), 0, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	var seq uint64
	awaited := func() {
		seq++
		if err := store.Append(inventory.Event{Seq: seq, Op: inventory.OpCommit, ID: "r00000001", OK: true})(); err != nil {
			t.Fatal(err)
		}
	}
	unawaited := func() {
		seq++
		if wait := store.Append(inventory.Event{Seq: seq, Op: inventory.OpRelease, ID: "r00000001", OK: true}); wait != nil {
			t.Fatal("an unawaited append returned a wait")
		}
	}
	if n := testing.AllocsPerRun(200, awaited); n > 1 {
		t.Errorf("an awaited append: %v allocs/op, want at most 1", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		unawaited()
		unawaited()
		unawaited()
		awaited()
	}); n > 1 {
		t.Errorf("three unawaited appends and an awaited one: %v allocs/op, want at most 1 (the wait)", n)
	}
}

// reserveEvent is an accepted 5-task reserve over a book_deep-like
// environment, and the release of its hold.
func reserveEvent(tb testing.TB) (reserve, release inventory.Event) {
	tb.Helper()
	e := env.Generate(env.DefaultConfig().WithNodeCount(64).WithHorizon(600), randx.New(1))
	w, err := (core.AMP{}).Find(e.Slots, &job.Request{TaskCount: 5, Volume: 150, MaxCost: 5000})
	if err != nil {
		tb.Fatal(err)
	}
	reserve = inventory.Event{Seq: 41, Op: inventory.OpReserve, ID: "r00000041", OK: true, Window: w,
		Expires: time.Unix(1_700_000_000, 123456789)}
	release = inventory.Event{Seq: 42, Op: inventory.OpRelease, ID: "r00000041", OK: true}
	return reserve, release
}

// readSegmentBytes decodes the frames of a segment held in memory.
func readSegmentBytes(b []byte) ([]inventory.Event, error) {
	var evs []inventory.Event
	r := frameReader(b)
	for {
		payload, err := readFrame(r)
		if err != nil {
			if err == io.EOF {
				return evs, nil
			}
			return evs, err
		}
		ev, err := DecodeEvent(payload)
		if err != nil {
			return evs, err
		}
		evs = append(evs, ev)
	}
}

// TestAppendFailureWritesNothing: an event whose payload cannot be framed
// — a reserve whose window has a NaN cost, an add past MaxRecordBytes —
// fails its wait with an error naming its seq, latches the store, leaves
// no byte of its batch in the segment, and a reboot recovers every event
// before it.
func TestAppendFailureWritesNothing(t *testing.T) {
	nan := eventWindow(5, math.Float64bits(10), math.Float64bits(20), "linux")
	nan.Placements[2].Cost = math.NaN()
	big := make(slots.List, 300_000)
	node := testkit.Node(1, 2, 1)
	for i := range big {
		start := float64(i)*2 + 0.123456789012345
		big[i] = testkit.Slot(node, start, start+1.0000000001)
	}
	for _, tc := range []struct {
		name string
		ev   inventory.Event
	}{
		{"nan-reserve", inventory.Event{Op: inventory.OpReserve, ID: "r00099999", OK: true, Window: nan, Expires: time.Now().Add(time.Hour)}},
		{"oversize-add", inventory.Event{Op: inventory.OpAdd, OK: true, Slots: big}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			invOpts := inventory.Options{MinSlotLength: 1}
			inv, store := seedFlat(t, dir, testkit.RandomList(randx.New(4), 10, 3, 300), invOpts, Options{})
			drive(t, inv, 4, 30)
			if err := store.waitDurable(store.Stats().AppendedSeq); err != nil {
				t.Fatal(err)
			}
			want, before := stateSig(inv), segmentContent(t, dir)

			ev := tc.ev
			ev.Seq = store.Stats().AppendedSeq + 1
			err := store.Append(ev)()
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("event %d ", ev.Seq)) {
				t.Fatalf("wait = %v, want an error naming event %d", err, ev.Seq)
			}
			later := inventory.Event{Seq: ev.Seq + 1, Op: inventory.OpCommit, ID: "r00000001", OK: true}
			if wait := store.Append(later); wait == nil || wait() == nil {
				t.Fatal("an append after the failure succeeded: the store did not latch")
			}
			if after := segmentContent(t, dir); !bytes.Equal(after, before) {
				t.Fatalf("the segments went from %d to %d bytes: the failed batch reached the disk", len(before), len(after))
			}
			store.Close()

			stack, err := Boot(dir, noSeed, invOpts, Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer stack.Close()
			if got := stateSig(stack.Shards[0]); got != want {
				t.Fatalf("reboot recovered\n%s\nwant the state before the failure\n%s", got, want)
			}
		})
	}
}

// segmentContent is the concatenated content of dir's segments.
func segmentContent(t *testing.T, dir string) []byte {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var all []byte
	for _, sg := range segs {
		b, err := os.ReadFile(sg.path)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, b...)
	}
	return all
}
