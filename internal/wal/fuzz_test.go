package wal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"slotsel/internal/inventory"
	"slotsel/internal/persist"
	"slotsel/internal/randx"
	"slotsel/internal/testkit"
)

// The WAL's envelope decoders read through the persist Scanner and fall
// back to encoding/json for anything outside its subset. These targets
// hold them to encoding/json on arbitrary bytes: the same event or state,
// or the same error text.

// realPayloads records a journal that exercises every op kind and returns
// its event payloads and the payload of a snapshot of its final state.
func realPayloads(tb testing.TB) (events [][]byte, state []byte) {
	tb.Helper()
	inv, err := inventory.New(testkit.RandomList(randx.New(5), 10, 3, 300), inventory.Options{MinSlotLength: 1, Record: true})
	if err != nil {
		tb.Fatal(err)
	}
	drive(tb, inv, 5, 40)
	for _, ev := range inv.Journal() {
		p, err := encodeEvent(ev)
		if err != nil {
			tb.Fatal(err)
		}
		events = append(events, p)
	}
	if state, err = EncodeState(inv.ExportState()); err != nil {
		tb.Fatal(err)
	}
	return events, state
}

// referenceEvent is DecodeEvent with encoding/json alone.
func referenceEvent(payload []byte) (inventory.Event, error) {
	var in eventJSON
	if err := json.Unmarshal(payload, &in); err != nil {
		return inventory.Event{}, fmt.Errorf("wal: decoding event: %w", err)
	}
	return in.event()
}

// referenceState is DecodeState with encoding/json alone.
func referenceState(payload []byte) (*inventory.State, error) {
	var in stateJSON
	if err := json.Unmarshal(payload, &in); err != nil {
		return nil, fmt.Errorf("wal: decoding state: %w", err)
	}
	return in.state()
}

// checkEvent compares DecodeEvent with referenceEvent and, when the Scanner
// takes the payload, its envelope with encoding/json's field by field.
func checkEvent(t testing.TB, payload []byte) (scanned bool) {
	t.Helper()
	want, wantErr := referenceEvent(payload)
	got, err := DecodeEvent(payload)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("DecodeEvent(%q) error %q, encoding/json %q", payload, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeEvent(%q) = %+v, encoding/json %+v", payload, got, want)
	}
	var in, ref eventJSON
	if s := persist.NewScanner(payload); in.scan(s) && s.End() {
		if err := json.Unmarshal(payload, &ref); err != nil || !reflect.DeepEqual(in, ref) {
			t.Fatalf("Scanner took %q as %+v, encoding/json as %+v (%v)", payload, in, ref, err)
		}
		return true
	}
	return false
}

// checkState is checkEvent for snapshot payloads.
func checkState(t testing.TB, payload []byte) (scanned bool) {
	t.Helper()
	want, wantErr := referenceState(payload)
	got, err := DecodeState(payload)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("DecodeState(%q) error %q, encoding/json %q", payload, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeState(%q) = %+v, encoding/json %+v", payload, got, want)
	}
	var in, ref stateJSON
	if s := persist.NewScanner(payload); in.scan(s) && s.End() {
		if err := json.Unmarshal(payload, &ref); err != nil || !reflect.DeepEqual(in, ref) {
			t.Fatalf("Scanner took %q as %+v, encoding/json as %+v (%v)", payload, in, ref, err)
		}
		return true
	}
	return false
}

// TestDecodersScanWhatTheWALWrites: every frame the WAL writes, legacy gseq
// frames included, goes through the Scanner — or recovery's fast path is
// dead code — and what it must leave goes to encoding/json.
func TestDecodersScanWhatTheWALWrites(t *testing.T) {
	events, state := realPayloads(t)
	for _, p := range events {
		for _, q := range [][]byte{p, withGseqKey(p, 7)} {
			if !checkEvent(t, q) {
				t.Errorf("event %s: not taken by the Scanner", q)
			}
		}
	}
	for _, q := range [][]byte{state, withGseqKey(state, 7)} {
		if !checkState(t, q) {
			t.Errorf("state %s: not taken by the Scanner", q)
		}
	}
	// The base decodes in the order it was written, node by node, and not
	// sorted: re-encoding the decoded state gives back the same bytes.
	st, err := DecodeState(state)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := EncodeState(st); err != nil || !bytes.Equal(again, state) {
		t.Errorf("DecodeState then EncodeState = %s (%v), want the bytes decoded", again, err)
	}
	for _, tc := range []struct {
		in      string
		scanned bool
	}{
		{`{"seq":3,"op":1,"ok":true}`, true},
		{`{"seq":3,"op":1,"ok":true} x`, false},
		{`{"seq":-1,"op":1}`, false},
		{`{"seq":-0,"op":1}`, false},
		{`{"seq":3,"Op":1}`, false},
		{`{"seq":3,"op":1,"ok":null}`, false},
		{`{"seq":3,"op":1,"id":"h1"}`, true},
		{`{"seq":3,"op":1,"id":"h\u0031"}`, false},
		{`{"seq":3,"op":1,"expires":1e3}`, false},
		{`{"seq":3,"op":1,"window":{"version":1,"a":[true,false,"x",{"b":[]}]}}`, true},
		{`{"seq":3,"op":1,"slots":7}`, true},
		{`{"seq":3,"op":1,"slots":null}`, false},
		{`{"seq":3,"op":1,"extra":1}`, false},
	} {
		if got := checkEvent(t, []byte(tc.in)); got != tc.scanned {
			t.Errorf("event %s: taken by the Scanner = %v, want %v", tc.in, got, tc.scanned)
		}
	}
	for _, tc := range []struct {
		in      string
		scanned bool
	}{
		{`{"format":1,"seq":2,"counters":{"reserves":3}}`, true},
		{`{"format":1,"counters":{"reserves":3},"counters":{"commits":1}}`, false},
		{`{"format":1,"counters":{"reserves":"3"}}`, false},
		{`{"format":1,"holds":[{"id":"a","expires":5}],"holds":[{"id":"b"}]}`, false},
		{`{"format":1,"committed":[],"committed":[]}`, false},
		{`{"format":1,"holds":[],"committed":[]}`, true},
		{`{"format":2,"base":{}}`, true},
	} {
		if got := checkState(t, []byte(tc.in)); got != tc.scanned {
			t.Errorf("state %s: taken by the Scanner = %v, want %v", tc.in, got, tc.scanned)
		}
	}
}

func FuzzDecodeEvent(f *testing.F) {
	events, _ := realPayloads(f)
	for _, p := range events {
		f.Add(p)
	}
	f.Add(withGseqKey(events[len(events)-1], 7))
	f.Add(events[0][:len(events[0])/2])
	f.Fuzz(func(t *testing.T, payload []byte) { checkEvent(t, payload) })
}

func FuzzDecodeState(f *testing.F) {
	_, state := realPayloads(f)
	f.Add(state)
	f.Add(withGseqKey(state, 7))
	f.Add(state[:len(state)/2])
	f.Add([]byte(`{"format":1,"holds":[{"id":"a","expires":5}],"holds":[{"id":"b"}]}`))
	f.Fuzz(func(t *testing.T, payload []byte) { checkState(t, payload) })
}
