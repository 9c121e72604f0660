package persist

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"slotsel/internal/core"
	"slotsel/internal/testkit"
)

// The persist readers are the recovery path's parsing surface: the durable
// journal (internal/wal) feeds them bytes straight off disk, so arbitrary
// truncation and corruption must surface as errors, never as panics. Each
// fuzz target also checks re-encode stability: anything a reader accepts
// must survive a write/read cycle unchanged — a reader that accepts a value
// its writer cannot reproduce would make recovered state unreproducible.

// seedCorpus adds valid encodings plus systematic truncations of them, so
// the mutator starts from the interesting boundary cases.
func seedCorpus(f *testing.F, valid []byte) {
	f.Add(valid)
	for _, cut := range []int{0, 1, len(valid) / 2, len(valid) - 1} {
		if cut >= 0 && cut < len(valid) {
			f.Add(valid[:cut])
		}
	}
	f.Add([]byte(`{"version": 1}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[]`))
}

func FuzzReadSlotList(f *testing.F) {
	e := testkit.SmallEnv(1, 10, 300)
	var buf bytes.Buffer
	if err := WriteSlotList(&buf, e.Slots); err != nil {
		f.Fatal(err)
	}
	seedCorpus(f, buf.Bytes())
	f.Add([]byte(`{"version":1,"nodes":[{"id":1,"perf":2}],"slots":[{"node":1,"start":0,"end":5}],"slots":[{"node":1}]}`))
	f.Add([]byte(`{"version":1,"nodes":[{"id":1}],"slots":[{"node":1,"start":4,"end":9},{"node":1,"start":0,"end":5}],"extra":true}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSlotList(t, data)
		l, err := ReadSlotList(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteSlotList(&out, l); err != nil {
			t.Fatalf("accepted list fails to re-encode: %v", err)
		}
		l2, err := ReadSlotList(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded list fails to re-read: %v", err)
		}
		if len(l2) != len(l) {
			t.Fatalf("re-read list has %d slots, want %d", len(l2), len(l))
		}
		for i := range l {
			if l2[i].Interval != l[i].Interval || *l2[i].Node != *l[i].Node {
				t.Fatalf("slot %d differs after re-encode", i)
			}
		}
	})
}

func FuzzReadRequest(f *testing.F) {
	req := testkit.SmallRequest(3, 300)
	var buf bytes.Buffer
	if err := WriteRequest(&buf, &req); err != nil {
		f.Fatal(err)
	}
	seedCorpus(f, buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := ReadRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteRequest(&out, r); err != nil {
			t.Fatalf("accepted request fails to re-encode: %v", err)
		}
		r2, err := ReadRequest(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded request fails to re-read: %v", err)
		}
		if r2.TaskCount != r.TaskCount || r2.Volume != r.Volume || r2.MaxCost != r.MaxCost ||
			r2.Deadline != r.Deadline || r2.MinPerf != r.MinPerf {
			t.Fatalf("request differs after re-encode: %+v vs %+v", r2, r)
		}
	})
}

func FuzzReadWindow(f *testing.F) {
	// ReadWindow re-links against an environment; a fixed one is part of
	// the target so the fuzzer can find inputs that reference (and fail to
	// reference) its real slots.
	e := testkit.SmallEnv(3, 20, 400)
	req := testkit.SmallRequest(2, 300)
	var valid []byte
	if w, err := (core.AMP{}).Find(e.Slots, &req); err == nil {
		var buf bytes.Buffer
		if err := WriteWindow(&buf, w); err != nil {
			f.Fatal(err)
		}
		valid = buf.Bytes()
	}
	seedCorpus(f, valid)
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := ReadWindow(bytes.NewReader(data), e)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteWindow(&out, w); err != nil {
			t.Fatalf("accepted window fails to re-encode: %v", err)
		}
		w2, err := ReadWindow(bytes.NewReader(out.Bytes()), e)
		if err != nil {
			t.Fatalf("re-encoded window fails to re-read: %v", err)
		}
		if testkit.WindowSignature(w2) != testkit.WindowSignature(w) {
			t.Fatalf("window differs after re-encode:\n got %s\nwant %s",
				testkit.WindowSignature(w2), testkit.WindowSignature(w))
		}
	})
}

func FuzzReadOwnedWindow(f *testing.F) {
	e := testkit.SmallEnv(3, 20, 400)
	req := testkit.SmallRequest(2, 300)
	var valid []byte
	if w, err := (core.AMP{}).Find(e.Slots, &req); err == nil {
		if valid, err = new(Encoder).AppendOwnedWindow(nil, w); err != nil {
			f.Fatal(err)
		}
	}
	seedCorpus(f, valid)
	f.Add([]byte(`{"version":1,"start":0,"nodes":[{"id":1}],"nodes":[],"placements":[{"node":1,"exec":1,"slot_end":2}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkOwnedWindow(t, data)
		w, err := ParseOwnedWindow(data)
		if err != nil {
			return
		}
		out, err := new(Encoder).AppendOwnedWindow(nil, w)
		if err != nil {
			t.Fatalf("accepted window fails to re-encode: %v", err)
		}
		w2, err := ParseOwnedWindow(out)
		if err != nil {
			t.Fatalf("re-encoded window fails to re-read: %v", err)
		}
		if testkit.WindowSignature(w2) != testkit.WindowSignature(w) {
			t.Fatalf("window differs after re-encode:\n got %s\nwant %s",
				testkit.WindowSignature(w2), testkit.WindowSignature(w))
		}
	})
}

func FuzzReadEnvironment(f *testing.F) {
	e := testkit.SmallEnv(1, 10, 300)
	var buf bytes.Buffer
	if err := WriteEnvironment(&buf, e); err != nil {
		f.Fatal(err)
	}
	seedCorpus(f, buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		var in, ref envJSON
		if in.scan(NewScanner(data)) {
			if err := json.NewDecoder(bytes.NewReader(data)).Decode(&ref); err != nil || !reflect.DeepEqual(in, ref) {
				t.Fatalf("Scanner took %q as %+v, encoding/json as %+v (%v)", data, in, ref, err)
			}
		}
		got, err := ReadEnvironment(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteEnvironment(&out, got); err != nil {
			t.Fatalf("accepted environment fails to re-encode: %v", err)
		}
		if _, err := ReadEnvironment(bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("re-encoded environment fails to re-read: %v", err)
		}
	})
}
