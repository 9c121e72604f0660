package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStatsAggregation(t *testing.T) {
	var st Stats
	st.ScanDone(ScanStats{Slots: 10, Matched: 6, Candidates: 4, PeakWindow: 3, Visits: 2})
	st.ScanDone(ScanStats{Slots: 7, Matched: 5, Candidates: 5, PeakWindow: 5, Visits: 1, EarlyStop: true})
	st.SelectDone(SelectStats{Alg: "AMP", Found: true, Elapsed: 10 * time.Microsecond})
	st.SelectDone(SelectStats{Alg: "AMP", Found: false, Elapsed: 30 * time.Microsecond})
	st.SelectDone(SelectStats{Alg: "MinCost", Found: true, Elapsed: 5 * time.Microsecond})
	st.BatchDone(BatchStats{Jobs: 3, AltsFound: 9, CutOps: 9, Elapsed: 3 * time.Millisecond})
	st.BatchDone(BatchStats{Jobs: 2, AltsFound: 4, CutOps: 4, Elapsed: time.Millisecond})

	snap := st.Snapshot()
	if snap.Scan.Scans != 2 || snap.Scan.Slots != 17 || snap.Scan.Matched != 11 {
		t.Errorf("scan agg = %+v", snap.Scan)
	}
	if snap.Scan.PeakWindow != 5 {
		t.Errorf("PeakWindow = %d, want max 5", snap.Scan.PeakWindow)
	}
	if snap.Scan.EarlyStops != 1 {
		t.Errorf("EarlyStops = %d, want 1", snap.Scan.EarlyStops)
	}
	amp := snap.Selects["AMP"]
	if amp.Searches != 2 || amp.Found != 1 || amp.Min != 10*time.Microsecond || amp.Max != 30*time.Microsecond {
		t.Errorf("AMP agg = %+v", amp)
	}
	if want := (BatchAgg{Batches: 2, Jobs: 5, AltsFound: 13, CutOps: 13, Elapsed: 4 * time.Millisecond}); snap.Batch != want {
		t.Errorf("batch agg = %+v, want %+v", snap.Batch, want)
	}

	var buf bytes.Buffer
	snap.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{
		"slots examined:   17",
		"candidates kept:  9",
		"peak window size: 5",
		"early stops:      1",
		"AMP",
		"MinCost",
		"alternatives found: 13",
		"wall time:          4ms",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText missing %q in:\n%s", want, out)
		}
	}
}

func TestStatsConcurrent(t *testing.T) {
	var st Stats
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				st.ScanDone(ScanStats{Slots: 1})
				st.SelectDone(SelectStats{Alg: "A", Elapsed: time.Nanosecond})
			}
		}()
	}
	wg.Wait()
	snap := st.Snapshot()
	if snap.Scan.Scans != 800 || snap.Scan.Slots != 800 {
		t.Errorf("scan agg after concurrent adds = %+v", snap.Scan)
	}
	if snap.Selects["A"].Searches != 800 {
		t.Errorf("select agg = %+v", snap.Selects["A"])
	}
}

func TestCombine(t *testing.T) {
	if got := Combine(); got != nil {
		t.Errorf("Combine() = %v, want nil", got)
	}
	if got := Combine(nil, nil); got != nil {
		t.Errorf("Combine(nil, nil) = %v, want nil", got)
	}
	st := &Stats{}
	if got := Combine(nil, st); got != Collector(st) {
		t.Errorf("Combine(nil, st) = %v, want the single collector itself", got)
	}
	tr := NewTrace(4)
	combined := Combine(st, tr)
	m, ok := combined.(Multi)
	if !ok || len(m) != 2 {
		t.Fatalf("Combine(st, tr) = %T %v, want Multi of 2", combined, combined)
	}
	combined.ScanDone(ScanStats{Slots: 3})
	combined.Span(Span{Name: "x"})
	if st.Snapshot().Scan.Slots != 3 {
		t.Error("fan-out did not reach Stats")
	}
	if len(tr.Spans()) != 1 {
		t.Error("fan-out did not reach Trace")
	}
}

func TestTraceRing(t *testing.T) {
	tr := NewTrace(3)
	for i := 0; i < 5; i++ {
		tr.Span(Span{Name: fmt.Sprintf("s%d", i), Start: time.Duration(i)})
	}
	if tr.Dropped() != 2 {
		t.Errorf("Dropped = %d, want 2", tr.Dropped())
	}
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("retained %d spans, want 3", len(spans))
	}
	for i, want := range []string{"s2", "s3", "s4"} {
		if spans[i].Name != want {
			t.Errorf("spans[%d] = %q, want %q (oldest evicted first)", i, spans[i].Name, want)
		}
	}
}

func TestTraceSpanOrdering(t *testing.T) {
	tr := NewTrace(8)
	tr.Span(Span{Name: "late", Start: 30})
	tr.Span(Span{Name: "early", Start: 10})
	tr.Span(Span{Name: "mid", Start: 20})
	spans := tr.Spans()
	if spans[0].Name != "early" || spans[1].Name != "mid" || spans[2].Name != "late" {
		t.Errorf("spans not ordered by start: %v", spans)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := NewTrace(8)
	tr.Span(Span{Name: "scan", Cat: "scan", Start: 2 * time.Microsecond, Dur: 5 * time.Microsecond, Arg: "slots=10"})
	tr.Span(Span{Name: "AMP", Cat: "select", Start: 8 * time.Microsecond, Dur: time.Microsecond})

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, buf.String())
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	ev := events[0]
	if ev["name"] != "scan" || ev["cat"] != "scan" || ev["ph"] != "X" {
		t.Errorf("event 0 = %v", ev)
	}
	if ev["ts"].(float64) != 2 || ev["dur"].(float64) != 5 {
		t.Errorf("timestamps not in microseconds: ts=%v dur=%v", ev["ts"], ev["dur"])
	}
	args, _ := ev["args"].(map[string]any)
	if args["detail"] != "slots=10" {
		t.Errorf("args = %v", ev["args"])
	}
	if _, hasArgs := events[1]["args"]; hasArgs {
		t.Error("event without Arg should omit args")
	}
	for i, ev := range events {
		if ev["pid"] != float64(1) || ev["tid"] != float64(0) {
			t.Errorf("event %d: pid %v tid %v, want the constant 1 and 0 viewers load", i, ev["pid"], ev["tid"])
		}
	}
}

func TestWriteChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := NewTrace(4).WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("empty trace must still encode a JSON array: %v\n%s", err, buf.String())
	}
	if len(events) != 0 {
		t.Errorf("got %d events, want 0", len(events))
	}
}

func TestNewTracePanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTrace(0) did not panic")
		}
	}()
	NewTrace(0)
}

func TestServePprof(t *testing.T) {
	addr, stop, err := ServePprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/pprof/ = %d, want 200", resp.StatusCode)
	}
	if err := stop(); err != nil {
		t.Errorf("stop: %v", err)
	}
}

func TestNowMonotonic(t *testing.T) {
	a := Now()
	b := Now()
	if b < a {
		t.Errorf("Now went backwards: %v then %v", a, b)
	}
}
