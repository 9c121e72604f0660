package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"slotsel/internal/inventory"
)

// maxConflictRetries is how often a booking transaction retries a reserve
// that lost the race for its slots (409), as a broker would.
const maxConflictRetries = 3

// lane is one closed-loop client: one keep-alive connection, and buffers
// reused across operations so the generator's own allocation stays flat.
type lane struct {
	in   *inputs
	st   *stack
	tr   *tracer // non-nil in a traced run
	hc   *http.Client
	body bytes.Reader // request body, reset per request
	resp []byte       // response buffer, grown on demand
	id   []byte       // {"id":"..."} payload of commit/release

	// churnGate keeps owner churn and booking transactions apart: bookings
	// share it, a churn step holds it exclusively. At the parent commit a
	// Withdraw racing a cross-shard Commit can leave the window
	// half-committed (README.md, "Defect found"); the end-state checks
	// catch that, and the workload must not fail them. Finds ignore the
	// gate, so reads still run beside every mutation.
	churnGate *sync.RWMutex

	samples []findSample // every findCheckEvery-th find response, verified after the round
}

// findCheckEvery is the stride of the find output check.
const findCheckEvery = 100

// findSample is a find response kept for the output check, which runs
// after the round so that it costs the measured loop only a copy.
type findSample struct {
	body int // index into inputs.find
	resp []byte
}

func newLane(in *inputs, st *stack, tr *tracer, churnGate *sync.RWMutex) *lane {
	return &lane{
		in: in, st: st, tr: tr, churnGate: churnGate,
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		resp: make([]byte, 0, 8<<10),
	}
}

func (l *lane) close() { l.hc.CloseIdleConnections() }

// post sends body to path and reads the whole response into l.resp.
func (l *lane) post(path string, body []byte) (int, error) {
	l.body.Reset(body)
	req, err := http.NewRequest(http.MethodPost, l.st.base+path, &l.body)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	var sp int32
	traced := l.tr != nil && l.tr.on.Load()
	if traced {
		sp = l.tr.begin("client"+path, layerNet)
	}
	resp, err := l.hc.Do(req)
	if err == nil {
		l.resp, err = readInto(l.resp[:0], resp.Body)
		resp.Body.Close()
	}
	if traced {
		l.tr.end(sp, 0)
	}
	if err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// readInto appends r's content to buf without allocating once buf has
// grown to the response size.
func readInto(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

var idKey = []byte(`"id": "`)

// reservationID extracts the "id" field of a reserve response in place.
func reservationID(resp []byte) []byte {
	i := bytes.Index(resp, idKey)
	if i < 0 {
		return nil
	}
	rest := resp[i+len(idKey):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return nil
	}
	return rest[:j]
}

// do executes one operation and reports whether it succeeded: no transport
// error, every status inside the operation's success set.
func (l *lane) do(i int, o op) error {
	if l.tr != nil {
		l.tr.setRequest(i)
	}
	switch o.kind {
	case opFind:
		return l.find(i, o)
	case opBook:
		return l.transaction(o)
	default:
		return l.churn(o)
	}
}

func (l *lane) find(i int, o op) error {
	status, err := l.post("/v1/find", l.in.find[o.body].body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("find: status %d: %s", status, l.resp)
	}
	if i%findCheckEvery == 0 {
		n := len(l.samples)
		if n < cap(l.samples) {
			l.samples = l.samples[:n+1] // reuse the buffer of an earlier round
		} else {
			l.samples = append(l.samples, findSample{})
		}
		l.samples[n].body = o.body
		l.samples[n].resp = append(l.samples[n].resp[:0], l.resp...)
	}
	return nil
}

// transaction is reserve then commit or release, retried from the reserve
// when the race for the slots is lost.
func (l *lane) transaction(o op) error {
	settle := "/v1/release"
	if o.commit {
		settle = "/v1/commit"
	}
	l.churnGate.RLock()
	defer l.churnGate.RUnlock()
	for attempt := 0; ; attempt++ {
		status, err := l.post("/v1/reserve", l.in.book[o.body].body)
		if err != nil {
			return err
		}
		if status == http.StatusConflict && attempt < maxConflictRetries {
			continue
		}
		if status != http.StatusOK {
			return fmt.Errorf("reserve: status %d: %s", status, l.resp)
		}
		id := reservationID(l.resp)
		if id == nil {
			return fmt.Errorf("reserve: no id in %s", l.resp)
		}
		l.id = append(append(append(l.id[:0], `{"id":"`...), id...), `"}`...)
		status, err = l.post(settle, l.id)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("%s: status %d: %s", settle, status, l.resp)
		}
		return nil
	}
}

// churn is one owner taking a node away and giving it back: the paper's
// non-dedicated resource. It has no HTTP route, so the client that draws
// the operation calls the pool.
func (l *lane) churn(o op) error {
	l.churnGate.Lock()
	defer l.churnGate.Unlock()
	if _, err := l.st.pool.Withdraw(o.node); err != nil {
		return fmt.Errorf("withdraw node %d: %w", o.node, err)
	}
	if err := l.st.pool.Add(l.in.nodeSlots[o.node]); err != nil {
		return fmt.Errorf("add node %d: %w", o.node, err)
	}
	return nil
}

// statusz is the part of /v1/statusz the benchmark reads.
type statusz struct {
	Inventory struct {
		Counters inventory.Counters `json:"counters"`
	} `json:"inventory"`
	FindCache  inventory.CacheStats `json:"find_cache"`
	Durability struct {
		Fsyncs uint64 `json:"fsyncs"`
	} `json:"durability"`
}

// statuszClient never keeps a connection, so a stopped stack leaves no
// idle connection behind.
var statuszClient = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

func getStatusz(base string) (*statusz, error) {
	resp, err := statuszClient.Get(base + "/v1/statusz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("statusz answered %d", resp.StatusCode)
	}
	var s statusz
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, fmt.Errorf("statusz: %w", err)
	}
	return &s, nil
}
