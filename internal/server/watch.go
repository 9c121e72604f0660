package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"

	"slotsel/internal/core"
	"slotsel/internal/inventory"
	"slotsel/internal/obs"
	"slotsel/internal/persist"
)

// watchHub tracks the parked /v1/watch subscribers. Each waiter carries
// the time horizon its request's outcome depends on; the inventory's
// change feed (inventory.AddChangeListener) wakes a waiter only when a
// publication's change range overlaps that horizon, so unrelated churn
// re-evaluates nothing. The subscriber set is bounded: a parked watch
// holds one of the server's inflight slots for its whole long-poll, so
// past the limit new watches are rejected immediately rather than being
// allowed to starve the request pool.
type watchHub struct {
	mu       sync.Mutex
	waiters  map[*watchWaiter]struct{}
	limit    int
	draining bool

	// drainCh is closed by drain(); parked handlers select on it so a
	// graceful shutdown wakes every long-poll at once instead of waiting
	// out each deadline.
	drainCh chan struct{}

	delivered atomic.Uint64 // watches answered with a window
	expired   atomic.Uint64 // watches that timed out (404)
	rejected  atomic.Uint64 // watches rejected at the limit (429)
}

// watchWaiter is one parked subscription. ch carries a "state may have
// changed" signal; it is buffered so a notification arriving while the
// handler is mid-search is retained and re-checked, never lost.
type watchWaiter struct {
	lo, hi float64
	ch     chan struct{}
}

func newWatchHub(limit int) *watchHub {
	return &watchHub{
		waiters: make(map[*watchWaiter]struct{}),
		limit:   limit,
		drainCh: make(chan struct{}),
	}
}

// notify is the inventory change listener: wake every waiter whose
// horizon overlaps the published change range. Non-blocking — a waiter
// with a signal already pending needs no second one.
func (h *watchHub) notify(c inventory.Change) {
	h.mu.Lock()
	for w := range h.waiters {
		if c.Overlaps(w.lo, w.hi) {
			select {
			case w.ch <- struct{}{}:
			default:
			}
		}
	}
	h.mu.Unlock()
}

var (
	errWatchFull     = errors.New("watch subscriber limit reached")
	errWatchDraining = errors.New("server draining")
)

// register parks a new subscription over [lo, hi). The waiter MUST be
// registered before the first search runs: a change landing after the
// search but before parking is then caught by the buffered signal
// channel instead of being lost.
func (h *watchHub) register(lo, hi float64) (*watchWaiter, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.draining {
		return nil, errWatchDraining
	}
	if len(h.waiters) >= h.limit {
		return nil, errWatchFull
	}
	w := &watchWaiter{lo: lo, hi: hi, ch: make(chan struct{}, 1)}
	h.waiters[w] = struct{}{}
	return w, nil
}

func (h *watchHub) unregister(w *watchWaiter) {
	h.mu.Lock()
	delete(h.waiters, w)
	h.mu.Unlock()
}

func (h *watchHub) active() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.waiters)
}

// drain rejects future watches and wakes every parked one with 503.
// Idempotent.
func (h *watchHub) drain() {
	h.mu.Lock()
	if !h.draining {
		h.draining = true
		close(h.drainCh)
	}
	h.mu.Unlock()
}

// DrainWatches wakes every parked /v1/watch subscriber with 503 and
// rejects new ones. cmd/slotserve calls it before http.Server.Shutdown so
// long-polls cannot hold the graceful drain open for a full timeout;
// clients are expected to re-subscribe against the replacement server.
func (s *Server) DrainWatches() { s.watch.drain() }

// decodeWatch parses the /v1/watch query string: request (persist request
// JSON), alg or csa naming the search, exactly as the /v1/find body.
func (s *Server) decodeWatch(sc *reqScope, q url.Values) (*searchInputs, bool) {
	rawReq := q.Get("request")
	if rawReq == "" {
		sc.error(http.StatusBadRequest, `missing "request" query parameter`)
		return nil, false
	}
	req, err := persist.ParseRequest([]byte(rawReq))
	if err != nil {
		sc.error(http.StatusBadRequest, err.Error())
		return nil, false
	}
	return resolveSearch(sc, req, q.Get("alg"), q.Get("csa"))
}

// handleWatch is the long-poll: search now, and if no window exists, park
// until an overlapping inventory change makes one plausible, then search
// again. The first satisfying window is pushed with the snapshot version
// it is valid against; the request deadline answers 404 (same meaning as
// find's no-window), drain answers 503. The handler runs inside the
// normal admission gate and per-request deadline — it is the one handler
// that waits, so the one that builds a Context from the scope's deadline;
// an optional timeout_seconds query parameter shortens (never extends)
// the wait.
func (s *Server) handleWatch(sc *reqScope, r *http.Request) {
	q := r.URL.Query()
	in, ok := s.decodeWatch(sc, q)
	if !ok {
		return
	}
	wait := sc.deadline - obs.Now()
	if ts := q.Get("timeout_seconds"); ts != "" {
		secs, err := strconv.ParseFloat(ts, 64)
		if err != nil || !(secs > 0) { // not "<= 0": ParseFloat takes "NaN"
			sc.error(http.StatusBadRequest, "timeout_seconds must be a positive number")
			return
		}
		timeout, ok := seconds(secs)
		if !ok {
			sc.error(http.StatusBadRequest, fmt.Sprintf("timeout_seconds must be at most %d", maxSeconds))
			return
		}
		wait = min(wait, timeout)
	}
	ctx, cancel := context.WithTimeout(r.Context(), wait)
	defer cancel()
	lo, hi := in.key.Horizon()
	waiter, err := s.watch.register(lo, hi)
	if err != nil {
		if errors.Is(err, errWatchDraining) {
			sc.error(http.StatusServiceUnavailable, "server draining, re-subscribe later")
			return
		}
		s.watch.rejected.Add(1)
		sc.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
		sc.error(http.StatusTooManyRequests, "watch subscriber limit reached, retry later")
		return
	}
	defer s.watch.unregister(waiter)
	for {
		win, enc, snap, err := s.search(in)
		if !errors.Is(err, core.ErrNoWindow) {
			if err == nil {
				s.watch.delivered.Add(1)
			}
			replyFound(sc, win, enc, snap, err)
			return
		}
		select {
		case <-waiter.ch:
			// An overlapping publication landed; re-evaluate.
		case <-s.watch.drainCh:
			sc.error(http.StatusServiceUnavailable, "server draining, re-subscribe later")
			return
		case <-ctx.Done():
			s.watch.expired.Add(1)
			sc.error(http.StatusNotFound, "no feasible window before the watch deadline")
			return
		}
	}
}
