package server

import (
	"math"
	"time"
)

// retryAfter computes the Retry-After hint for a shed request from the
// current queue depth and the observed mean service time.
func (s *Server) retryAfter() int {
	return retryAfterSeconds(s.queued.Load(), s.opts.MaxInflight, s.avgService())
}

// avgService is the observed mean handler wall time of non-watch
// requests; zero until the first one completes.
func (s *Server) avgService() time.Duration {
	n := s.serviced.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(s.busyNanos.Load() / n)
}

// Retry-After clamps: never tell a client to come back sooner than 1s
// (sub-second retry storms defeat the point of shedding) or later than 30s
// (the estimate is too noisy to justify parking clients for minutes).
const (
	minRetryAfterSeconds = 1
	maxRetryAfterSeconds = 30
)

// retryAfterSeconds estimates how long a shed client should wait: the time
// for the current queue (plus this request) to drain at the observed
// drain rate — maxInflight executors retiring one request every avgService
// — rounded up to whole seconds and clamped to [1, 30].
//
// The rate is guarded explicitly: with no service-time observation yet
// (fresh boot) or a degenerate executor count, the drain rate is zero or
// undefined, and the estimate falls back to the 1-second floor rather
// than dividing by zero or reporting a clamp derived from stale state. A
// post-drain idle server (queue emptied after a burst) takes the same
// floor by arithmetic: zero waiters drain within one mean service time.
func retryAfterSeconds(queued int64, maxInflight int, avgService time.Duration) int {
	if queued < 0 {
		queued = 0 // the gauge can transiently undershoot during admits
	}
	svc := avgService.Seconds()
	if svc <= 0 || maxInflight <= 0 {
		return minRetryAfterSeconds
	}
	rate := float64(maxInflight) / svc // requests retired per second
	secs := int(math.Ceil(float64(queued+1) / rate))
	if secs < minRetryAfterSeconds {
		return minRetryAfterSeconds
	}
	if secs > maxRetryAfterSeconds {
		return maxRetryAfterSeconds
	}
	return secs
}
