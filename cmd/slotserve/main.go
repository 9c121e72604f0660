// Command slotserve runs the slot-inventory scheduling service: a stateful
// HTTP front-end over one slot pool, serving concurrent find / reserve /
// commit / release traffic with optimistic conflict detection, TTL'd holds
// and bounded admission control.
//
// Usage:
//
//	slotserve -slots FILE [-addr HOST:PORT] [-workers N] [-queue N]
//	          [-ttl D] [-timeout D] [-min-slot-length L]
//	          [-data-dir DIR] [-snapshot-interval D] [-snapshot-every N]
//	          [-log-format json|off]
//	          [-stats] [-trace FILE] [-pprof ADDR]
//
// -slots accepts either a cmd/slotgen environment snapshot or a bare slot
// list (cmd/slotgen -slots-only). A typical pipeline:
//
//	slotgen -nodes 50 -seed 7 -o env.json
//	slotserve -addr localhost:8080 -slots env.json
//
// # Durability
//
// With -data-dir the inventory is durable: every accepted reserve, commit,
// add and withdraw is fsync'd to a write-ahead log in DIR before the HTTP
// response is sent, periodic snapshots compact the log, and a restart (or
// crash) recovers every acknowledged hold and commit — -slots is then only
// needed the first time, to seed an empty directory. A release, an expiry
// or a refused request answers without waiting for the disk; a crash may
// undo it, bringing a released hold back until its original deadline. On SIGTERM the server drains, writes a
// final snapshot, and closes the log cleanly.
//
// If a WAL write or fsync fails, the store latches the error and the
// server fail-stops its writes: every later mutation journaled to that
// store answers 503 until the process is restarted, while reads keep
// serving.
//
//	slotserve -addr :8080 -slots env.json -data-dir /var/lib/slotserve
//
// Then drive it with curl (see the README's "Running as a service"):
//
//	curl -s localhost:8080/v1/reserve -d '{"request":{"tasks":2,"volume":50}}'
//	curl -s localhost:8080/v1/commit -d '{"id":"r00000001"}'
//
// Telemetry (see the README's "Telemetry"): GET /metricsz serves
// Prometheus text exposition (always on), every response carries an
// X-Trace-Id header, -log-format=json writes one structured request-log
// line per request to stdout sharing that trace ID, and -pprof ADDR
// serves the runtime profiles.
//
// The process drains in-flight requests and exits on SIGINT/SIGTERM.
package main

import (
	"os"

	"slotsel/internal/cli"
)

func main() {
	os.Exit(cli.Slotserve(os.Args[1:], os.Stdout, os.Stderr))
}
