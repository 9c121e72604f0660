package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"slotsel/internal/inventory"
	"slotsel/internal/obs"
	"slotsel/internal/persist"
	"slotsel/internal/server"
	"slotsel/internal/slots"
	"slotsel/internal/telemetry"
	"slotsel/internal/telemetry/reqlog"
	"slotsel/internal/wal"
)

// slotserveTestHook, when set by a test, receives the bound address and a
// shutdown trigger instead of the process waiting for SIGINT/SIGTERM.
var slotserveTestHook func(addr string, shutdown func())

// Slotserve runs the slot-inventory scheduling service (see cmd/slotserve).
func Slotserve(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("slotserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "localhost:8080", "listen `address`")
		slotFile = fs.String("slots", "", "slot `file`: a cmd/slotgen environment snapshot or a bare slot list")
		workers  = fs.Int("workers", 32, "max concurrently executing requests")
		queue    = fs.Int("queue", 64, "max requests waiting for a worker before shedding with 429")
		ttl      = fs.Duration("ttl", 30*time.Second, "default reservation hold lifetime")
		timeout  = fs.Duration("timeout", 5*time.Second, "per-request deadline")
		minLen   = fs.Float64("min-slot-length", 0, "drop free fragments shorter than this")
		logFmt   = fs.String("log-format", "off", "request log `format`: json (one line per request on stdout) or off")
		dataDir  = fs.String("data-dir", "", "WAL `directory`: fsync every mutation and recover state across restarts")
		snapIvl  = fs.Duration("snapshot-interval", time.Minute, "minimum time between periodic snapshots (with -data-dir)")
		snapEvts = fs.Uint64("snapshot-every", 4096, "also snapshot once this many events accumulate since the last one; 0 = time-based only (with -data-dir)")
		shards   = fs.Int("shards", 1, "inventory `shards`: >1 partitions nodes by ID hash across independent shards, each with its own lock, published snapshot, and (with -data-dir) WAL directory")
	)
	obsF := registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *shards < 1 {
		fmt.Fprintln(stderr, "slotserve: -shards must be at least 1")
		return 2
	}
	if *slotFile == "" && *dataDir == "" {
		fmt.Fprintln(stderr, "slotserve: -slots is required (or -data-dir to recover)")
		fs.Usage()
		return 2
	}

	var reqLog *reqlog.Logger
	switch *logFmt {
	case "json":
		reqLog = reqlog.New(stdout)
	case "off", "":
		// reqLog stays nil: logging off.
	default:
		fmt.Fprintf(stderr, "slotserve: unknown -log-format %q (want json or off)\n", *logFmt)
		return 2
	}

	stats := &obs.Stats{}
	col, err := obsF.setup("slotserve", stats, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "slotserve:", err)
		return 1
	}

	// The metrics registry is always on: /metricsz costs nothing until
	// scraped (counters are plain atomics), and a production service with
	// no metrics endpoint is not observable. The telemetry adapter joins
	// the obs seam so kernel counters (scans, per-algorithm searches,
	// batch accounting) surface as slotsel_* series next to the server's
	// slotserve_* families.
	reg := telemetry.NewRegistry()
	col = obs.Combine(col, telemetry.NewCollector(reg))

	invOpts := inventory.Options{
		MinSlotLength: *minLen,
		DefaultTTL:    *ttl,
		Collector:     col,
		Shards:        *shards,
	}
	srvOpts := server.Options{
		MaxInflight:    *workers,
		QueueDepth:     *queue,
		RequestTimeout: *timeout,
		Collector:      col,
		Metrics:        reg,
		RequestLog:     reqLog,
	}

	var inv inventory.Pool
	var stores []*wal.Store // -data-dir: the one store, or store i behind shard i
	closeStores := func() {
		for _, st := range stores {
			st.Close()
		}
	}
	switch {
	case *dataDir != "" && *shards > 1:
		walOpts := wal.Options{OnFsync: server.FsyncHistogram(reg)}
		pool, sts, results, err := wal.OpenSharded(*dataDir, *shards, invOpts, walOpts)
		if err != nil {
			fmt.Fprintln(stderr, "slotserve:", err)
			return 1
		}
		stores = sts
		srvOpts.WALs = sts
		if pool != nil {
			inv = pool
			if *slotFile != "" {
				fmt.Fprintf(stderr, "slotserve: %s already holds state; -slots %s ignored (recovered state wins)\n", *dataDir, *slotFile)
			}
			events, truncated := 0, false
			for _, res := range results {
				events += len(res.Events)
				truncated = truncated || res.Truncated
			}
			fmt.Fprintf(stderr, "slotserve: recovered %d shards from %s (%d events replayed, torn tail truncated: %v)\n",
				*shards, *dataDir, events, truncated)
		}

	case *dataDir != "":
		walOpts := wal.Options{OnFsync: server.FsyncHistogram(reg)}
		recovered, store, res, err := wal.Open(*dataDir, invOpts, walOpts)
		if err != nil {
			fmt.Fprintln(stderr, "slotserve:", err)
			return 1
		}
		stores = []*wal.Store{store}
		srvOpts.WAL = store
		if recovered != nil {
			inv = recovered
			if *slotFile != "" {
				fmt.Fprintf(stderr, "slotserve: %s already holds state; -slots %s ignored (recovered state wins)\n", *dataDir, *slotFile)
			}
			fmt.Fprintf(stderr, "slotserve: recovered seq %d from %s (%d events replayed, torn tail truncated: %v)\n",
				res.LastSeq, *dataDir, len(res.Events), res.Truncated)
		}

	default:
		list, err := loadSlotFile(*slotFile)
		if err != nil {
			fmt.Fprintln(stderr, "slotserve:", err)
			return 1
		}
		inv, err = inventory.NewPool(list, invOpts)
		if err != nil {
			fmt.Fprintln(stderr, "slotserve:", err)
			return 1
		}
	}
	if inv == nil {
		// A fresh -data-dir: seed it from -slots, each store journaling
		// the construction of its inventory.
		if *slotFile == "" {
			closeStores()
			fmt.Fprintf(stderr, "slotserve: %s is empty; -slots is required to seed a fresh durable inventory\n", *dataDir)
			return 2
		}
		list, err := loadSlotFile(*slotFile)
		if err == nil && len(stores) > 1 {
			inv, err = wal.SeedSharded(list, invOpts, stores)
		} else if err == nil {
			seedOpts := invOpts
			seedOpts.Sink = stores[0]
			inv, err = inventory.New(list, seedOpts)
		}
		if err != nil {
			closeStores()
			fmt.Fprintln(stderr, "slotserve:", err)
			return 1
		}
	}
	handler := server.New(inv, srvOpts)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "slotserve:", err)
		return 1
	}
	// Signals are caught before the address is announced: whoever reads the
	// line below may send SIGTERM at once, and one that arrives before Notify
	// kills the process instead of draining it.
	sig := make(chan os.Signal, 1)
	if slotserveTestHook == nil {
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	}
	fmt.Fprintf(stderr, "slotserve: %d free slots loaded, listening on http://%s\n",
		len(inv.Snapshot().Slots), ln.Addr())

	// Background upkeep: one snapshotter per store, each snapshotting its
	// own inventory's state on its own cadence. Stopped (and drained)
	// before the WAL stores close.
	bgStop := make(chan struct{})
	var bg sync.WaitGroup
	// journaled(i) is the inventory whose journal stores[i] holds: the one
	// pool, or shard i of a sharded one.
	journaled := func(i int) *inventory.Inventory {
		if sp, ok := inv.(*inventory.Sharded); ok {
			return sp.Shard(i)
		}
		return inv.(*inventory.Inventory)
	}
	for i, st := range stores {
		bg.Add(1)
		go func(inv *inventory.Inventory, st *wal.Store) {
			defer bg.Done()
			snapshotLoop(inv, st, *snapIvl, *snapEvts, bgStop, stderr)
		}(journaled(i), st)
	}

	srv := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	stopc := make(chan struct{})
	if slotserveTestHook != nil {
		slotserveTestHook(ln.Addr().String(), func() { close(stopc) })
	} else {
		go func() {
			<-sig
			close(stopc)
		}()
	}

	code := 0
	select {
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(stderr, "slotserve:", err)
			code = 1
		}
	case <-stopc:
		// Wake parked /v1/watch long-polls with 503 first, so they cannot
		// hold the graceful drain open until their deadlines.
		handler.DrainWatches()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(stderr, "slotserve: shutdown:", err)
			code = 1
		}
		cancel()
		fmt.Fprintln(stderr, "slotserve: drained, bye")
	}

	close(bgStop)
	bg.Wait()
	// Final flush, store by store: a parting snapshot makes the next boot's
	// replay instant, and Close drains any still-queued appends to disk.
	for i, st := range stores {
		if stats := st.Stats(); stats.AppendedSeq > stats.SnapshotSeq {
			if err := st.Snapshot(journaled(i).ExportState()); err != nil {
				fmt.Fprintf(stderr, "slotserve: final snapshot (store %d): %v\n", i, err)
				code = 1
			}
		}
		if err := st.Close(); err != nil {
			fmt.Fprintf(stderr, "slotserve: wal close (store %d): %v\n", i, err)
			code = 1
		}
	}

	if obsF.stats {
		stats.Snapshot().WriteText(stdout)
	}
	if err := obsF.finish(); err != nil {
		fmt.Fprintln(stderr, "slotserve:", err)
		return 1
	}
	return code
}

// snapshotLoop writes periodic snapshots: once interval has passed since
// the last one (or every journal events have accumulated, when every > 0)
// and at least one new event exists. The check granule is one second —
// snapshot timing does not need to be finer, and the checks are two
// atomic loads.
func snapshotLoop(inv *inventory.Inventory, store *wal.Store, interval time.Duration, every uint64, stop <-chan struct{}, stderr io.Writer) {
	granule := time.Second
	if interval > 0 && interval < granule {
		granule = interval
	}
	tick := time.NewTicker(granule)
	defer tick.Stop()
	last := time.Now()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		st := store.Stats()
		pending := st.AppendedSeq - st.SnapshotSeq
		if pending == 0 {
			continue
		}
		if time.Since(last) < interval && (every == 0 || pending < every) {
			continue
		}
		if err := store.Snapshot(inv.ExportState()); err != nil {
			fmt.Fprintln(stderr, "slotserve: snapshot:", err)
			return // the store has latched an error; retrying cannot help
		}
		last = time.Now()
	}
}

// loadSlotFile reads either a full environment snapshot (the cmd/slotgen
// default output, recognized by its "horizon" field) or a bare slot list
// (cmd/slotgen -slots-only, or a saved /v1/slots response).
func loadSlotFile(path string) (slots.List, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(raw, &probe); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if _, isEnv := probe["horizon"]; isEnv {
		e, err := persist.ReadEnvironment(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return e.Slots, nil
	}
	l, err := persist.ReadSlotList(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return l, nil
}
