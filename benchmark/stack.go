package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"slotsel/internal/core"
	"slotsel/internal/inventory"
	"slotsel/internal/persist"
	"slotsel/internal/server"
	"slotsel/internal/slots"
	"slotsel/internal/wal"
)

// stack is the service under test, booted in-process the way
// internal/cli/slotserve.go boots it: slot file or WAL directory -> pool ->
// server.New -> net/http on a loopback port.
type stack struct {
	pool   inventory.Pool // what the server and the churn operations call
	inner  inventory.Pool // pool without the tracing seam, for the checks
	traced *tracedPool    // nil in an untraced run
	stores []*wal.Store
	shards []*inventory.Inventory // the inventory behind stores[i]

	httpSrv *http.Server
	served  chan error
	base    string // http://127.0.0.1:port

	recoverTime time.Duration // wal.Open / wal.OpenSharded, zero without a WAL
}

func readSlotFile(path string) (slots.List, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return persist.ReadSlotList(f)
}

// boot builds the stack and returns once /v1/statusz answers 200. walDir
// is the WAL directory ("" for a workload without one): an empty directory
// is seeded from the slot file, a populated one is recovered and the slot
// file is not read. tr, when non-nil, is installed at every seam.
func boot(in *inputs, walDir string, tr *tracer) (*stack, error) {
	w := in.w
	var invOpts inventory.Options
	var walOpts wal.Options
	var srvOpts server.Options // defaults, as a bare `slotserve -slots f` runs
	if tr != nil {
		col := traceCollector{t: tr}
		invOpts.Collector = col
		srvOpts.Collector = col
		walOpts.OnFsync = tr.onFsync
	}

	s := &stack{}
	switch {
	case walDir != "" && w.shards > 1:
		begin := time.Now()
		pool, stores, _, err := wal.OpenSharded(walDir, w.shards, invOpts, walOpts)
		if err != nil {
			return nil, err
		}
		s.recoverTime = time.Since(begin)
		s.stores = stores
		if pool == nil {
			list, err := readSlotFile(in.slotFile)
			if err == nil {
				pool, err = wal.SeedSharded(list, invOpts, stores)
			}
			if err != nil {
				s.closeStores()
				return nil, err
			}
		}
		s.inner = pool
		for i := range stores {
			s.shards = append(s.shards, pool.Shard(i))
		}

	case walDir != "":
		begin := time.Now()
		inv, store, _, err := wal.Open(walDir, invOpts, walOpts)
		if err != nil {
			return nil, err
		}
		s.recoverTime = time.Since(begin)
		s.stores = []*wal.Store{store}
		if inv == nil {
			list, err := readSlotFile(in.slotFile)
			if err == nil {
				seedOpts := invOpts
				seedOpts.Sink = store
				inv, err = inventory.New(list, seedOpts)
			}
			if err != nil {
				s.closeStores()
				return nil, err
			}
		}
		s.inner = inv
		s.shards = []*inventory.Inventory{inv}

	default:
		list, err := readSlotFile(in.slotFile)
		if err != nil {
			return nil, err
		}
		if w.shards > 1 {
			so := invOpts
			so.Shards = w.shards
			s.inner, err = inventory.NewSharded(list, so)
		} else {
			s.inner, err = inventory.New(list, invOpts)
		}
		if err != nil {
			return nil, err
		}
	}

	s.pool = s.inner
	if len(s.stores) == 1 {
		srvOpts.WAL = s.stores[0]
	} else {
		srvOpts.WALs = s.stores
	}
	if tr != nil {
		for i, st := range s.stores {
			s.shards[i].AttachSink(tracedSink{t: tr, next: st})
		}
		s.traced = &tracedPool{t: tr, next: s.inner}
		s.pool = s.traced
	}
	var handler http.Handler = server.New(s.pool, srvOpts)
	if tr != nil {
		handler = tr.handler(handler)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.closeStores()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.httpSrv = &http.Server{Handler: handler}
	s.served = make(chan error, 1)
	go func() { s.served <- s.httpSrv.Serve(ln) }()

	if _, err := getStatusz(s.base); err != nil {
		s.close()
		return nil, fmt.Errorf("boot: %w", err)
	}
	return s, nil
}

func (s *stack) closeStores() error {
	var first error
	for _, st := range s.stores {
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.stores = nil
	return first
}

// close stops the HTTP server, waits for its accept loop to end and closes
// the WAL stores (draining their queued appends to disk).
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.httpSrv.Shutdown(ctx)
	if serr := <-s.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := s.closeStores(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// prepopulate seeds walDir from the slot file and applies txns booking
// transactions with a snapshot half way, so that the
// boots which follow recover what a crashed slotserve leaves behind: a
// snapshot plus a log tail.
func prepopulate(in *inputs, walDir string, txns int) error {
	s, err := boot(in, walDir, nil)
	if err != nil {
		return err
	}
	err = func() error {
		for t := 0; t < txns; t++ {
			res, err := s.pool.Reserve(in.book[t%len(in.book)].req, core.AMP{}, 0)
			if err != nil {
				return fmt.Errorf("reserve %d: %w", t, err)
			}
			if t%in.w.commitOneIn == 0 {
				_, err = s.pool.Commit(res.ID)
			} else {
				err = s.pool.Release(res.ID)
			}
			if err != nil {
				return fmt.Errorf("settle %d: %w", t, err)
			}
			if t == txns/2 {
				if err := s.snapshot(); err != nil {
					return err
				}
			}
		}
		return nil
	}()
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("prepopulate: %w", err)
	}
	return nil
}

// snapshot writes a full-state snapshot to every WAL store, as slotserve's
// snapshot loop does.
func (s *stack) snapshot() error {
	for i, st := range s.stores {
		if err := st.Snapshot(s.shards[i].ExportState()); err != nil {
			return err
		}
	}
	return nil
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return err
	})
	return n, err
}
