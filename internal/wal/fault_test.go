package wal

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"

	"slotsel/internal/inventory"
	"slotsel/internal/randx"
	"slotsel/internal/testkit"
)

// listSegments and listSnapshots list dir on the real filesystem.
func listSegments(dir string) ([]segmentInfo, error)   { return segmentsIn(osFS{}, dir) }
func listSnapshots(dir string) ([]snapshotInfo, error) { return snapshotsIn(osFS{}, dir) }

// faultFS is the real filesystem with a fault on purpose. Once armed,
// inject sees every write, fsync and rename — the operation, the path of
// the file (the new name of a rename) and the bytes of a write — and a
// non-nil return fails that call. A write failed with io.ErrShortWrite
// first writes half its bytes, leaving half a frame on disk.
type faultFS struct {
	osFS

	mu     sync.Mutex // the writer goroutine and the test both call in
	armed  bool
	inject func(op, path string, p []byte) error
}

func (fs *faultFS) arm() {
	fs.mu.Lock()
	fs.armed = true
	fs.mu.Unlock()
}

func (fs *faultFS) fault(op, path string, p []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if !fs.armed {
		return nil
	}
	return fs.inject(op, path, p)
}

func (fs *faultFS) OpenFile(name string, flag int, perm os.FileMode) (file, error) {
	f, err := fs.osFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{file: f, fs: fs, path: name}, nil
}

func (fs *faultFS) Rename(oldpath, newpath string) error {
	if err := fs.fault("rename", newpath, nil); err != nil {
		return err
	}
	return fs.osFS.Rename(oldpath, newpath)
}

type faultFile struct {
	file
	fs   *faultFS
	path string
}

func (f *faultFile) Write(p []byte) (int, error) {
	if err := f.fs.fault("write", f.path, p); err != nil {
		if errors.Is(err, io.ErrShortWrite) {
			n, _ := f.file.Write(p[:len(p)/2])
			return n, err
		}
		return 0, err
	}
	return f.file.Write(p)
}

func (f *faultFile) Sync() error {
	if err := f.fs.fault("sync", f.path, nil); err != nil {
		return err
	}
	return f.file.Sync()
}

// isSegment reports whether path is a log segment.
func isSegment(path string) bool { return strings.HasPrefix(filepath.Base(path), "wal-") }

// faultRun is what a fault left behind: the directory, the live inventory
// whose journal is the oracle, and the store's durable sequence at the
// latch.
type faultRun struct {
	dir     string
	inv     *inventory.Inventory
	durable uint64
}

var faultInvOpts = inventory.Options{MinSlotLength: 1}

// provokeFault seeds a WAL-backed inventory over fs, runs healthy churn,
// arms the fault and calls provoke. It then asserts the latch: the store
// holds an error, and every later mutation reports it as ErrNotDurable.
func provokeFault(t *testing.T, fs *faultFS, opts Options, provoke func(inv *inventory.Inventory, store *Store)) faultRun {
	t.Helper()
	dir := t.TempDir()
	_, store, _, err := openFS(fs, dir, faultInvOpts, opts)
	if err != nil {
		t.Fatal(err)
	}
	invOpts := faultInvOpts
	invOpts.Record, invOpts.Sink = true, store
	inv, err := inventory.New(testkit.RandomList(randx.New(5), 10, 3, 300), invOpts)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, inv, 5, 30)
	if err := store.Err(); err != nil {
		t.Fatalf("store failed before the fault was armed: %v", err)
	}
	fs.arm()
	provoke(inv, store)

	latched := store.Err()
	if latched == nil {
		t.Fatal("the fault did not latch the store")
	}
	for i := 0; i < 3; i++ {
		err := inv.Add(testkit.SlotList(testkit.Slot(testkit.Node(100+i, 2, 1), 0, 50)))
		if !errors.Is(err, inventory.ErrNotDurable) || !errors.Is(err, latched) {
			t.Fatalf("mutation %d after the latch: got %v, want ErrNotDurable wrapping %v", i, err, latched)
		}
	}
	run := faultRun{dir: dir, inv: inv, durable: store.Stats().DurableSeq}
	if err := store.Close(); !errors.Is(err, latched) {
		t.Fatalf("Close after the latch: got %v, want %v", err, latched)
	}
	return run
}

// reopenAfterFault boots the directory on the real filesystem and asserts
// recovery: every event whose wait returned nil is back, no torn tail is
// left behind the boot record the reopen journals, the state equals the
// oracle's replay at the recovered sequence, and the store accepts appends
// again.
func reopenAfterFault(t *testing.T, run faultRun) *RecoverResult {
	t.Helper()
	rec, store, res, err := Open(run.dir, faultInvOpts, Options{})
	if err != nil {
		t.Fatalf("reopen after the fault: %v", err)
	}
	defer store.Close()
	journal := run.inv.Journal()
	if res.LastSeq < run.durable || res.LastSeq > uint64(len(journal)) {
		t.Fatalf("recovered through seq %d; acked through %d, journaled %d", res.LastSeq, run.durable, len(journal))
	}
	again, err := Recover(run.dir, false)
	if err != nil || again.Truncated || again.LastSeq != res.LastSeq+1 {
		t.Fatalf("second recovery: %+v, %v; want seq %d with no torn tail", again, err, res.LastSeq+1)
	}
	ref, err := inventory.Replay(append(journal[:res.LastSeq:res.LastSeq], again.Events[len(again.Events)-1]), faultInvOpts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stateSig(rec), stateSig(ref); got != want {
		t.Fatalf("recovered state diverges from the replay of %d events:\n got %s\nwant %s", res.LastSeq, got, want)
	}
	if err := rec.Add(testkit.SlotList(testkit.Slot(testkit.Node(200, 2, 1), 0, 50))); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	if got := store.Stats().DurableSeq; got != res.LastSeq+2 {
		t.Fatalf("durable seq after the boot record and one append: %d, want %d", got, res.LastSeq+2)
	}
	return res
}

func TestFaultFsyncOnCommitBatch(t *testing.T) {
	sawCommit := false
	fs := &faultFS{inject: func(op, path string, p []byte) error {
		switch {
		case op == "write" && isSegment(path):
			r := frameReader(p)
			for {
				payload, err := readFrame(r)
				if err != nil {
					break
				}
				if ev, err := DecodeEvent(payload); err == nil && ev.Op == inventory.OpCommit {
					sawCommit = true
				}
			}
		case op == "sync" && isSegment(path) && sawCommit:
			return syscall.EIO
		}
		return nil
	}}
	run := provokeFault(t, fs, Options{}, func(inv *inventory.Inventory, _ *Store) {
		drive(t, inv, 6, 60)
	})
	if !sawCommit {
		t.Fatal("no commit batch reached the disk")
	}
	reopenAfterFault(t, run)
}

func TestFaultENOSPCOnSegmentWrite(t *testing.T) {
	fs := &faultFS{inject: func(op, path string, _ []byte) error {
		if op == "write" && isSegment(path) {
			return syscall.ENOSPC
		}
		return nil
	}}
	run := provokeFault(t, fs, Options{}, func(inv *inventory.Inventory, _ *Store) {
		drive(t, inv, 6, 10)
	})
	if res := reopenAfterFault(t, run); res.LastSeq != run.durable {
		t.Fatalf("recovered seq %d, want %d: nothing was written past the durable prefix", res.LastSeq, run.durable)
	}
}

func TestFaultShortWriteLeavesHalfAFrame(t *testing.T) {
	fs := &faultFS{inject: func(op, path string, _ []byte) error {
		if op == "write" && isSegment(path) {
			return io.ErrShortWrite
		}
		return nil
	}}
	var add uint64
	run := provokeFault(t, fs, Options{}, func(inv *inventory.Inventory, _ *Store) {
		add = inv.ExportState().Seq + 1
		inv.Add(testkit.SlotList(testkit.Slot(testkit.Node(99, 2, 1), 0, 50)))
	})
	// The batch carried the unawaited events queued before the add, so the
	// half it wrote may hold some of them whole: the cut falls after them.
	if res := reopenAfterFault(t, run); !res.Truncated || res.LastSeq >= add {
		t.Fatalf("recovery %+v: want the half frame truncated back before the add (seq %d)", res, add)
	}
}

func TestFaultRenameOnSnapshotPublish(t *testing.T) {
	fs := &faultFS{inject: func(op, _ string, _ []byte) error {
		if op == "rename" {
			return syscall.EIO
		}
		return nil
	}}
	run := provokeFault(t, fs, Options{}, func(inv *inventory.Inventory, store *Store) {
		if err := store.Snapshot(inv.ExportState()); !errors.Is(err, syscall.EIO) {
			t.Fatalf("snapshot with a failing rename: got %v", err)
		}
	})
	if snaps, err := listSnapshots(run.dir); err != nil || len(snaps) != 0 {
		t.Fatalf("a snapshot was published: %v, %v", snaps, err)
	}
	if res := reopenAfterFault(t, run); res.State != nil || res.LastSeq != run.durable {
		t.Fatalf("recovery %+v: want the whole log and no snapshot", res)
	}
}

func TestFaultDirSyncOnRotation(t *testing.T) {
	fs := &faultFS{inject: func(op, path string, _ []byte) error {
		if info, err := os.Stat(path); op == "sync" && err == nil && info.IsDir() {
			return syscall.EIO
		}
		return nil
	}}
	segsAtArm := 0
	run := provokeFault(t, fs, Options{SegmentBytes: 1 << 10}, func(inv *inventory.Inventory, store *Store) {
		segs, _ := listSegments(store.dir)
		segsAtArm = len(segs)
		drive(t, inv, 6, 60)
	})
	if segs, _ := listSegments(run.dir); len(segs) != segsAtArm+1 {
		t.Fatalf("%d segments after the failed rotation, want %d", len(segs), segsAtArm+1)
	}
	if res := reopenAfterFault(t, run); res.LastSeq != run.durable {
		t.Fatalf("recovered seq %d, want %d: the failed batch was never written", res.LastSeq, run.durable)
	}
}

// TestFaultDirSyncOnSeal: the snapshot is published, and the seal after it
// fails to fsync the directory once it has started the next segment. The
// snapshot call reports the failure, the store latches, and the directory
// boots from the snapshot with every acknowledged event.
func TestFaultDirSyncOnSeal(t *testing.T) {
	renamed, dirSyncs := false, 0
	fs := &faultFS{inject: func(op, path string, _ []byte) error {
		switch info, err := os.Stat(path); {
		case op == "rename":
			renamed = true
		case op == "sync" && renamed && err == nil && info.IsDir():
			// The first directory fsync after the rename publishes the
			// snapshot; the second is the seal's.
			if dirSyncs++; dirSyncs == 2 {
				return syscall.EIO
			}
		}
		return nil
	}}
	run := provokeFault(t, fs, Options{}, func(inv *inventory.Inventory, store *Store) {
		store.sealBytes = 1
		if err := store.Snapshot(inv.ExportState()); !errors.Is(err, syscall.EIO) {
			t.Fatalf("snapshot with a failing seal: got %v", err)
		}
	})
	if snaps, err := listSnapshots(run.dir); err != nil || len(snaps) != 1 {
		t.Fatalf("want the snapshot published, got %v, %v", snaps, err)
	}
	if res := reopenAfterFault(t, run); res.State == nil || res.LastSeq != run.durable {
		t.Fatalf("recovery %+v: want the snapshot and every event through %d", res, run.durable)
	}
}
