package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"slotsel/internal/inventory"
	"slotsel/internal/persist"
)

// Default tuning for Options zero values.
const (
	// DefaultSegmentBytes is the segment rotation threshold.
	DefaultSegmentBytes = 64 << 20

	// DefaultSnapshotKeep is how many snapshots survive compaction. The
	// latest snapshot alone is enough for recovery; keeping one more
	// guards against a snapshot that turns out corrupt on read.
	DefaultSnapshotKeep = 2

	// sealBytes is the least a segment holds before a snapshot seals it
	// (or SegmentBytes, when smaller). Below it a boot re-reads the
	// covered frames in well under a millisecond, which is less than the
	// file create and directory fsync a seal costs.
	sealBytes = 64 << 10

	// spareEvents bounds the queue slice the writer keeps for reuse: a
	// batch is a few events under booking load, while a burst of unawaited
	// events should not pin a slice that size.
	spareEvents = 1024
)

// Options tunes a Store. The zero value is usable.
type Options struct {
	// SegmentBytes rotates the active segment once it grows past this
	// size (checked between batches); a snapshot seals it sooner (see the
	// package doc). 0 = DefaultSegmentBytes.
	SegmentBytes int64

	// NoSync skips fsync (tests and benchmarks of the framing path only:
	// it voids the durability contract).
	NoSync bool

	// OnFsync, when non-nil, observes the duration of every fsync of the
	// active segment — the seam the server's fsync-latency histogram
	// plugs into without coupling wal to the telemetry package.
	OnFsync func(d time.Duration)
}

// Stats is a point-in-time durability summary (the /metricsz and
// /v1/statusz source).
type Stats struct {
	// AppendedSeq is the highest sequence number accepted by Append.
	AppendedSeq uint64 `json:"appended_seq"`

	// DurableSeq is the highest sequence number known fsync'd; all lower
	// sequences are durable too (appends are ordered).
	DurableSeq uint64 `json:"durable_seq"`

	// SnapshotSeq is the sequence covered by the latest snapshot (0 =
	// none yet).
	SnapshotSeq uint64 `json:"snapshot_seq"`

	// SnapshotUnixNano is when the latest snapshot was written (0 =
	// none this process lifetime).
	SnapshotUnixNano int64 `json:"snapshot_unix_nano"`

	// Fsyncs counts data fsyncs of the active segment.
	Fsyncs uint64 `json:"fsyncs"`
}

// Store is the durable event log: an inventory.JournalSink whose Append
// group-commits batches through a single writer goroutine.
type Store struct {
	dir  string
	opts Options
	fs   fsys

	// Telemetry atomics: read lock-free by metrics handlers.
	appendedSeq atomic.Uint64
	durableSeq  atomic.Uint64
	snapSeq     atomic.Uint64
	snapTime    atomic.Int64
	fsyncs      atomic.Uint64

	mu      sync.Mutex
	cond    *sync.Cond // broadcast when a batch is durable, a seal is done or the store fails
	kick    *sync.Cond // wakes the writer: demand, a seal or Close
	queue   []inventory.Event
	spare   []inventory.Event // an earlier batch's slice, emptied: the next queue
	demand  uint64            // the highest seq someone waits for
	sealing bool              // a snapshot asked the writer to seal the active segment
	err     error             // latched first I/O failure; permanent
	closed  bool
	done    chan struct{}

	// Writer-goroutine state (no lock needed: single owner).
	f         file
	size      int64
	sealBytes int64           // a segment smaller than this (>= 1) is not sealed
	buf       []byte          // the batch being written, framed
	enc       persist.Encoder // the scratch its windows and slot lists are encoded with
	lastSeq   uint64          // last seq handed to the writer, for ordering checks
}

// Create opens a Store over dir, appending after lastSeq (0 for a fresh
// log). The directory is created if missing. Most callers want Open,
// which recovers existing state first and derives lastSeq from it.
func Create(dir string, lastSeq uint64, opts Options) (*Store, error) {
	return createFS(osFS{}, dir, lastSeq, opts)
}

// createFS is Create over the given filesystem.
func createFS(fs fsys, dir string, lastSeq uint64, opts Options) (*Store, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	s := &Store{dir: dir, opts: opts, fs: fs, done: make(chan struct{}), lastSeq: lastSeq,
		sealBytes: min(opts.SegmentBytes, sealBytes)}
	s.cond = sync.NewCond(&s.mu)
	s.kick = sync.NewCond(&s.mu)
	s.appendedSeq.Store(lastSeq)
	s.durableSeq.Store(lastSeq)
	// Resume the newest existing segment if it can still grow; otherwise
	// the first batch creates a fresh one.
	segs, err := segmentsIn(fs, dir)
	if err != nil {
		return nil, err
	}
	if len(segs) > 0 {
		last := segs[len(segs)-1]
		f, err := fs.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: reopening segment: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: %w", err)
		}
		s.f, s.size = f, st.Size()
	}
	if snaps, err := snapshotsIn(fs, dir); err == nil && len(snaps) > 0 {
		s.snapSeq.Store(snaps[len(snaps)-1].seq)
	}
	go s.writer()
	return s, nil
}

// Append implements inventory.JournalSink: it enqueues the event and, when
// the event's ack waits (inventory.Event.AckWaits), asks the writer for it
// and returns a wait that blocks until it is fsync'd. Any other event
// returns a nil wait and stays queued, unwritten, until the next demand
// writes it with everything before it. A latched or closed store returns
// the failing wait for every event, so it fail-stops releases too. Called
// with the inventory mutex held, so it must not perform I/O.
func (s *Store) Append(ev inventory.Event) (wait func() error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		err := s.err
		if err == nil {
			err = fmt.Errorf("wal: store closed")
		}
		return func() error { return err }
	}
	if s.err != nil {
		err := s.err
		return func() error { return err }
	}
	s.queue = append(s.queue, ev)
	s.appendedSeq.Store(ev.Seq)
	if !ev.AckWaits() {
		return nil
	}
	seq := ev.Seq
	s.demandLocked(seq)
	return func() error { return s.waitDurable(seq) }
}

// demandLocked asks the writer to make everything through seq durable.
func (s *Store) demandLocked(seq uint64) {
	if seq > s.demand {
		s.demand = seq
		s.kick.Signal()
	}
}

// demandedLocked reports whether someone waits for a queued event.
func (s *Store) demandedLocked() bool {
	return len(s.queue) > 0 && s.demand > s.durableSeq.Load()
}

// waitDurable demands seq and blocks until it is fsync'd or the store
// fails/closes. seq must have been appended: nothing pending reaches a
// later one, so the wait would never end (Snapshot refuses such a state).
func (s *Store) waitDurable(seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.demandLocked(seq)
	for s.durableSeq.Load() < seq && s.err == nil && !s.closed {
		s.cond.Wait()
	}
	if s.durableSeq.Load() >= seq {
		return nil
	}
	if s.err != nil {
		return s.err
	}
	return fmt.Errorf("wal: store closed before seq %d became durable", seq)
}

// writer is the single log-writing goroutine: once someone waits for a
// queued event, or a snapshot asks for a seal, or Close, it drains the
// whole queue into one write+fsync (group commit) and releases the
// waiters. Without demand it writes nothing, so the bytes on disk are
// always the durable prefix. A seal runs before the batch, so the next
// segment starts right after the last frame written.
func (s *Store) writer() {
	defer close(s.done)
	for {
		s.mu.Lock()
		for !s.demandedLocked() && !s.sealing && !s.closed && s.err == nil {
			s.kick.Wait()
		}
		if s.err != nil || (s.closed && len(s.queue) == 0) {
			s.mu.Unlock()
			return
		}
		// The queue and the spare swap: appends during the write fill the
		// slice an earlier batch was written from.
		batch, seal := s.queue, s.sealing
		s.queue, s.spare = s.spare, nil
		s.mu.Unlock()

		var err error
		if seal {
			err = s.seal()
		}
		if err == nil && len(batch) > 0 {
			err = s.writeBatch(batch)
		}

		s.mu.Lock()
		if seal {
			s.sealing = false
		}
		if err != nil {
			if s.err == nil {
				s.err = fmt.Errorf("wal: %w", err)
			}
		} else if len(batch) > 0 {
			s.durableSeq.Store(batch[len(batch)-1].Seq)
		}
		if cap(batch) <= spareEvents {
			clear(batch) // the spare pins no window
			s.spare = batch[:0]
		}
		s.cond.Broadcast()
		stop := s.err != nil
		s.mu.Unlock()
		if stop {
			return
		}
	}
}

// writeBatch frames the batch in s.buf, each event encoded in place behind
// its header, and appends it to the active segment in one write, rotating
// and fsyncing as needed. An event that cannot be framed fails the whole
// batch before any byte of it is written. Writer goroutine only.
func (s *Store) writeBatch(batch []inventory.Event) error {
	s.buf = s.buf[:0]
	for _, ev := range batch {
		if ev.Seq <= s.lastSeq {
			return fmt.Errorf("out-of-order append: seq %d after %d", ev.Seq, s.lastSeq)
		}
		s.lastSeq = ev.Seq
		if err := s.frame(ev); err != nil {
			return err
		}
	}
	if s.f == nil || s.size >= s.opts.SegmentBytes {
		if err := s.rotate(batch[0].Seq); err != nil {
			return err
		}
	}
	if _, err := s.f.Write(s.buf); err != nil {
		return err
	}
	s.size += int64(len(s.buf))
	if !s.opts.NoSync {
		begin := time.Now()
		if err := s.f.Sync(); err != nil {
			return err
		}
		if s.opts.OnFsync != nil {
			s.opts.OnFsync(time.Since(begin))
		}
	}
	s.fsyncs.Add(1)
	return nil
}

// frame appends ev's record to s.buf: the header reserved, the payload
// encoded behind it, then the header filled in. A payload that cannot be
// encoded or exceeds MaxRecordBytes is an error naming the seq. Writer
// goroutine only.
func (s *Store) frame(ev inventory.Event) error {
	at := len(s.buf)
	var err error
	if s.buf, err = appendEvent(beginFrame(s.buf), ev, &s.enc); err != nil {
		return err
	}
	if n := len(s.buf) - at - frameHeaderSize; n > MaxRecordBytes {
		return fmt.Errorf("event %d encodes to %d bytes (max %d)", ev.Seq, n, MaxRecordBytes)
	}
	endFrame(s.buf, at)
	return nil
}

// seal closes the active segment and starts the next one empty, named after
// the next sequence, so that recovery skips the sealed segment whole once a
// snapshot covers it and the next boot appends to the new one. A segment
// below sealBytes is left active. Writer goroutine only.
func (s *Store) seal() error {
	if s.f == nil || s.size < s.sealBytes {
		return nil
	}
	return s.rotate(s.lastSeq + 1)
}

// rotate closes the active segment and starts a fresh one whose name
// carries the first sequence it will hold.
func (s *Store) rotate(firstSeq uint64) error {
	if s.f != nil {
		if err := s.f.Close(); err != nil {
			return err
		}
		s.f = nil
	}
	path := filepath.Join(s.dir, segmentName(firstSeq))
	f, err := s.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if !s.opts.NoSync {
		if err := syncDir(s.fs, s.dir); err != nil {
			f.Close()
			return err
		}
	}
	s.f, s.size = f, 0
	return nil
}

// Snapshot persists a full state, seals the active segment and compacts the
// log: all but the DefaultSnapshotKeep newest snapshots are deleted, and so
// are the segments the oldest snapshot kept covers. It first waits for the
// log to be durable through state.Seq — a snapshot claiming to cover events
// the log has not fsync'd yet would let a crash lose them invisibly. Two
// states are refused before any file is made, with an error that does not
// latch the store: one ahead of everything appended (the state of another
// inventory: the caller's mistake, not an I/O fault), and one whose payload
// exceeds MaxRecordBytes, which every boot would reject as corrupt. An I/O
// failure latches the store like a failed append: a directory that cannot
// take a snapshot is not trusted with the log either.
func (s *Store) Snapshot(st *inventory.State) error {
	if appended := s.appendedSeq.Load(); st.Seq > appended {
		return fmt.Errorf("wal: snapshot of seq %d is ahead of the log, which ends at seq %d", st.Seq, appended)
	}
	if err := s.waitDurable(st.Seq); err != nil {
		return err
	}
	frame, err := appendState(beginFrame(nil), st)
	if err != nil {
		return err
	}
	if n := len(frame) - frameHeaderSize; n > MaxRecordBytes {
		return fmt.Errorf("wal: snapshot of seq %d encodes to %d bytes, over the %d-byte record bound: not written", st.Seq, n, MaxRecordBytes)
	}
	endFrame(frame, 0)
	if err := s.writeSnapshot(st.Seq, frame); err != nil {
		s.mu.Lock()
		if s.err == nil {
			s.err = err
		}
		s.cond.Broadcast()
		s.kick.Signal()
		s.mu.Unlock()
		return err
	}
	s.snapSeq.Store(st.Seq)
	s.snapTime.Store(time.Now().UnixNano())
	if err := s.requestSeal(); err != nil {
		return err
	}
	s.compact()
	return nil
}

// requestSeal has the writer goroutine, which owns the active segment, seal
// it, and waits until it has. Appends racing the snapshot may land in the
// sealed segment first; a boot reads those frames until the next snapshot.
//
// A Close that wins the race ends the wait with the seal perhaps not run,
// and returns nil: the snapshot is already published and durable, and an
// unsealed segment only costs the next boot a read of the frames the
// snapshot covers, which recovery skips. The writer latching an error ends
// the wait too, and that error is returned.
func (s *Store) requestSeal() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sealing = true
	s.kick.Signal()
	for s.sealing && s.err == nil && !s.closed {
		s.cond.Wait()
	}
	return s.err
}

// writeSnapshot writes the snapshot file of seq, one framed record, under
// a temporary name, fsyncs it and renames it into place.
func (s *Store) writeSnapshot(seq uint64, frame []byte) error {
	final := filepath.Join(s.dir, snapshotName(seq))
	tmp := final + ".tmp"
	f, err := s.fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	_, werr := f.Write(frame)
	if werr == nil && !s.opts.NoSync {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		s.fs.Remove(tmp)
		return fmt.Errorf("wal: writing snapshot: %w", werr)
	}
	if err := s.fs.Rename(tmp, final); err != nil {
		s.fs.Remove(tmp)
		return fmt.Errorf("wal: publishing snapshot: %w", err)
	}
	if !s.opts.NoSync {
		if err := syncDir(s.fs, s.dir); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
	}
	return nil
}

// compact deletes snapshots beyond the retention count and the segments
// whose every event is covered by the oldest snapshot kept, so that if the
// newer ones turn out corrupt it still has its whole tail. Until there are
// DefaultSnapshotKeep snapshots the log from its first event stands in for
// the missing older one, and no segment goes. Best-effort: compaction
// failures never fail the snapshot that triggered them.
func (s *Store) compact() {
	snaps, err := snapshotsIn(s.fs, s.dir)
	if err != nil || len(snaps) < DefaultSnapshotKeep {
		return
	}
	for _, sn := range snaps[:len(snaps)-DefaultSnapshotKeep] {
		s.fs.Remove(sn.path)
	}
	oldest := snaps[len(snaps)-DefaultSnapshotKeep].seq
	segs, err := segmentsIn(s.fs, s.dir)
	if err != nil {
		return
	}
	for i := 0; i+1 < len(segs); i++ {
		// Segment i ends where segment i+1 begins: it is disposable iff
		// every sequence before that boundary is covered by the snapshot.
		if segs[i+1].firstSeq <= oldest+1 {
			s.fs.Remove(segs[i].path)
		} else {
			break
		}
	}
}

// Stats returns the durability counters. Lock-free.
func (s *Store) Stats() Stats {
	return Stats{
		AppendedSeq:      s.appendedSeq.Load(),
		DurableSeq:       s.durableSeq.Load(),
		SnapshotSeq:      s.snapSeq.Load(),
		SnapshotUnixNano: s.snapTime.Load(),
		Fsyncs:           s.fsyncs.Load(),
	}
}

// Err returns the latched I/O error, if any.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close writes and fsyncs the whole queue, awaited or not, and stops the
// writer. Appends after Close fail immediately.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		return s.err
	}
	s.closed = true
	s.cond.Broadcast()
	s.kick.Signal()
	s.mu.Unlock()
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f != nil {
		if err := s.f.Close(); err != nil && s.err == nil {
			s.err = fmt.Errorf("wal: %w", err)
		}
		s.f = nil
	}
	return s.err
}

// ---- directory scanning ----

type segmentInfo struct {
	path     string
	firstSeq uint64
}

type snapshotInfo struct {
	path string
	seq  uint64
}

func segmentName(firstSeq uint64) string { return fmt.Sprintf("wal-%016x.log", firstSeq) }
func snapshotName(seq uint64) string     { return fmt.Sprintf("snap-%016x.snap", seq) }

// segmentsIn returns the log segments of dir sorted by first sequence.
func segmentsIn(fs fsys, dir string) ([]segmentInfo, error) {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []segmentInfo
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 16, 64)
		if err != nil {
			continue
		}
		segs = append(segs, segmentInfo{path: filepath.Join(dir, name), firstSeq: seq})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
	return segs, nil
}

// snapshotsIn returns the snapshots of dir sorted by covered sequence.
func snapshotsIn(fs fsys, dir string) ([]snapshotInfo, error) {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var snaps []snapshotInfo
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".snap") {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap"), 16, 64)
		if err != nil {
			continue
		}
		snaps = append(snaps, snapshotInfo{path: filepath.Join(dir, name), seq: seq})
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].seq < snaps[j].seq })
	return snaps, nil
}

// syncDir fsyncs a directory so entry creation/rename/removal is durable.
func syncDir(fs fsys, dir string) error {
	d, err := fs.OpenFile(dir, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
