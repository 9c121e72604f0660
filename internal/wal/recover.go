package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"slotsel/internal/inventory"
)

// RecoverResult is what a WAL directory contains: the latest readable
// snapshot (nil for a log-only or empty directory) plus the contiguous
// event tail after it, ending at the first damage.
type RecoverResult struct {
	// State is the latest decodable snapshot, or nil.
	State *inventory.State

	// Events is the replayable tail: every event with Seq > State.Seq
	// (or all events when State is nil), contiguous by sequence.
	Events []inventory.Event

	// LastSeq is the sequence recovery ends at: State.Seq plus the tail.
	LastSeq uint64

	// Truncated reports that a torn record was dropped at the tail — the
	// normal signature of a crash mid-append, not an error.
	Truncated bool

	// SkippedSnapshots counts snapshot files that failed to decode and
	// were passed over for an older one.
	SkippedSnapshots int
}

// Recover reads a WAL directory back into memory. With repair set (the
// boot path) a torn tail is physically truncated and any segments after
// the damage are deleted, so the next append continues a clean log;
// without it the directory is only read, which lets the crash sweeps
// recover one damaged copy at many offsets.
//
// A torn record (incomplete header or payload at the end of input) is
// expected crash damage and recovery simply stops there. A corrupt record
// (checksum failure) mid-log, a sequence gap, or a snapshot newer than
// any decodable log position are real damage and fail recovery rather
// than silently serving a diverged state.
func Recover(dir string, repair bool) (*RecoverResult, error) {
	return recoverFS(osFS{}, dir, repair)
}

// recoverFS is Recover over the given filesystem.
func recoverFS(fs fsys, dir string, repair bool) (*RecoverResult, error) {
	res := &RecoverResult{}
	snaps, err := snapshotsIn(fs, dir)
	if errors.Is(err, os.ErrNotExist) {
		return res, nil
	}
	if err != nil {
		return nil, err
	}
	for i := len(snaps) - 1; i >= 0; i-- {
		st, err := readSnapshotFile(fs, snaps[i].path)
		if err != nil {
			res.SkippedSnapshots++
			continue
		}
		if st.Seq != snaps[i].seq {
			return nil, fmt.Errorf("wal: snapshot %s claims seq %d", snaps[i].path, st.Seq)
		}
		res.State = st
		break
	}
	next := uint64(1)
	if res.State != nil {
		next = res.State.Seq + 1
	}

	segs, err := segmentsIn(fs, dir)
	if err != nil {
		return nil, err
	}
	for i, seg := range segs {
		if i+1 < len(segs) && segs[i+1].firstSeq <= next {
			continue // fully covered by the snapshot; a later segment starts early enough
		}
		events, validLen, derr := readSegment(fs, seg.path)
		for _, ev := range events {
			if ev.Seq < next {
				continue // covered by the snapshot
			}
			if ev.Seq != next {
				return nil, fmt.Errorf("wal: sequence gap: want %d, segment %s has %d", next, seg.path, ev.Seq)
			}
			res.Events = append(res.Events, ev)
			next++
		}
		if derr == nil {
			continue
		}
		if !errors.Is(derr, errTorn) {
			return nil, fmt.Errorf("wal: segment %s: %w", seg.path, derr)
		}
		// Torn tail: stop here. Later segments (rotated after the torn
		// write — cannot happen in normal operation) would be a gap.
		res.Truncated = true
		if repair {
			if err := fs.Truncate(seg.path, validLen); err != nil {
				return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
			}
			for _, later := range segs[i+1:] {
				if err := fs.Remove(later.path); err != nil {
					return nil, fmt.Errorf("wal: removing post-damage segment: %w", err)
				}
			}
			if err := syncDir(fs, dir); err != nil {
				return nil, fmt.Errorf("wal: %w", err)
			}
		}
		break
	}
	res.LastSeq = next - 1
	return res, nil
}

// readSnapshotFile decodes one snapshot file (a single frame).
func readSnapshotFile(fs fsys, path string) (*inventory.State, error) {
	f, err := fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	payload, err := readFrame(bufio.NewReader(f))
	if err != nil {
		return nil, err
	}
	return DecodeState(payload)
}

// readSegment decodes a segment's events. It returns the events read, the
// byte length of the valid prefix, and errTorn/errCorrupt if the segment
// ends in damage (events still holds everything before it).
func readSegment(fs fsys, path string) ([]inventory.Event, int64, error) {
	f, err := fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	var events []inventory.Event
	var valid int64
	r := bufio.NewReader(f)
	for {
		payload, err := readFrame(r)
		if err == io.EOF {
			return events, valid, nil
		}
		if err != nil {
			return events, valid, err
		}
		ev, err := DecodeEvent(payload)
		if err != nil {
			// A frame that passes its checksum but does not decode is
			// corruption, not tearing: the bytes were written whole.
			return events, valid, fmt.Errorf("%w: %v", errCorrupt, err)
		}
		events = append(events, ev)
		valid += frameHeaderSize + int64(len(payload))
	}
}

// Open is the flat boot path: recover dir (repairing torn tails),
// rebuild the inventory (snapshot restore + tail replay), then attach a
// Store so every subsequent mutation streams to the log. A fresh or
// absent directory yields a nil inventory: the caller seeds one from its
// initial slot list and attaches the returned store itself. A directory
// holding a sharded layout (OpenSharded's shard subdirectories) is refused
// before anything is read or written. Boot wraps Open, OpenSharded and
// the seeding.
func Open(dir string, invOpts inventory.Options, opts Options) (*inventory.Inventory, *Store, *RecoverResult, error) {
	return openFS(osFS{}, dir, invOpts, opts)
}

// openFS is Open over the given filesystem.
func openFS(fs fsys, dir string, invOpts inventory.Options, opts Options) (*inventory.Inventory, *Store, *RecoverResult, error) {
	if err := checkShardLayout(fs, dir, 1); err != nil {
		return nil, nil, nil, err
	}
	res, err := recoverFS(fs, dir, true)
	if err != nil {
		return nil, nil, nil, err
	}
	var inv *inventory.Inventory
	if res.State != nil || len(res.Events) > 0 {
		inv, err = rebuild(res, invOpts)
		if err != nil {
			return nil, nil, nil, err
		}
	}
	store, err := createFS(fs, dir, res.LastSeq, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	if inv != nil {
		inv.AttachSink(store)
	}
	return inv, store, res, nil
}

// rebuild turns a RecoverResult into a live inventory: restore the
// snapshot state (or start empty) and replay the tail. The tail replays
// under a frozen clock so a hold that was live at the crash cannot lapse
// mid-replay and diverge from the recorded outcomes; the real clock takes
// over afterwards, expiring recovered holds at their original deadlines.
func rebuild(res *RecoverResult, invOpts inventory.Options) (*inventory.Inventory, error) {
	invOpts.Sink = nil
	realClock := invOpts.Clock
	if realClock == nil {
		realClock = time.Now
	}
	frozen := time.Unix(0, 0)
	invOpts.Clock = func() time.Time { return frozen }

	st := res.State
	if st == nil {
		st = &inventory.State{} // log only: the empty pre-construction base
	}
	inv, err := inventory.Restore(st, invOpts)
	if err != nil {
		return nil, err
	}
	for _, ev := range res.Events {
		if err := inv.ApplyEvent(ev); err != nil {
			return nil, err
		}
	}
	inv.SetClock(realClock)
	return inv, nil
}
