// Package wal is the durability layer under internal/inventory: a
// write-ahead log of journal events with periodic full-state snapshots
// and crash recovery.
//
// # On-disk layout
//
// A WAL directory holds two kinds of files:
//
//	wal-<firstSeq:%016x>.log    segments: a stream of event frames
//	snap-<seq:%016x>.snap       snapshots: one frame holding a full State
//
// Every record uses the same frame:
//
//	uint32 LE payload length | uint32 LE CRC-32C of payload | payload
//
// The payload is compact JSON — an envelope with the persist owned-window
// and slot-list documents nested in it — so records are self-contained and
// humanly inspectable with standard tools. It is appended in place: the
// writer reserves a frame's header in its batch buffer, appends the
// envelope behind it with the documents that a persist.Encoder appends
// inline, then fills the header in. No reflection and no intermediate
// buffer is involved, and the bytes are those encoding/json wrote for the
// same structs (eventJSON, stateFields), which the decoders still read.
// The decoders read the envelope, the windows and slot lists nested in it,
// with the persist Scanner — a snapshot's base in the envelope's own pass —
// and hand anything outside its subset to encoding/json, which stays the
// definition of what decodes and of every error. Frames make tail damage
// classifiable: an incomplete header or payload is a torn write (the
// expected shape of a crash mid-append, truncated silently on recovery),
// while a complete frame whose checksum fails is corruption (recovery
// stops there and refuses to replay further).
//
// # Snapshots, sealing and compaction
//
// Store.Snapshot publishes snap-N, then has the writer seal the active
// segment once it holds 64 KiB (or SegmentBytes, when smaller): the
// segment is closed and wal-<next seq>.log starts empty. Appends that race
// the snapshot may land a few frames past N before the seal. Compaction
// keeps the DefaultSnapshotKeep (2) newest snapshots and deletes the
// segments that the oldest of them covers, so a corrupt newest snapshot
// still leaves an older one with its whole tail; until that many snapshots
// exist it deletes no segment.
//
// # Recovery
//
// A boot decodes the newest snapshot that decodes and replays the tail
// after it. The snapshot's base comes back in the order it was written,
// node by node, which is the order inventory.Restore groups in one pass.
// A segment is skipped unread when the next one starts at or before the
// first sequence the snapshot misses, so behind a sealed snapshot a boot
// opens only the snapshot and the segments after it. Every frame it does
// read is checked and decoded in full.
//
// # Durability contract
//
// Store.Append implements inventory.JournalSink with group commit: events
// enqueue under the inventory mutex, and a single writer goroutine writes
// whatever is pending in one write+fsync once someone waits for it — an
// awaited append, a snapshot, a seal or Close, or a queue grown to 1 024
// events — releasing every waiter
// whose event made the batch together. Which acks wait is
// inventory.Event.AckWaits: a commit, add, withdraw or boot record is
// recoverable once acknowledged, while a reserve, a release, an expiry or
// a refusal rides in the queue until the next awaited event carries it to
// disk, and a crash before that may undo it. The bytes on disk are always
// exactly the durable prefix of the log, so what a boot recovers is the
// serialization order cut after some event, and one fsync pays for a whole
// burst of concurrent mutations. A boot journals a boot record and waits
// for it before the pool serves (inventory.Inventory.AttachSink): IDs
// minted after it name a new epoch, so a hold the cut forgot never has its
// ID handed to another client. An fsync failure latches the store into
// a permanent error state — every later append, awaited or not, fails
// fast rather than pretending the log is still intact.
package wal

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"strconv"
	"time"

	"slotsel/internal/inventory"
	"slotsel/internal/persist"
	"slotsel/internal/slots"
)

// frameHeaderSize is the fixed prefix of every record: payload length and
// CRC-32C, both little-endian uint32.
const frameHeaderSize = 8

// MaxRecordBytes bounds a single record's payload. A length prefix beyond
// the bound is treated as corruption, so a damaged header cannot make a
// reader attempt a multi-gigabyte allocation.
const MaxRecordBytes = 16 << 20

// castagnoli is the CRC-32C table (the polynomial with hardware support
// on both amd64 and arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Frame damage classification errors, distinguished by recovery:
var (
	// errTorn reports an incomplete record at the end of input — the
	// signature of a crash mid-write. Recovery truncates here.
	errTorn = errors.New("wal: torn record at end of log")

	// errCorrupt reports a structurally complete record that fails its
	// checksum or length bound. Recovery stops here too, but the
	// remainder of the log is NOT replayed: unlike a torn tail there may
	// be valid records beyond the damage, and replaying past a hole
	// would silently diverge from the recorded history.
	errCorrupt = errors.New("wal: corrupt record")
)

// beginFrame reserves the header of a record at the end of buf: the payload
// is appended after it, and endFrame fills the header in.
func beginFrame(buf []byte) []byte { return append(buf, 0, 0, 0, 0, 0, 0, 0, 0) }

// endFrame fills in the header of the record that starts at buf[at:], whose
// payload runs to the end of buf.
func endFrame(buf []byte, at int) {
	payload := buf[at+frameHeaderSize:]
	binary.LittleEndian.PutUint32(buf[at:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[at+4:], crc32.Checksum(payload, castagnoli))
}

// readFrame reads the next record from r. It returns io.EOF at a clean
// end of input, errTorn for an incomplete record, and errCorrupt for a
// checksum or length-bound failure. A record whose length runs past the
// end of input comes back as errTorn with the bytes that follow its
// header, for recordFollows to tell a torn tail from a damaged length.
func readFrame(r *bufio.Reader) ([]byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return nil, io.EOF // clean end: not even a first byte
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return nil, errTorn // header cut mid-way
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if length == 0 && sum == 0 {
		// An all-zero header is a zero-filled tail (filesystems may
		// zero-extend blocks lost in a crash), not a record: real frames
		// always carry a non-empty JSON payload. Same treatment as torn.
		return nil, errTorn
	}
	if length > MaxRecordBytes {
		return nil, fmt.Errorf("%w: frame length %d exceeds %d", errCorrupt, length, MaxRecordBytes)
	}
	payload := make([]byte, length)
	if n, err := io.ReadFull(r, payload); err != nil {
		return payload[:n], errTorn // payload cut mid-way
	}
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", errCorrupt)
	}
	return payload, nil
}

// recordFollows reports whether tail, the bytes after the header of a
// record that runs past the end of its segment, holds a complete record of
// an event later than seq. A crash cuts the last record of the log, so the
// bytes after a torn header are a prefix of that record's payload and never
// a later record; a later record there means the header's length was
// damaged, and the records past it were written whole. Candidates are cheap
// to rule out: a length must fit in what is left, and JSON text holds no
// zero byte, which any length under MaxRecordBytes has.
func recordFollows(tail []byte, seq uint64) bool {
	for at := 0; at+frameHeaderSize < len(tail); at++ {
		length := binary.LittleEndian.Uint32(tail[at:])
		if length == 0 || uint64(length) > uint64(len(tail)-at-frameHeaderSize) {
			continue
		}
		payload := tail[at+frameHeaderSize : at+frameHeaderSize+int(length)]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(tail[at+4:]) {
			continue
		}
		if ev, err := DecodeEvent(payload); err == nil && ev.Seq > seq {
			return true
		}
	}
	return false
}

// eventJSON is the serialized inventory.Event, as DecodeEvent's
// encoding/json half reads it and appendEvent writes it. Window and Slots
// are the persist owned-window and slot-list documents, nested.
// Directories written before the global event order was dropped carry a
// "gseq" key here and in stateJSON; decoding ignores it.
type eventJSON struct {
	Seq     uint64          `json:"seq"`
	Op      int             `json:"op"`
	ID      string          `json:"id,omitempty"`
	Node    int             `json:"node,omitempty"`
	OK      bool            `json:"ok"`
	Expires int64           `json:"expires,omitempty"` // UnixNano; 0 = none
	Parts   int             `json:"parts,omitempty"`
	Epoch   uint64          `json:"epoch,omitempty"`
	Window  json.RawMessage `json:"window,omitempty"`
	Slots   json.RawMessage `json:"slots,omitempty"`
}

// appendEvent appends ev's record payload to dst: the envelope in
// eventJSON's key order and omit rules, with the window or slot list that
// enc appends nested inline. A window or slot list that cannot be encoded
// is an error naming the seq, and dst comes back unchanged.
func appendEvent(dst []byte, ev inventory.Event, enc *persist.Encoder) ([]byte, error) {
	b := strconv.AppendUint(append(dst, `{"seq":`...), ev.Seq, 10)
	b = strconv.AppendInt(append(b, `,"op":`...), int64(ev.Op), 10)
	if ev.ID != "" {
		b = persist.AppendString(append(b, `,"id":`...), ev.ID)
	}
	if ev.Node != 0 {
		b = strconv.AppendInt(append(b, `,"node":`...), int64(ev.Node), 10)
	}
	b = strconv.AppendBool(append(b, `,"ok":`...), ev.OK)
	if !ev.Expires.IsZero() && ev.Expires.UnixNano() != 0 {
		b = strconv.AppendInt(append(b, `,"expires":`...), ev.Expires.UnixNano(), 10)
	}
	if ev.Parts != 0 {
		b = strconv.AppendInt(append(b, `,"parts":`...), int64(ev.Parts), 10)
	}
	if ev.Epoch != 0 {
		b = strconv.AppendUint(append(b, `,"epoch":`...), ev.Epoch, 10)
	}
	var err error
	if ev.Window != nil {
		if b, err = enc.AppendOwnedWindow(append(b, `,"window":`...), ev.Window); err != nil {
			return dst, fmt.Errorf("wal: encoding event %d window: %w", ev.Seq, err)
		}
	}
	if len(ev.Slots) > 0 {
		if b, err = enc.AppendSlotList(append(b, `,"slots":`...), ev.Slots, false); err != nil {
			return dst, fmt.Errorf("wal: encoding event %d slots: %w", ev.Seq, err)
		}
	}
	return append(b, '}'), nil
}

// DecodeEvent deserializes one record payload back into a journal event.
// The envelope is read with the persist Scanner's pass when the payload is
// in its subset (everything appendEvent writes), and with encoding/json
// otherwise and for every decode error.
func DecodeEvent(payload []byte) (inventory.Event, error) {
	var in eventJSON
	if s := persist.NewScanner(payload); !in.scan(s) || !s.End() {
		var err error
		if in, err = unmarshal[eventJSON](payload); err != nil {
			return inventory.Event{}, fmt.Errorf("wal: decoding event: %w", err)
		}
	}
	return in.event()
}

// event decodes the nested documents of a decoded envelope.
func (in *eventJSON) event() (inventory.Event, error) {
	ev := inventory.Event{
		Seq: in.Seq, Op: inventory.Op(in.Op), ID: in.ID, Node: in.Node, OK: in.OK,
		Parts: in.Parts, Epoch: in.Epoch,
	}
	if in.Expires != 0 {
		ev.Expires = time.Unix(0, in.Expires)
	}
	if len(in.Window) > 0 {
		w, err := persist.ParseOwnedWindow(in.Window)
		if err != nil {
			return inventory.Event{}, fmt.Errorf("wal: decoding event %d window: %w", in.Seq, err)
		}
		ev.Window = w
	}
	if len(in.Slots) > 0 {
		l, err := persist.ParseSlotList(in.Slots)
		if err != nil {
			return inventory.Event{}, fmt.Errorf("wal: decoding event %d slots: %w", in.Seq, err)
		}
		ev.Slots = l
	}
	return ev, nil
}

// scan fills in from an event envelope inside the Scanner's subset; the
// nested window and slot list stay raw, as json.RawMessage keeps them.
func (in *eventJSON) scan(s *persist.Scanner) bool {
	return s.Object(func(key []byte) (ok bool) {
		switch string(key) {
		case "seq":
			in.Seq, ok = s.Uint64()
		case "op":
			in.Op, ok = s.Int()
		case "id":
			in.ID, ok = s.String()
		case "node":
			in.Node, ok = s.Int()
		case "ok":
			in.OK, ok = s.Bool()
		case "expires":
			in.Expires, ok = s.Int64()
		case "parts":
			in.Parts, ok = s.Int()
		case "epoch":
			in.Epoch, ok = s.Uint64()
		case "window":
			in.Window, ok = s.Raw()
		case "slots":
			in.Slots, ok = s.Raw()
		case "gseq":
			_, ok = s.Raw()
		}
		return ok
	})
}

// unmarshal is the encoding/json half of the decoders, apart so that its
// heap-bound target costs the Scanner's half nothing.
func unmarshal[T any](payload []byte) (in T, err error) {
	err = json.Unmarshal(payload, &in)
	return in, err
}

// holdJSON is one live reservation in a serialized State.
type holdJSON struct {
	ID      string          `json:"id"`
	Expires int64           `json:"expires"` // UnixNano
	Parts   int             `json:"parts,omitempty"`
	Window  json.RawMessage `json:"window"`
}

// commitJSON is one permanent allocation in a serialized State.
type commitJSON struct {
	ID     string          `json:"id"`
	Window json.RawMessage `json:"window"`
}

// stateFields is the serialized inventory.State — the snapshot payload —
// over the type of its base, which the decoders read as a document;
// appendState writes the same keys.
type stateFields[B any] struct {
	Format    int                `json:"format"`
	Version   uint64             `json:"snapshot_version"`
	Seq       uint64             `json:"seq"`
	Epoch     uint64             `json:"epoch,omitempty"`
	NextID    uint64             `json:"next_id"`
	Counters  inventory.Counters `json:"counters"`
	Base      B                  `json:"base,omitempty"`
	Holds     []holdJSON         `json:"holds,omitempty"`
	Committed []commitJSON       `json:"committed,omitempty"`
}

// stateJSON is the snapshot envelope as DecodeState reads it: the base is
// decoded in the envelope's own pass, so a boot tokenises it once.
type stateJSON stateFields[*persist.SlotListDoc]

// appendState appends st's snapshot payload to dst: stateFields' key order
// and omit rules, with the base and the hold and commit windows nested
// inline. It uses an Encoder of its own, so it may run beside the writer.
func appendState(dst []byte, st *inventory.State) ([]byte, error) {
	var enc persist.Encoder
	b := slices.Grow(dst, 512+72*len(st.Base)+1536*(len(st.Holds)+len(st.Committed)))
	b = append(b, `{"format":`...)
	b = strconv.AppendInt(b, persist.FormatVersion, 10)
	b = strconv.AppendUint(append(b, `,"snapshot_version":`...), st.Version, 10)
	b = strconv.AppendUint(append(b, `,"seq":`...), st.Seq, 10)
	if st.Epoch != 0 {
		b = strconv.AppendUint(append(b, `,"epoch":`...), st.Epoch, 10)
	}
	b = strconv.AppendUint(append(b, `,"next_id":`...), st.NextID, 10)
	b = appendCounters(append(b, `,"counters":`...), &st.Counters)
	var err error
	if len(st.Base) > 0 {
		if b, err = enc.AppendSlotList(append(b, `,"base":`...), st.Base, false); err != nil {
			return dst, fmt.Errorf("wal: encoding state base: %w", err)
		}
	}
	for i, h := range st.Holds {
		b = persist.AppendString(append(element(b, "holds", i), `{"id":`...), h.ID)
		b = strconv.AppendInt(append(b, `,"expires":`...), h.Expires.UnixNano(), 10)
		if h.Parts != 0 {
			b = strconv.AppendInt(append(b, `,"parts":`...), int64(h.Parts), 10)
		}
		if b, err = enc.AppendOwnedWindow(append(b, `,"window":`...), h.Window); err != nil {
			return dst, fmt.Errorf("wal: encoding state hold %q: %w", h.ID, err)
		}
		b = append(b, '}')
	}
	if len(st.Holds) > 0 {
		b = append(b, ']')
	}
	for i, c := range st.Committed {
		b = persist.AppendString(append(element(b, "committed", i), `{"id":`...), c.ID)
		if b, err = enc.AppendOwnedWindow(append(b, `,"window":`...), c.Window); err != nil {
			return dst, fmt.Errorf("wal: encoding state commit %q: %w", c.ID, err)
		}
		b = append(b, '}')
	}
	if len(st.Committed) > 0 {
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// element starts element i of the array that member key of the snapshot
// envelope holds: the member itself before the first.
func element(b []byte, key string, i int) []byte {
	if i > 0 {
		return append(b, ',')
	}
	return append(append(append(b, `,"`...), key...), `":[`...)
}

// appendCounters appends c as encoding/json renders inventory.Counters.
func appendCounters(b []byte, c *inventory.Counters) []byte {
	sep := byte('{')
	for _, f := range [...]struct {
		key string
		v   uint64
	}{
		{"reserves", c.Reserves}, {"conflicts", c.Conflicts}, {"no_window", c.NoWindow},
		{"commits", c.Commits}, {"releases", c.Releases}, {"expiries", c.Expiries},
		{"adds", c.Adds}, {"withdrawals", c.Withdrawals}, {"cancelled_holds", c.Cancelled},
	} {
		b = append(append(b, sep, '"'), f.key...)
		b = strconv.AppendUint(append(b, '"', ':'), f.v, 10)
		sep = ','
	}
	return append(b, '}')
}

// DecodeState deserializes a snapshot payload back into a full state. Like
// DecodeEvent it reads the envelope with the Scanner's pass when it can.
func DecodeState(payload []byte) (*inventory.State, error) {
	var in stateJSON
	if s := persist.NewScanner(payload); !in.scan(s) || !s.End() {
		var err error
		if in, err = unmarshal[stateJSON](payload); err != nil {
			return nil, fmt.Errorf("wal: decoding state: %w", err)
		}
	}
	return in.state()
}

// state checks the format of a decoded envelope and decodes its nested
// documents.
func (in *stateJSON) state() (*inventory.State, error) {
	if in.Format != persist.FormatVersion {
		return nil, fmt.Errorf("wal: unsupported state format %d (want %d)", in.Format, persist.FormatVersion)
	}
	st := &inventory.State{
		Version:  in.Version,
		Seq:      in.Seq,
		Epoch:    in.Epoch,
		NextID:   in.NextID,
		Counters: in.Counters,
	}
	if in.Base != nil {
		// In document order, node by node as ExportState wrote it: Restore
		// regroups the base by node and validates it in that one pass.
		l, err := in.Base.Slots()
		if err != nil {
			return nil, fmt.Errorf("wal: decoding state base: %w", err)
		}
		st.Base = l
	} else {
		st.Base = slots.List{}
	}
	for _, h := range in.Holds {
		w, err := persist.ParseOwnedWindow(h.Window)
		if err != nil {
			return nil, fmt.Errorf("wal: decoding state hold %q: %w", h.ID, err)
		}
		st.Holds = append(st.Holds, inventory.HoldRecord{
			ID: h.ID, Window: w, Expires: time.Unix(0, h.Expires), Parts: h.Parts,
		})
	}
	for _, c := range in.Committed {
		w, err := persist.ParseOwnedWindow(c.Window)
		if err != nil {
			return nil, fmt.Errorf("wal: decoding state commit %q: %w", c.ID, err)
		}
		st.Committed = append(st.Committed, inventory.CommitRecord{ID: c.ID, Window: w})
	}
	return st, nil
}

// scan fills in from a snapshot envelope inside the Scanner's subset, the
// base included. The counters object goes to encoding/json on its own: it
// is small, read once per boot, and its fields are inventory's to name. A
// repeated key that holds an object or an array is left to encoding/json,
// which decodes the second value into the first.
func (in *stateJSON) scan(s *persist.Scanner) bool {
	var seen [4]bool
	once := func(i int) bool {
		first := !seen[i]
		seen[i] = true
		return first
	}
	return s.Object(func(key []byte) (ok bool) {
		switch string(key) {
		case "format":
			in.Format, ok = s.Int()
		case "snapshot_version":
			in.Version, ok = s.Uint64()
		case "seq":
			in.Seq, ok = s.Uint64()
		case "epoch":
			in.Epoch, ok = s.Uint64()
		case "next_id":
			in.NextID, ok = s.Uint64()
		case "counters":
			raw, isRaw := s.Raw()
			ok = isRaw && once(0) && json.Unmarshal(raw, &in.Counters) == nil
		case "base":
			if once(3) {
				in.Base = new(persist.SlotListDoc)
				ok = in.Base.Scan(s)
			}
		case "holds":
			if once(1) {
				in.Holds, ok = persist.Objects(s, func(h *holdJSON, key []byte) (ok bool) {
					switch string(key) {
					case "id":
						h.ID, ok = s.String()
					case "expires":
						h.Expires, ok = s.Int64()
					case "parts":
						h.Parts, ok = s.Int()
					case "window":
						h.Window, ok = s.Raw()
					}
					return ok
				})
			}
		case "committed":
			if once(2) {
				in.Committed, ok = persist.Objects(s, func(c *commitJSON, key []byte) (ok bool) {
					switch string(key) {
					case "id":
						c.ID, ok = s.String()
					case "window":
						c.Window, ok = s.Raw()
					}
					return ok
				})
			}
		case "gseq":
			_, ok = s.Raw()
		}
		return ok
	})
}
