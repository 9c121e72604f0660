// Package persist serializes environments, requests, windows and plans to
// JSON, so that a scheduling cycle can be snapshotted, inspected, replayed
// and shared between the CLI tools (cmd/slotgen writes snapshots,
// cmd/slotfind selects windows on them).
//
// The on-disk representation is versioned and independent of the in-memory
// pointer graph: slots reference nodes by ID.
package persist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"

	"slotsel/internal/core"
	"slotsel/internal/env"
	"slotsel/internal/job"
	"slotsel/internal/nodes"
	"slotsel/internal/slots"
)

// FormatVersion identifies the snapshot schema. Readers reject snapshots
// with a different major version.
const FormatVersion = 1

// nodeJSON mirrors nodes.Node.
type nodeJSON struct {
	ID     int     `json:"id"`
	Perf   float64 `json:"perf"`
	Price  float64 `json:"price"`
	RAMMB  int     `json:"ram_mb"`
	DiskGB int     `json:"disk_gb"`
	OS     string  `json:"os"`
	Arch   string  `json:"arch"`
}

// slotJSON mirrors slots.Slot with a node reference by ID.
type slotJSON struct {
	Node  int     `json:"node"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

// envJSON is the serialized environment.
type envJSON struct {
	Version int        `json:"version"`
	Horizon float64    `json:"horizon"`
	Nodes   []nodeJSON `json:"nodes"`
	Slots   []slotJSON `json:"slots"`
}

// WriteEnvironment serializes e as indented JSON.
func WriteEnvironment(w io.Writer, e *env.Environment) error {
	out := envJSON{Version: FormatVersion, Horizon: e.Horizon}
	for _, n := range e.Nodes {
		out.Nodes = append(out.Nodes, nodeJSON{
			ID: n.ID, Perf: n.Perf, Price: n.Price,
			RAMMB: n.RAMMB, DiskGB: n.DiskGB,
			OS: string(n.OS), Arch: string(n.Arch),
		})
	}
	for _, s := range e.Slots {
		out.Slots = append(out.Slots, slotJSON{Node: s.Node.ID, Start: s.Start, End: s.End})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadEnvironment deserializes an environment snapshot and re-links slots to
// nodes. The result is validated before being returned. Like ReadSlotList
// it decodes the first JSON value of the input with the Scanner's pass when
// that value is in its subset, and with encoding/json otherwise.
func ReadEnvironment(r io.Reader) (*env.Environment, error) {
	var in envJSON
	b, err := io.ReadAll(r)
	if err == nil {
		err = decodeFirst(b, &in, in.scan)
	}
	if err != nil {
		return nil, fmt.Errorf("persist: decoding environment: %w", err)
	}
	if in.Version != FormatVersion {
		return nil, fmt.Errorf("persist: unsupported snapshot version %d (want %d)", in.Version, FormatVersion)
	}
	byID, err := linkNodes(in.Nodes)
	if err != nil {
		return nil, err
	}
	e := &env.Environment{Horizon: in.Horizon}
	for _, nj := range in.Nodes {
		e.Nodes = append(e.Nodes, byID[nj.ID])
	}
	if e.Slots, err = linkSlots(in.Slots, byID); err != nil {
		return nil, err
	}
	e.Slots.SortByStart()
	if err := e.Validate(); err != nil {
		return nil, fmt.Errorf("persist: invalid snapshot: %w", err)
	}
	return e, nil
}

// scan fills in from an environment object inside the Scanner's subset.
func (in *envJSON) scan(s *Scanner) bool {
	return scanList(s, &in.Version, &in.Horizon, &in.Nodes, &in.Slots)
}

// scanList scans a slot list, or an environment when horizon is not nil.
// A repeated nodes or slots key is left to encoding/json, which decodes
// the second array into the first one's elements.
func scanList(s *Scanner, version *int, horizon *float64, ns *[]nodeJSON, sl *[]slotJSON) bool {
	var seenNodes, seenSlots bool
	return s.Object(func(key []byte) (ok bool) {
		switch string(key) {
		case "version":
			*version, ok = s.Int()
		case "horizon":
			if horizon != nil {
				*horizon, ok = s.Float()
			}
		case "nodes":
			if !seenNodes {
				seenNodes = true
				*ns, ok = Objects(s, func(n *nodeJSON, key []byte) bool { return n.scanField(s, key) })
			}
		case "slots":
			if !seenSlots {
				seenSlots = true
				*sl, ok = Objects(s, func(e *slotJSON, key []byte) bool { return e.scanField(s, key) })
			}
		}
		return ok
	})
}

// scanField scans the value of one node key.
func (n *nodeJSON) scanField(s *Scanner, key []byte) (ok bool) {
	switch string(key) {
	case "id":
		n.ID, ok = s.Int()
	case "perf":
		n.Perf, ok = s.Float()
	case "price":
		n.Price, ok = s.Float()
	case "ram_mb":
		n.RAMMB, ok = s.Int()
	case "disk_gb":
		n.DiskGB, ok = s.Int()
	case "os":
		n.OS, ok = s.String()
	case "arch":
		n.Arch, ok = s.String()
	}
	return ok
}

// scanField scans the value of one slot key.
func (e *slotJSON) scanField(s *Scanner, key []byte) (ok bool) {
	switch string(key) {
	case "node":
		e.Node, ok = s.Int()
	case "start":
		e.Start, ok = s.Float()
	case "end":
		e.End, ok = s.Float()
	}
	return ok
}

// linkNodes builds the nodes of a decoded document, keyed by ID.
func linkNodes(in []nodeJSON) (map[int]*nodes.Node, error) {
	byID := make(map[int]*nodes.Node, len(in))
	for _, nj := range in {
		if byID[nj.ID] != nil {
			return nil, fmt.Errorf("persist: duplicate node ID %d", nj.ID)
		}
		byID[nj.ID] = &nodes.Node{
			ID: nj.ID, Perf: nj.Perf, Price: nj.Price,
			RAMMB: nj.RAMMB, DiskGB: nj.DiskGB,
			OS: nodes.OS(nj.OS), Arch: nodes.Arch(nj.Arch),
		}
	}
	return byID, nil
}

// linkSlots builds the slots of a decoded document on their nodes, in
// document order.
func linkSlots(in []slotJSON, byID map[int]*nodes.Node) (slots.List, error) {
	if len(in) == 0 {
		return nil, nil
	}
	l := make(slots.List, len(in))
	arena := make([]slots.Slot, len(in))
	for i, sj := range in {
		n := byID[sj.Node]
		if n == nil {
			return nil, fmt.Errorf("persist: slot references unknown node %d", sj.Node)
		}
		arena[i] = slots.Slot{Node: n, Interval: slots.Interval{Start: sj.Start, End: sj.End}}
		l[i] = &arena[i]
	}
	return l, nil
}

// decodeFirst decodes the first JSON value of b into v: with scan when the
// value is in the Scanner's subset, and otherwise with encoding/json, whose
// Decoder reads only that value too.
func decodeFirst[T any](b []byte, v *T, scan func(*Scanner) bool) error {
	if scan(NewScanner(b)) {
		return nil
	}
	var zero T
	*v = zero
	return json.NewDecoder(bytes.NewReader(b)).Decode(v)
}

// slotListJSON is the serialized bare slot list: the environment format
// minus the horizon. It is the wire format shared by cmd/slotgen
// (-slots-only), the scheduling server's /v1/slots endpoint and the
// durable log; it defines what decodes, and Encoder.AppendSlotList writes
// it.
type slotListJSON struct {
	Version int        `json:"version"`
	Nodes   []nodeJSON `json:"nodes"`
	Slots   []slotJSON `json:"slots"`
}

// WriteSlotList writes a bare slot list as indented JSON and a newline:
// Encoder.AppendSlotList's document, whose embedded nodes (sorted by ID)
// make the list self-contained.
func WriteSlotList(w io.Writer, l slots.List) error {
	b, err := new(Encoder).AppendSlotList(nil, l, true)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// ReadSlotList is ParseSlotList over a reader.
func ReadSlotList(r io.Reader) (slots.List, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("persist: decoding slot list: %w", err)
	}
	return ParseSlotList(b)
}

// ParseSlotList deserializes a bare slot list — the first JSON value of b —,
// re-links slots to the embedded nodes, sorts by start time and validates
// structural invariants. It is the one slot-list reader: for the slot files
// the service boots from, snapshots and the WAL's OpAdd events. It decodes
// with the Scanner's pass when the value is in its subset, and with
// encoding/json otherwise and for every decode error.
func ParseSlotList(b []byte) (slots.List, error) {
	var in slotListJSON
	if err := decodeFirst(b, &in, in.scan); err != nil {
		return nil, fmt.Errorf("persist: decoding slot list: %w", err)
	}
	return in.list()
}

// scan fills in from a slot-list object inside the Scanner's subset.
func (in *slotListJSON) scan(s *Scanner) bool {
	return scanList(s, &in.Version, nil, &in.Nodes, &in.Slots)
}

// list links, sorts and validates a decoded slot list.
func (in *slotListJSON) list() (slots.List, error) {
	l, err := in.link()
	if err != nil {
		return nil, err
	}
	l.SortByStart()
	if err := l.Validate(); err != nil {
		return nil, fmt.Errorf("persist: invalid slot list: %w", err)
	}
	return l, nil
}

// link checks the version of a decoded slot list and links its slots to
// its nodes, in document order.
func (in *slotListJSON) link() (slots.List, error) {
	if in.Version != FormatVersion {
		return nil, fmt.Errorf("persist: unsupported slot list version %d (want %d)", in.Version, FormatVersion)
	}
	byID, err := linkNodes(in.Nodes)
	if err != nil {
		return nil, err
	}
	return linkSlots(in.Slots, byID)
}

// SlotListDoc is a slot-list document decoded but not yet linked: the base
// of a WAL snapshot, which the envelope's decoder reads in its own pass.
// encoding/json decodes it as it decodes the list ParseSlotList reads, and
// Scan is ParseSlotList's Scanner pass over it.
type SlotListDoc struct{ slotListJSON }

// Scan fills d from a slot-list object inside the Scanner's subset, and
// reports false, as every Scanner method does, for anything outside it.
func (d *SlotListDoc) Scan(s *Scanner) bool { return d.scan(s) }

// Slots checks the document's version and links its slots to its nodes in
// document order. Unlike ParseSlotList it neither sorts nor validates the
// list: its one reader, inventory.Restore, regroups it by node and
// validates it in that pass.
func (d *SlotListDoc) Slots() (slots.List, error) { return d.link() }

// requestJSON mirrors job.Request.
type requestJSON struct {
	TaskCount int      `json:"tasks"`
	Volume    float64  `json:"volume"`
	MaxCost   float64  `json:"max_cost,omitempty"`
	Deadline  float64  `json:"deadline,omitempty"`
	MinPerf   float64  `json:"min_perf,omitempty"`
	MinRAMMB  int      `json:"min_ram_mb,omitempty"`
	MinDiskGB int      `json:"min_disk_gb,omitempty"`
	OS        []string `json:"os,omitempty"`
	Arch      []string `json:"arch,omitempty"`
}

// WriteRequest serializes a resource request.
func WriteRequest(w io.Writer, r *job.Request) error {
	out := requestJSON{
		TaskCount: r.TaskCount, Volume: r.Volume, MaxCost: r.MaxCost,
		Deadline: r.Deadline, MinPerf: r.MinPerf,
		MinRAMMB: r.MinRAMMB, MinDiskGB: r.MinDiskGB,
	}
	for _, v := range r.OS {
		out.OS = append(out.OS, string(v))
	}
	for _, v := range r.Arch {
		out.Arch = append(out.Arch, string(v))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// scan fills in from a request object inside the Scanner's subset.
func (in *requestJSON) scan(s *Scanner) bool {
	return s.Object(func(key []byte) (ok bool) {
		switch string(key) {
		case "tasks":
			in.TaskCount, ok = s.Int()
		case "volume":
			in.Volume, ok = s.Float()
		case "max_cost":
			in.MaxCost, ok = s.Float()
		case "deadline":
			in.Deadline, ok = s.Float()
		case "min_perf":
			in.MinPerf, ok = s.Float()
		case "min_ram_mb":
			in.MinRAMMB, ok = s.Int()
		case "min_disk_gb":
			in.MinDiskGB, ok = s.Int()
		case "os":
			in.OS, ok = s.Strings()
		case "arch":
			in.Arch, ok = s.Strings()
		}
		return ok
	})
}

// request validates a decoded request.
func (in *requestJSON) request() (*job.Request, error) {
	out := &job.Request{
		TaskCount: in.TaskCount, Volume: in.Volume, MaxCost: in.MaxCost,
		Deadline: in.Deadline, MinPerf: in.MinPerf,
		MinRAMMB: in.MinRAMMB, MinDiskGB: in.MinDiskGB,
	}
	for _, v := range in.OS {
		out.OS = append(out.OS, nodes.OS(v))
	}
	for _, v := range in.Arch {
		out.Arch = append(out.Arch, nodes.Arch(v))
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("persist: invalid request: %w", err)
	}
	return out, nil
}

// ScanRequest scans a request object where it sits inside a larger
// document (the service's search body), so that the document is read in
// one pass. ok == false means the object is outside the Scanner's subset
// and decides nothing; otherwise the request or its validation error is
// what ParseRequest would return for the same bytes.
func ScanRequest(s *Scanner) (req *job.Request, ok bool, err error) {
	var in requestJSON
	if !in.scan(s) {
		return nil, false, nil
	}
	req, err = in.request()
	return req, true, err
}

// ParseRequest deserializes and validates a resource request: the first
// JSON value of b. It is the one request parser — the Scanner's pass when
// b is in its subset, encoding/json otherwise and for every decode error.
func ParseRequest(b []byte) (*job.Request, error) {
	var in requestJSON
	if s := NewScanner(b); !in.scan(s) || !s.End() {
		var err error
		if in, err = decodeRequest(b); err != nil {
			return nil, fmt.Errorf("persist: decoding request: %w", err)
		}
	}
	return in.request()
}

// decodeRequest is ParseRequest's encoding/json half, apart so that its
// heap-bound target costs the Scanner's half nothing.
func decodeRequest(b []byte) (in requestJSON, err error) {
	err = json.NewDecoder(bytes.NewReader(b)).Decode(&in)
	return in, err
}

// ReadRequest is ParseRequest over a reader.
func ReadRequest(r io.Reader) (*job.Request, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("persist: decoding request: %w", err)
	}
	return ParseRequest(b)
}

// placementJSON mirrors core.Placement.
type placementJSON struct {
	Node  int     `json:"node"`
	Start float64 `json:"start"`
	Exec  float64 `json:"exec"`
	Cost  float64 `json:"cost"`
}

// windowJSON mirrors core.Window.
type windowJSON struct {
	Start      float64         `json:"start"`
	Runtime    float64         `json:"runtime"`
	Finish     float64         `json:"finish"`
	Cost       float64         `json:"cost"`
	ProcTime   float64         `json:"proc_time"`
	Placements []placementJSON `json:"placements"`
}

// AppendWindow appends a found window (placements reference nodes by ID)
// to dst, byte for byte as encoding/json renders windowJSON with a
// two-space indent: its float rules, its key order, null for no
// placements. depth is how many objects enclose the window — 0 for a
// document of its own, 1 inside a service reply — and indents every line
// but the first; no newline follows the closing brace. A non-finite number
// is ErrNonFinite, and dst comes back unchanged. It is the one window
// encoder of replies; the durable log writes owned windows
// (Encoder.AppendOwnedWindow) on the same appender.
func AppendWindow(dst []byte, win *core.Window, depth int) ([]byte, error) {
	e := appender{buf: slices.Grow(dst, 192+160*len(win.Placements)), depth: depth, pretty: true}
	e.open('{')
	e.float("start", win.Start)
	e.float("runtime", win.Runtime)
	e.float("finish", win.Finish())
	e.float("cost", win.Cost)
	e.float("proc_time", win.ProcTime)
	if len(win.Placements) == 0 {
		e.null("placements")
	} else {
		e.key("placements")
		e.open('[')
		for _, p := range win.Placements {
			e.elem()
			e.open('{')
			e.int("node", p.Node().ID)
			e.float("start", p.Start)
			e.float("exec", p.Exec)
			e.float("cost", p.Cost)
			e.close('}')
		}
		e.close(']')
	}
	e.close('}')
	if e.bad {
		return dst, fmt.Errorf("persist: encoding window: %w", ErrNonFinite)
	}
	return e.buf, nil
}

// WriteWindow writes AppendWindow's document and a newline.
func WriteWindow(w io.Writer, win *core.Window) error {
	b, err := AppendWindow(nil, win, 0)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// ownedPlacementJSON extends placementJSON with the hosting slot's own
// interval, so a window can be reconstructed without an environment.
type ownedPlacementJSON struct {
	Node      int     `json:"node"`
	Start     float64 `json:"start"`
	Exec      float64 `json:"exec"`
	Cost      float64 `json:"cost"`
	SlotStart float64 `json:"slot_start"`
	SlotEnd   float64 `json:"slot_end"`
}

// ownedWindowJSON is the self-contained window encoding: the referenced
// nodes are embedded (like the slot-list format) and every placement
// carries its hosting slot's interval, so ParseOwnedWindow needs no
// environment to re-link against. This is the encoding the durable journal
// (internal/wal) frames into its records and snapshots; it defines what
// decodes, and Encoder.AppendOwnedWindow writes it.
type ownedWindowJSON struct {
	Version    int                  `json:"version"`
	Start      float64              `json:"start"`
	Nodes      []nodeJSON           `json:"nodes"`
	Placements []ownedPlacementJSON `json:"placements"`
}

// ParseOwnedWindow deserializes a self-contained window — the first JSON
// value of b —: placements are re-linked to freshly built nodes and slots
// from the embedded data. The result is structurally validated (placements
// inside their slots, positive execution times) but not checked against any
// request — the journal replay path re-validates fit against inventory
// state instead. Like ParseSlotList it decodes with the Scanner's pass when
// the value is in its subset, and with encoding/json otherwise and for
// every decode error.
func ParseOwnedWindow(b []byte) (*core.Window, error) {
	var in ownedWindowJSON
	if err := decodeFirst(b, &in, in.scan); err != nil {
		return nil, fmt.Errorf("persist: decoding owned window: %w", err)
	}
	return in.window()
}

// scan fills in from an owned-window object inside the Scanner's subset. A
// repeated nodes or placements key is left to encoding/json, as scanList
// leaves its arrays.
func (in *ownedWindowJSON) scan(s *Scanner) bool {
	var seenNodes, seenPlacements bool
	return s.Object(func(key []byte) (ok bool) {
		switch string(key) {
		case "version":
			in.Version, ok = s.Int()
		case "start":
			in.Start, ok = s.Float()
		case "nodes":
			if !seenNodes {
				seenNodes = true
				in.Nodes, ok = Objects(s, func(n *nodeJSON, key []byte) bool { return n.scanField(s, key) })
			}
		case "placements":
			if !seenPlacements {
				seenPlacements = true
				in.Placements, ok = Objects(s, func(p *ownedPlacementJSON, key []byte) bool { return p.scanField(s, key) })
			}
		}
		return ok
	})
}

// scanField scans the value of one owned-placement key.
func (p *ownedPlacementJSON) scanField(s *Scanner, key []byte) (ok bool) {
	switch string(key) {
	case "node":
		p.Node, ok = s.Int()
	case "start":
		p.Start, ok = s.Float()
	case "exec":
		p.Exec, ok = s.Float()
	case "cost":
		p.Cost, ok = s.Float()
	case "slot_start":
		p.SlotStart, ok = s.Float()
	case "slot_end":
		p.SlotEnd, ok = s.Float()
	}
	return ok
}

// window checks and links a decoded owned window.
func (in *ownedWindowJSON) window() (*core.Window, error) {
	if in.Version != FormatVersion {
		return nil, fmt.Errorf("persist: unsupported owned window version %d (want %d)", in.Version, FormatVersion)
	}
	if len(in.Placements) == 0 {
		return nil, fmt.Errorf("persist: owned window has no placements")
	}
	byID := make(map[int]*nodes.Node, len(in.Nodes))
	for _, nj := range in.Nodes {
		if byID[nj.ID] != nil {
			return nil, fmt.Errorf("persist: duplicate node ID %d", nj.ID)
		}
		byID[nj.ID] = &nodes.Node{
			ID: nj.ID, Perf: nj.Perf, Price: nj.Price,
			RAMMB: nj.RAMMB, DiskGB: nj.DiskGB,
			OS: nodes.OS(nj.OS), Arch: nodes.Arch(nj.Arch),
		}
	}
	var cands []core.Candidate
	for _, pj := range in.Placements {
		n := byID[pj.Node]
		if n == nil {
			return nil, fmt.Errorf("persist: placement references unknown node %d", pj.Node)
		}
		// NaN compares false against everything, so it would slide through
		// the range checks below; reject non-finite values explicitly —
		// this reader is the crash-recovery parsing surface.
		for _, v := range [...]float64{pj.Start, pj.Exec, pj.Cost, pj.SlotStart, pj.SlotEnd, in.Start} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("persist: owned window contains a non-finite value")
			}
		}
		if pj.SlotEnd <= pj.SlotStart {
			return nil, fmt.Errorf("persist: placement slot [%g, %g) on node %d is empty", pj.SlotStart, pj.SlotEnd, pj.Node)
		}
		if pj.Exec <= 0 {
			return nil, fmt.Errorf("persist: placement on node %d has non-positive exec %g", pj.Node, pj.Exec)
		}
		if pj.Start < pj.SlotStart || pj.Start+pj.Exec > pj.SlotEnd {
			return nil, fmt.Errorf("persist: placement [%g, %g) escapes its slot [%g, %g) on node %d",
				pj.Start, pj.Start+pj.Exec, pj.SlotStart, pj.SlotEnd, pj.Node)
		}
		if pj.Start != in.Start {
			return nil, fmt.Errorf("persist: placement starts at %g, window at %g", pj.Start, in.Start)
		}
		cands = append(cands, core.Candidate{
			Slot: &slots.Slot{Node: n, Interval: slots.Interval{Start: pj.SlotStart, End: pj.SlotEnd}},
			Exec: pj.Exec,
			Cost: pj.Cost,
		})
	}
	return core.NewWindow(in.Start, cands), nil
}
