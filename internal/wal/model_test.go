package wal

import (
	"cmp"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"slotsel/internal/core"
	"slotsel/internal/inventory"
	"slotsel/internal/nodes"
	"slotsel/internal/randx"
	"slotsel/internal/slots"
)

// FuzzPoolModel drives op scripts through inventory.Pool — flat over one
// WAL and at 4 shards over four — and checks the pool after every op
// against poolModel, a reference built from nothing but interval sets and a
// hold table: the free slots, the holds, the commits and the Status
// counters must be the model's. The ops are reserve, commit, release, add,
// withdraw, Sweep, a clock advance, kill-and-reopen (Close every store,
// then Open or OpenSharded on the same directory, after a snapshot or
// not), a Withdraw raced against a Reserve of the same node, which may
// land in either order, and a crash (boot a copy of the directory as it is
// on disk, with no Close), after which each shard is back at its last
// awaited event. A reserve does not wait, so a crash may forget an acked
// hold: the hold must be gone, a commit of it must answer
// ErrUnknownReservation, and no ID the pool mints may equal one it minted
// before, forgotten ones included. A failing script is cut to its shortest
// failing prefix and printed with its seed.
func FuzzPoolModel(f *testing.F) {
	for seed := uint64(1); seed <= 64; seed++ {
		rng := randx.New(seed)
		script := make([]byte, modelOpBytes*maxModelOps)
		for i := range script {
			script[i] = byte(rng.Intn(256))
		}
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		ops := parseModelOps(script)
		for _, shards := range []int{1, 4} {
			if n, err := runModel(t, shards, ops); err != nil {
				// The pool is checked after every op, so the script up to
				// the op that failed is the shortest failing prefix.
				t.Fatalf("%d shards, seed %x: op %d fails: %v\nscript: %v", shards, script[:n*modelOpBytes], n, err, ops[:n])
			}
		}
	})
}

// modelOpTimeout bounds one op of a model script: an op that has not
// returned by then has hung, and the script fails at it with its prefix
// instead of running into the go test timeout.
const modelOpTimeout = 10 * time.Second

// crossShardGrace is inventory's pad on the shard deadline of a hold that
// spans shards.
const crossShardGrace = 2 * time.Second

// modelHold is a hold as the model sees it: its spans by node, the shards
// that still hold a part of it, and the router's record of it.
type modelHold struct {
	used     map[int][]slots.Interval
	parts    map[int]bool
	shards   []int     // the shards the reserve placed parts on, ascending
	deadline time.Time // the shards' deadline
	client   time.Time // the record's deadline
	routed   bool      // the record exists (a flat pool's hold is its own)
}

// poolModel is the reference: base capacity as interval sets by node, the
// hold table, the commits and the counters, with the shard partition and
// the router's rules spelled out (each shard expires its parts as a
// mutation passes; a commit is all-or-nothing; counters count per shard).
type poolModel struct {
	shards  int
	now     time.Time
	base    map[int][]slots.Interval
	holds   map[string]*modelHold
	commits map[string]map[int][]slots.Interval
	ids     []string // every ID minted, in order
	epoch   uint64   // every boot journals a boot record that starts the next
	next    uint64   // IDs minted in the epoch
	c       inventory.Counters
	durable []*poolModel // by shard: the model as of the shard's last awaited event
}

func (m *poolModel) shardOf(node int) int { return inventory.ShardOf(node, m.shards) }

func (m *poolModel) clone() *poolModel {
	c := *m
	c.base, c.commits = maps.Clone(m.base), maps.Clone(m.commits)
	c.ids = slices.Clone(m.ids)
	c.durable = slices.Clone(m.durable)
	c.holds = make(map[string]*modelHold, len(m.holds))
	for id, h := range m.holds {
		hc := *h
		hc.parts = maps.Clone(h.parts)
		c.holds[id] = &hc
	}
	return &c
}

// awaited records that shards just journaled an event whose ack waits
// (inventory.Event.AckWaits): a crash rolls each of them back to here.
func (m *poolModel) awaited(shards ...int) {
	c := m.clone()
	c.durable = nil
	for _, si := range shards {
		m.durable[si] = c
	}
}

// allShards lists the shards, ascending.
func (m *poolModel) allShards() []int {
	all := make([]int, m.shards)
	for si := range all {
		all[si] = si
	}
	return all
}

// drop removes a hold once nothing holds it and no record names it.
func (m *poolModel) drop(id string) {
	if h := m.holds[id]; len(h.parts) == 0 && (m.shards == 1 || !h.routed) {
		delete(m.holds, id)
	}
}

// sweep expires the parts on shard si whose deadline has come.
func (m *poolModel) sweep(si int) (n int) {
	for id, h := range m.holds {
		if h.parts[si] && !h.deadline.After(m.now) {
			delete(h.parts, si)
			m.c.Expiries++
			m.drop(id)
			n++
		}
	}
	return n
}

// alloc is every span allocated on node, sorted.
func (m *poolModel) alloc(node int) []slots.Interval {
	var out []slots.Interval
	for _, h := range m.holds {
		if h.parts[m.shardOf(node)] {
			out = append(out, h.used[node]...)
		}
	}
	for _, used := range m.commits {
		out = append(out, used[node]...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

func (m *poolModel) reserve(used map[int][]slots.Interval, ttl time.Duration) (string, bool) {
	var shards []int
	for node := range used {
		if si := m.shardOf(node); !slices.Contains(shards, si) {
			shards = append(shards, si)
		}
	}
	slices.Sort(shards)
	for _, si := range shards {
		m.sweep(si)
	}
	for node, ivs := range used {
		for _, iv := range ivs {
			inBase := slices.ContainsFunc(m.base[node], func(b slots.Interval) bool { return b.Contains(iv) })
			if !inBase || slices.ContainsFunc(m.alloc(node), iv.Overlaps) {
				m.c.Conflicts++
				return "", false
			}
		}
	}
	m.next++
	id := fmt.Sprintf("r%08d.%d", m.next, m.epoch)
	m.ids = append(m.ids, id)
	h := &modelHold{used: used, parts: map[int]bool{}, shards: shards, client: m.now.Add(ttl), routed: true}
	for _, si := range shards {
		h.parts[si] = true
	}
	if h.deadline = h.client; len(shards) > 1 {
		h.deadline = h.client.Add(crossShardGrace)
	}
	m.c.Reserves += uint64(len(shards))
	m.holds[id] = h
	return id, true
}

// settle is Commit (commit) or Release: the router claims the record and
// settles every part still held, committing only a whole, unlapsed hold.
// A flat pool sweeps its one shard first, and its hold is its record.
func (m *poolModel) settle(id string, commit bool) bool {
	if m.shards == 1 {
		m.sweep(0)
	}
	h := m.holds[id]
	if h == nil || !h.routed {
		return false
	}
	h.routed = false
	live := 0
	for _, si := range h.shards {
		m.sweep(si)
		if h.parts[si] {
			live++
		}
	}
	delete(m.holds, id)
	if commit && live == len(h.shards) && h.client.After(m.now) {
		m.c.Commits += uint64(live)
		m.commits[id] = h.used
		m.awaited(h.shards...)
		return true
	}
	m.c.Releases += uint64(live)
	return !commit && live > 0
}

// add merges a slot list into the base, shard by shard; a list with two
// overlapping slots of one node is refused whole.
func (m *poolModel) add(list slots.List) bool {
	for i, a := range list {
		for _, b := range list[:i] {
			if a.Node.ID == b.Node.ID && a.Overlaps(b.Interval) {
				if m.shards == 1 {
					m.sweep(0)
				}
				return false
			}
		}
	}
	touched := map[int]bool{}
	for _, s := range list {
		if si := m.shardOf(s.Node.ID); !touched[si] {
			touched[si] = true
			m.sweep(si)
			m.c.Adds++
		}
		m.base[s.Node.ID] = slots.MergeIntervals(append(slices.Clone(m.base[s.Node.ID]), s.Interval))
	}
	m.awaited(sortedKeys(touched)...)
	return true
}

// withdraw removes a node and cancels the holds with a part on it; the
// router then releases their parts on other shards.
func (m *poolModel) withdraw(node int) ([]string, bool) {
	si := m.shardOf(node)
	m.sweep(si)
	if _, known := m.base[node]; !known {
		return nil, false
	}
	delete(m.base, node)
	m.c.Withdrawals++
	var cancelled []string
	for id, h := range m.holds {
		if h.parts[si] && len(h.used[node]) > 0 {
			cancelled = append(cancelled, id)
		}
	}
	sort.Strings(cancelled)
	for _, id := range cancelled {
		delete(m.holds[id].parts, si)
		m.c.Cancelled++
		m.drop(id)
		if m.shards > 1 {
			m.settle(id, false)
		}
	}
	m.awaited(si)
	return cancelled, true
}

// sweepAll is Pool.Sweep: the router releases the cross-shard holds past
// their client deadline and forgets lapsed single-shard records, then
// every shard sweeps.
func (m *poolModel) sweepAll() (n int) {
	if m.shards > 1 {
		var due []string
		for id, h := range m.holds {
			if h.routed && !h.client.After(m.now) {
				if len(h.shards) > 1 {
					due = append(due, id)
				} else {
					h.routed = false
					m.drop(id)
				}
			}
		}
		for _, id := range due {
			if m.settle(id, false) {
				n++
			}
		}
	}
	for si := 0; si < m.shards; si++ {
		n += m.sweep(si)
	}
	return n
}

// reopen is what a boot keeps: the holds some shard still holds, with
// records rebuilt from their parts when every part the reserve placed is
// there (a hold missing one keeps its parts until their deadline, and no
// record), in the next epoch.
func (m *poolModel) reopen() {
	for id, h := range m.holds {
		if len(h.parts) == 0 {
			delete(m.holds, id)
		} else if m.shards > 1 {
			if h.routed = len(h.parts) == len(h.shards); h.routed {
				if h.client = h.deadline; len(h.shards) > 1 {
					h.client = h.deadline.Add(-crossShardGrace)
				}
			}
		}
	}
	m.epoch, m.next = m.epoch+1, 0
	m.awaited(m.allShards()...) // a boot starts from what is on disk
}

// unsettleable lists the holds a commit can no longer reach: gone, or with
// no record.
func (m *poolModel) unsettleable(ids []string) (out []string) {
	for _, id := range ids {
		if h := m.holds[id]; h == nil || !h.routed {
			out = append(out, id)
		}
	}
	return out
}

// crashed is what a boot of the directory a kill left keeps: each shard as
// of its last awaited event, and the counters less what the lost events
// counted.
func (m *poolModel) crashed(lost []inventory.Event) *poolModel {
	r := m.clone()
	r.base, r.holds, r.commits = map[int][]slots.Interval{}, map[string]*modelHold{}, map[string]map[int][]slots.Interval{}
	for si, d := range m.durable {
		for node, spans := range d.base {
			if m.shardOf(node) == si {
				r.base[node] = spans
			}
		}
		for id, h := range d.holds {
			if !h.parts[si] {
				continue
			}
			rh := r.holds[id]
			if rh == nil {
				rh = &modelHold{used: map[int][]slots.Interval{}, parts: map[int]bool{}, shards: h.shards, deadline: h.deadline, client: h.client, routed: true}
				r.holds[id] = rh
			}
			rh.parts[si] = true
			for node, ivs := range h.used {
				if m.shardOf(node) == si {
					rh.used[node] = ivs
				}
			}
		}
		for id, used := range d.commits {
			for node, ivs := range used {
				if m.shardOf(node) == si {
					if r.commits[id] == nil {
						r.commits[id] = map[int][]slots.Interval{}
					}
					r.commits[id][node] = ivs
				}
			}
		}
	}
	for _, ev := range lost {
		switch {
		case ev.Op == inventory.OpReserve && ev.OK:
			r.c.Reserves--
		case ev.Op == inventory.OpRelease && ev.OK:
			r.c.Releases--
		case ev.Op == inventory.OpExpire:
			r.c.Expiries--
		case ev.Op == inventory.OpReserve && !ev.OK:
			r.c.Conflicts--
		}
	}
	r.reopen()
	return r
}

// free renders the free list: each base span minus what is allocated on
// its node, in publication order.
func (m *poolModel) free() (out slots.List) {
	for node, spans := range m.base {
		alloc := m.alloc(node)
		for _, b := range spans {
			at := b.Start
			for _, a := range alloc {
				if a.Start < b.End && a.End > at {
					if a.Start > at {
						out = append(out, &slots.Slot{Node: &nodes.Node{ID: node}, Interval: slots.Interval{Start: at, End: a.Start}})
					}
					at = max(at, a.End)
				}
			}
			if at < b.End {
				out = append(out, &slots.Slot{Node: &nodes.Node{ID: node}, Interval: slots.Interval{Start: at, End: b.End}})
			}
		}
	}
	slices.SortFunc(out, slots.Compare)
	return out
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// render is the state check's rendering of a pool: free slots, holds,
// commits and Status.
func render(free slots.List, holds []string, commits map[string]map[int][]slots.Interval, st inventory.Status) string {
	var b strings.Builder
	for _, s := range free {
		fmt.Fprintf(&b, "[n%d %g..%g]", s.Node.ID, s.Start, s.End)
	}
	fmt.Fprintf(&b, "\nholds %v\ncommits", holds)
	for _, id := range sortedKeys(commits) {
		fmt.Fprintf(&b, " %s:", id)
		for _, node := range sortedKeys(commits[id]) {
			fmt.Fprintf(&b, " n%d%v", node, commits[id][node])
		}
	}
	fmt.Fprintf(&b, "\nstatus %+v", st)
	return b.String()
}

// expect is the model's rendering of itself.
func (m *poolModel) expect() string {
	free := m.free()
	st := inventory.Status{Nodes: len(m.base), FreeSlots: len(free), FreeSpan: free.TotalSpan(), Committed: len(m.commits), Counters: m.c}
	var holds []string
	for id, h := range m.holds {
		if len(h.parts) > 0 {
			holds = append(holds, id)
		}
	}
	sort.Strings(holds)
	st.Holds = len(holds)
	return render(free, holds, m.commits, st)
}

// observe renders the pool the way expect renders the model; the snapshot
// version and the journal length are not the model's to know.
func observe(p inventory.Pool) string {
	commits := map[string]map[int][]slots.Interval{}
	for id, w := range p.Committed() {
		used := w.UsedIntervals()
		for _, ivs := range used {
			sort.Slice(ivs, func(i, j int) bool { return ivs[i].Start < ivs[j].Start })
		}
		commits[id] = used
	}
	st := p.Status()
	st.Version, st.JournalLen = 0, 0
	return render(p.Snapshot().Slots, p.Holds(), commits, st)
}

// modelOp is one op of a script: a kind and four parameter bytes. A
// window's placements start inside one of the seeded spans when c < 128,
// and anywhere in [0, 100) otherwise.
type modelOp struct{ kind, a, b, c, d byte }

const (
	modelOpBytes = 5
	maxModelOps  = 48
	modelNodes   = 10 // IDs 0..9; 8 and 9 start without capacity
)

func parseModelOps(script []byte) []modelOp {
	var ops []modelOp
	for i := 0; i+modelOpBytes <= len(script) && len(ops) < maxModelOps; i += modelOpBytes {
		ops = append(ops, modelOp{script[i] % 13, script[i+1], script[i+2], script[i+3], script[i+4]})
	}
	return ops
}

func (op modelOp) start() float64 {
	if op.c < 128 {
		return float64(op.c % 45)
	}
	return float64(op.c % 100)
}

func (op modelOp) String() string {
	name := [...]string{"reserve", "reserve", "reserve", "commit", "commit", "release", "add", "withdraw", "sweep", "advance", "reopen", "race", "crash"}[op.kind]
	return fmt.Sprintf("%s(%d,%d,%d,%d)", name, op.a, op.b, op.c, op.d)
}

// modelPool is the pool under test, booted with its stores, and its clock.
type modelPool struct {
	dir    string
	shards int
	now    time.Time
	nodes  []*nodes.Node
	*Stack
}

func (p *modelPool) options() inventory.Options {
	return inventory.Options{Clock: func() time.Time { return p.now }, Shards: p.shards}
}

// boot opens the directory, flat or sharded; an empty one is seeded with
// nodes 0..7, each with [0, 50) and [60, 100).
func (p *modelPool) boot() error {
	stack, err := Boot(p.dir, func() (slots.List, error) { return p.seed(), nil }, p.options(), Options{NoSync: true})
	if err != nil {
		return err
	}
	for _, st := range stack.Stores {
		st.sealBytes = 1 // every snapshot seals its segment
	}
	p.Stack = stack
	return nil
}

func (p *modelPool) seed() slots.List {
	var list slots.List
	for _, n := range p.nodes[:8] {
		list = append(list, &slots.Slot{Node: n, Interval: slots.Interval{Start: 0, End: 50}},
			&slots.Slot{Node: n, Interval: slots.Interval{Start: 60, End: 100}})
	}
	return list
}

// reopen closes every store, after a parting snapshot when asked, and
// boots the directory again.
func (p *modelPool) reopen(snapshot bool) error {
	if snapshot {
		if err := p.Snapshot(); err != nil {
			return err
		}
	}
	if err := p.Close(); err != nil {
		return err
	}
	return p.boot()
}

// crash copies the directory as it is on disk while the stores still run,
// then closes them and boots the copy: what a kill leaves. It returns the
// events the copy lost, which are the stores' queues — appended, never
// written, because nothing waited for them.
func (p *modelPool) crash() ([]inventory.Event, error) {
	var lost []inventory.Event
	for _, st := range p.Stores {
		st.mu.Lock()
		queued := slices.Clone(st.queue)
		st.mu.Unlock()
		if stats := st.Stats(); stats.AppendedSeq-stats.DurableSeq != uint64(len(queued)) {
			return nil, fmt.Errorf("store %+v is writing with %d events queued", stats, len(queued))
		}
		lost = append(lost, queued...)
	}
	dir, err := os.MkdirTemp(filepath.Dir(p.dir), "crash")
	if err != nil {
		return nil, err
	}
	err = filepath.WalkDir(p.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(p.dir, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dir, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, rel), data, 0o644)
	})
	if err != nil {
		return nil, err
	}
	if err := p.Close(); err != nil {
		return nil, err
	}
	p.dir = dir
	return lost, p.boot()
}

// checkCrash checks a crashed boot beyond what observe renders: the crash
// undid no event whose ack waited, every hold kept the deadline the model
// has for it (a resurrected one its original), and no two allocations of
// a node overlap.
func (p *modelPool) checkCrash(m *poolModel, lost []inventory.Event) error {
	for _, ev := range lost {
		if ev.AckWaits() {
			return fmt.Errorf("the crash undid awaited event %d (%s %q)", ev.Seq, ev.Op, ev.ID)
		}
	}
	alloc := map[int][]slots.Interval{}
	for si := 0; si < p.shards; si++ {
		st := p.Shards[si].ExportState()
		for _, h := range st.Holds {
			if mh := m.holds[h.ID]; mh == nil || !h.Expires.Equal(mh.deadline) {
				return fmt.Errorf("shard %d holds %s until %v; the model has %+v", si, h.ID, h.Expires, mh)
			}
			for node, ivs := range h.Window.UsedIntervals() {
				alloc[node] = append(alloc[node], ivs...)
			}
		}
		for _, c := range st.Committed {
			for node, ivs := range c.Window.UsedIntervals() {
				alloc[node] = append(alloc[node], ivs...)
			}
		}
	}
	for node, ivs := range alloc {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].Start < ivs[j].Start })
		for k := 1; k < len(ivs); k++ {
			if ivs[k-1].Overlaps(ivs[k]) {
				return fmt.Errorf("node %d is double-booked: %v and %v", node, ivs[k-1], ivs[k])
			}
		}
	}
	return nil
}

// window is a window of one placement per node, all starting at start.
func (p *modelPool) window(ids []int, start, length float64) (*core.Window, map[int][]slots.Interval) {
	var cands []core.Candidate
	used := map[int][]slots.Interval{}
	for _, id := range ids {
		iv := slots.Interval{Start: start, End: start + length}
		cands = append(cands, core.Candidate{Slot: &slots.Slot{Node: p.nodes[id], Interval: iv}, Exec: length, Cost: length})
		used[id] = []slots.Interval{iv}
	}
	return core.NewWindow(start, cands), used
}

func reserveOutcome(res *inventory.Reservation, err error) string {
	if err == nil {
		return "reserved " + res.ID
	}
	if errors.Is(err, inventory.ErrConflict) {
		return "conflict"
	}
	return err.Error()
}

func withdrawOutcome(cancelled []string, err error) string {
	if errors.Is(err, inventory.ErrUnknownNode) {
		return "unknown node"
	}
	return fmt.Sprint(cancelled, err)
}

// reserved is reserve's outcome as reserveOutcome renders the pool's.
func (m *poolModel) reserved(used map[int][]slots.Interval, ttl time.Duration) string {
	if id, ok := m.reserve(used, ttl); ok {
		return "reserved " + id
	}
	return "conflict"
}

// withdrawn is withdraw's outcome as withdrawOutcome renders the pool's.
func (m *poolModel) withdrawn(node int) string {
	if cancelled, ok := m.withdraw(node); ok {
		return withdrawOutcome(cancelled, nil)
	}
	return "unknown node"
}

// runModel runs ops against a fresh pool and the model, and returns how
// many ops ran and the first disagreement.
func runModel(t *testing.T, shards int, ops []modelOp) (int, error) {
	dir, err := os.MkdirTemp(t.TempDir(), "pool")
	if err != nil {
		t.Fatal(err)
	}
	p := &modelPool{dir: dir, shards: shards, now: time.Unix(1_700_000_000, 0)}
	for id := 0; id < modelNodes; id++ {
		p.nodes = append(p.nodes, &nodes.Node{ID: id, Perf: 1, Price: 1})
	}
	if err := p.boot(); err != nil {
		return 0, err
	}
	hung := false
	defer func() { // the stack of the last boot
		if !hung {
			p.Close()
		}
	}()
	m := &poolModel{shards: shards, now: p.now, base: map[int][]slots.Interval{}, holds: map[string]*modelHold{},
		commits: map[string]map[int][]slots.Interval{}}
	m.durable = make([]*poolModel, shards)
	m.add(p.seed())
	m.c.Adds = uint64(shards) // every shard journals its construction
	m.epoch = 1               // and a boot record
	m.awaited(m.allShards()...)
	minted := map[string]bool{} // every ID the pool handed out
	for i, op := range ops {
		step := func() error {
			pick := "r99999999" // never minted
			if k := int(op.a) % (len(m.ids) + 1); k < len(m.ids) {
				pick = m.ids[k]
			}
			var got, want string
			switch op.kind {
			case 0, 1, 2:
				ids := []int{int(op.a) % modelNodes}
				for k := 1; k <= int(op.b)%3; k++ {
					ids = append(ids, (ids[0]+3*k)%modelNodes)
				}
				ttl := time.Duration(1+int(op.b/3)%4) * time.Second
				w, used := p.window(ids, op.start(), float64(1+op.d%8))
				got, want = reserveOutcome(p.Pool.ReserveWindow(w, ttl)), m.reserved(used, ttl)
			case 3, 4, 5:
				commit := op.kind < 5
				var err error
				if commit {
					_, err = p.Pool.Commit(pick)
				} else {
					err = p.Pool.Release(pick)
				}
				got, want = fmt.Sprint(err), fmt.Sprint(nil)
				if !m.settle(pick, commit) {
					want = inventory.ErrUnknownReservation.Error()
				}
			case 6:
				n := p.nodes[int(op.a)%modelNodes]
				iv := slots.Interval{Start: float64(op.b % 100), End: float64(op.b%100 + 1 + op.c%30)}
				if op.b < 128 { // a seeded span back
					iv = slots.Interval{Start: float64(op.b % 2 * 60), End: float64(50 + op.b%2*50)}
				}
				length := iv.Length()
				list := slots.List{{Node: n, Interval: iv}}
				if op.d%2 == 1 {
					start := float64(op.d / 2 % 100)
					list = append(list, &slots.Slot{Node: n, Interval: slots.Interval{Start: start, End: start + length}})
				}
				got, want = fmt.Sprint(p.Pool.Add(list) == nil), fmt.Sprint(m.add(list))
			case 7:
				node := int(op.a) % modelNodes
				got, want = withdrawOutcome(p.Pool.Withdraw(node)), m.withdrawn(node)
			case 8:
				got, want = fmt.Sprint(p.Pool.Sweep()), fmt.Sprint(m.sweepAll())
			case 9:
				d := time.Duration(op.a%5) * 700 * time.Millisecond
				p.now, m.now = p.now.Add(d), m.now.Add(d)
			case 10:
				if err := p.reopen(op.b%2 == 1); err != nil {
					return fmt.Errorf("reopen: %w", err)
				}
				m.reopen()
			case 11:
				node := int(op.a) % modelNodes
				ttl := time.Duration(1+int(op.b)%4) * time.Second
				w, used := p.window([]int{node}, op.start(), float64(1+op.d%8))
				var res, wd string
				var wg sync.WaitGroup
				wg.Add(2)
				go func() { defer wg.Done(); res = reserveOutcome(p.Pool.ReserveWindow(w, ttl)) }()
				go func() { defer wg.Done(); wd = withdrawOutcome(p.Pool.Withdraw(node)) }()
				wg.Wait()
				got = res + " / " + wd + "\n" + observe(p.Pool)
				// Either order is a correct outcome.
				var wants []string
				for _, reserveFirst := range []bool{true, false} {
					mm := m.clone()
					var r, x string
					if reserveFirst {
						r, x = mm.reserved(used, ttl), mm.withdrawn(node)
					} else {
						x = mm.withdrawn(node)
						r = mm.reserved(used, ttl)
					}
					if want = r + " / " + x + "\n" + mm.expect(); want == got {
						m = mm
						break
					}
					wants = append(wants, want)
				}
				if want != got {
					return fmt.Errorf("%v: pool\n%s\nmatches neither order:\n%s", op, got, strings.Join(wants, "\n"))
				}
			case 12:
				var held []string
				for id, h := range m.holds {
					if h.routed {
						held = append(held, id)
					}
				}
				sort.Strings(held)
				lost, err := p.crash()
				if err != nil {
					return fmt.Errorf("crash: %w", err)
				}
				m = m.crashed(lost)
				if err := p.checkCrash(m, lost); err != nil {
					return fmt.Errorf("crash: %w", err)
				}
				for _, id := range m.unsettleable(held) {
					if _, err := p.Pool.Commit(id); !errors.Is(err, inventory.ErrUnknownReservation) {
						return fmt.Errorf("crash: the acked hold %s is lost, and its commit answers %v", id, err)
					}
					m.settle(id, true)
				}
			}
			if id, ok := strings.CutPrefix(strings.SplitN(got, " / ", 2)[0], "reserved "); ok {
				if minted[id] {
					return fmt.Errorf("%v: the pool minted %s again", op, id)
				}
				minted[id] = true
			}
			// A store with nothing queued has written everything: the
			// model's durable view of its shard is the model now.
			for si, st := range p.Stores {
				if s := st.Stats(); s.AppendedSeq == s.DurableSeq {
					m.awaited(si)
				}
			}
			if got != want {
				return fmt.Errorf("%v: pool says %q, model %q", op, got, want)
			}
			if got, want := observe(p.Pool), m.expect(); got != want {
				return fmt.Errorf("after %v: pool\n%s\nmodel\n%s", op, got, want)
			}
			return nil
		}
		done := make(chan error, 1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					done <- fmt.Errorf("%v panics: %v\n%s", op, r, debug.Stack())
				}
			}()
			done <- step()
		}()
		watchdog := time.NewTimer(modelOpTimeout)
		select {
		case err := <-done:
			watchdog.Stop()
			if err != nil {
				return i + 1, err
			}
		case <-watchdog.C:
			// The op still holds the pool: leave the stack open rather
			// than hang again in its Close.
			hung = true
			return i + 1, fmt.Errorf("%v did not return within %v", op, modelOpTimeout)
		}
	}
	return len(ops), nil
}
