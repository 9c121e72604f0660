// Sharded partitions the inventory into N independent shards keyed by a
// stable hash of the node ID, each a full Inventory with its own mutex,
// published sequence, journal (and WAL segment, when durable), free
// index, change ring and sweeper — so mutations on different shards never
// contend. A thin router in front owns everything cross-shard:
//
//   - Find/Reserve/ReserveBest search one merged global snapshot (a k-way
//     merge of the per-shard sequences in the canonical (start, node, end)
//     order), because the AEP kernels and CSA scan a single globally sorted
//     list and co-allocation windows span arbitrary nodes — per-shard
//     searches stitched together afterwards would not be byte-identical to
//     the unsharded scan. The merged snapshot is cached and revalidated by
//     per-shard versions, so quiet pools pay nothing, and a new one is an
//     edit of the last, at the cost of what the shards changed.
//
//   - A window is held under the mutexes of every shard it touches, taken
//     in ascending shard order: the router checks every part fits before
//     it places any, under one router-minted ID, and settles (commit /
//     release) all parts the same way under the same locks — all or
//     nothing, so no shard ever holds a part its siblings lost. Zero
//     double-booking is preserved because every span is guarded by exactly
//     one shard's fit check.
//
// Each shard journals (and recovers) on its own: shards partition the
// nodes, so no event of one shard reads another's state, and the only
// thing shared across shard journals is the reservation ID namespace. The
// router mints in the largest epoch of its shards; every shard journals a
// boot record of its own at each durable boot, so that largest epoch grows
// with every boot (NewShardedFrom).
//
// There is no 1-shard router: a pool of one shard is a plain Inventory
// (wal.Boot picks).
package inventory

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"slotsel/internal/core"
	"slotsel/internal/csa"
	"slotsel/internal/job"
	"slotsel/internal/slots"
)

// Pool is the interface shared by a standalone *Inventory and the sharded
// router (*Sharded): everything the HTTP front end, the find cache and the
// benchmarks need from a slot pool. wal.Boot builds whichever
// Options.Shards asks for.
type Pool interface {
	Snapshot() *Snapshot
	Reserve(req *job.Request, alg core.Algorithm, ttl time.Duration) (*Reservation, error)
	ReserveBest(req *job.Request, crit csa.Criterion, maxAlts int, ttl time.Duration) (*Reservation, error)
	ReserveWindow(w *core.Window, ttl time.Duration) (*Reservation, error)
	Commit(id string) (*core.Window, error)
	Release(id string) error
	Add(list slots.List) error
	Withdraw(nodeID int) ([]string, error)
	Sweep() int
	Status() Status
	Holds() []string
	Committed() map[string]*core.Window
	AddChangeListener(fn func(Change))
	InvalidatedSince(since, now uint64, lo, hi float64) bool
	Shards() int
}

var (
	_ Pool = (*Inventory)(nil)
	_ Pool = (*Sharded)(nil)
)

// ShardOf maps a node ID to its owning shard: Fibonacci multiplicative
// hashing on the node ID, reduced mod n. This mapping is part of the
// on-disk contract of a sharded WAL directory (each shard journals only
// its own nodes' events), so it must never change for existing layouts.
func ShardOf(nodeID, n int) int {
	if n <= 1 {
		return 0
	}
	return int((uint64(int64(nodeID)) * 0x9E3779B97F4A7C15) % uint64(n))
}

// PartitionByShard splits a slot list into the n shards' initial lists by
// ShardOf, keeping the list's order within each part.
func PartitionByShard(list slots.List, n int) []slots.List {
	parts := make([]slots.List, n)
	for _, s := range list {
		si := ShardOf(s.Node.ID, n)
		parts[si] = append(parts[si], s)
	}
	return parts
}

// crossShardGrace pads the shard-level deadline of a cross-shard hold past
// its client-visible expiry. The router is the authority on when such a
// hold lapses (a commit at or past the client deadline is refused and the
// parts released), and settling is all-or-nothing whatever the shard
// sweepers do, so the grace is not what keeps a commit whole. It keeps the
// lapse whole: each shard's entry sweep expires only its own part, as
// unrelated mutations pass through, and the pad gives the router's Sweep —
// which releases every part under all their locks — time to get there
// first. After expiry+grace the shard sweepers reclaim the parts on their
// own even if the router never sweeps.
const crossShardGrace = 2 * time.Second

// liveRes is the router's routing record for one reservation: which
// shards hold its parts, the client-visible deadline, and the original
// window (placements in discovery order — the window Commit returns).
type liveRes struct {
	shards  []int // owning shards, ascending
	expires time.Time
	window  *core.Window
}

// liveStripe is one lock stripe of the routing table. Striping keeps the
// router bookkeeping from re-serializing what the shard mutexes just
// unserialized.
type liveStripe struct {
	mu        sync.Mutex
	m         map[string]*liveRes
	committed map[string]*core.Window // original windows of settled holds
}

// combined is one assembled global snapshot: a version of the merged free
// list, published like a shard's, plus the per-shard versions and
// sequences it was cut from.
type combined struct {
	published
	vec  []uint64     // per-shard snapshot versions at assembly
	seqs []*slots.Seq // per-shard sequences at assembly: what the next one diffs against
}

// assemblyScratch bounds the scratch lists assembly keeps between calls: a
// booking changes a few slots, while boot and bulk changes diff whole shards
// and should not pin lists that size.
const assemblyScratch = 256

// assembler is assembleLocked's scratch, reused under mergeMu: each shard's
// diff against the previous assembly, the merges of those, and the merge
// cursors.
type assembler struct {
	dels, inss []slots.List
	del, ins   slots.List
	heads      []slots.List
}

// merge appends the merge of the ordered parts to out, in Before order.
// Shards partition the nodes, so no two parts hold an equal key.
func (sp *assembler) merge(out slots.List, parts []slots.List) slots.List {
	heads := append(sp.heads[:0], parts...)
	for {
		best := -1
		for i, h := range heads {
			if len(h) > 0 && (best < 0 || slots.Before(h[0], heads[best][0])) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		out = append(out, heads[best][0])
		heads[best] = heads[best][1:]
	}
	clear(heads)
	sp.heads = heads[:0]
	return out
}

// reset empties the scratch for the next assembly, dropping the slots it
// points at and any list grown past assemblyScratch.
func (sp *assembler) reset() {
	for i := range sp.dels {
		sp.dels[i], sp.inss[i] = emptied(sp.dels[i]), emptied(sp.inss[i])
	}
	sp.del, sp.ins = emptied(sp.del), emptied(sp.ins)
}

func emptied(l slots.List) slots.List {
	if cap(l) > assemblyScratch {
		return nil
	}
	clear(l)
	return l[:0]
}

// vecRing maps combined versions to their per-shard version vectors, so
// InvalidatedSince between two combined versions can be answered by the
// per-shard rings. Combined versions are consecutive (assembly is
// serialized), so entry i covers version base+i; versions that fell off
// the ring are answered conservatively (invalidated).
type vecRing struct {
	mu   sync.Mutex
	ring versionRing[[]uint64]
}

func (r *vecRing) put(version uint64, vec []uint64) {
	r.mu.Lock()
	r.ring.put(version, vec)
	r.mu.Unlock()
}

func (r *vecRing) get(version uint64) []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.ring.holds(version) {
		return nil
	}
	return r.ring.at(version)
}

// Sharded is the partitioned pool: N Inventory shards plus the router
// state. All methods are safe for concurrent use.
type Sharded struct {
	opts   Options
	shards []*Inventory

	epoch    uint64        // the largest of the shards' epochs when the router was built
	nextID   atomic.Uint64 // router ID mint in epoch (shared namespace across shards)
	noWindow atomic.Uint64 // failed searches (they journal no event anywhere)

	// mergeMu serializes merged-snapshot assembly and guards its scratch;
	// cur is the latest assembly, revalidated lock-free against the live
	// shard versions.
	mergeMu sync.Mutex
	asm     assembler
	mergeV  atomic.Uint64
	cur     atomic.Pointer[combined]
	vers    vecRing

	stripes []liveStripe
}

// NewSharded builds a partitioned pool over the initial slot list.
// opts.Shards is the partition count and must be at least 2 — a single
// pool is New's (wal.Boot chooses between the two).
// Every shard is constructed even when its partition is empty. opts.Sink
// is rejected: shards cannot share one sequence-checked sink (a durable
// sharded pool is built shard by shard, see wal.SeedSharded).
func NewSharded(list slots.List, opts Options) (*Sharded, error) {
	n := opts.Shards
	if n < 2 {
		return nil, fmt.Errorf("inventory: a sharded pool needs at least 2 shards, got %d (use New for a single pool)", n)
	}
	if opts.Sink != nil {
		return nil, fmt.Errorf("inventory: a sharded pool cannot share one Sink across its shards")
	}
	parts := PartitionByShard(list, n)
	shards := make([]*Inventory, n)
	for i := range shards {
		inv, err := New(parts[i], opts)
		if err != nil {
			return nil, err
		}
		shards[i] = inv
	}
	return newRouter(shards, opts), nil
}

// NewShardedFrom assembles a router over already-built shards (at least
// 2): the durable paths, where each shard journals to its own WAL
// directory. On recovery (wal.OpenSharded) each shard was restored from
// its own snapshot + log tail, and the router rebuilds its routing table
// from the recovered holds and mints in the largest epoch of any shard,
// past the highest NextID of any shard (none on the durable paths, where
// every shard has just journaled a boot record). A recovered cross-shard
// hold is recognized by its ID appearing on several shards; its client
// deadline is the shard deadline minus the grace, and its placements are
// regrouped in shard order (the discovery order did not survive the crash
// — the aggregates are recomputed, the spans are exact). A hold with fewer parts
// than its reserve placed (HoldRecord.Parts) lost one in a crash: it gets
// no routing record, so a commit or release of it answers
// ErrUnknownReservation, and its parts lapse at their shard deadline.
func NewShardedFrom(shards []*Inventory, opts Options) (*Sharded, error) {
	if len(shards) < 2 {
		return nil, fmt.Errorf("inventory: a sharded pool needs at least 2 shards, got %d", len(shards))
	}
	s := newRouter(shards, opts)
	type part struct {
		shard int
		h     HoldRecord
	}
	byID := make(map[string][]part)
	var maxID uint64
	for i, sh := range shards {
		st := sh.ExportState()
		s.epoch = max(s.epoch, st.Epoch)
		maxID = max(maxID, st.NextID)
		for _, h := range st.Holds {
			byID[h.ID] = append(byID[h.ID], part{shard: i, h: h})
		}
	}
	s.nextID.Store(maxID)
	for id, ps := range byID {
		if len(ps) < ps[0].h.Parts {
			continue
		}
		sort.Slice(ps, func(i, j int) bool { return ps[i].shard < ps[j].shard })
		e := &liveRes{expires: ps[0].h.Expires, window: ps[0].h.Window}
		for _, p := range ps {
			e.shards = append(e.shards, p.shard)
		}
		if len(ps) > 1 {
			e.expires = e.expires.Add(-crossShardGrace)
			wins := make([]*core.Window, len(ps))
			for i, p := range ps {
				wins[i] = p.h.Window
			}
			e.window = mergeWindowParts(wins)
		}
		s.stripe(id).m[id] = e
	}
	return s, nil
}

func newRouter(shards []*Inventory, opts Options) *Sharded {
	s := &Sharded{opts: opts.withDefaults(), shards: shards}
	s.stripes = make([]liveStripe, len(shards))
	for i := range s.stripes {
		s.stripes[i].m = make(map[string]*liveRes)
		s.stripes[i].committed = make(map[string]*core.Window)
	}
	s.asm.dels = make([]slots.List, len(shards))
	s.asm.inss = make([]slots.List, len(shards))
	// The first assembly inserts every shard into an empty sequence.
	empty, _ := slots.SeqOf(nil)
	boot := &combined{seqs: make([]*slots.Seq, len(shards))}
	boot.view.seq = empty
	for i := range boot.seqs {
		boot.seqs[i] = empty
	}
	s.mergeMu.Lock()
	s.cur.Store(s.assembleLocked(boot))
	s.mergeMu.Unlock()
	return s
}

// stripe picks the routing-table stripe for an ID (FNV-1a).
func (s *Sharded) stripe(id string) *liveStripe {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return &s.stripes[h%uint64(len(s.stripes))]
}

// Shards reports the partition count (Pool interface).
func (s *Sharded) Shards() int { return len(s.shards) }

// Shard returns the i'th partition — the seam for per-shard WAL
// snapshots, the per-shard replay suite and per-shard telemetry.
func (s *Sharded) Shard(i int) *Inventory { return s.shards[i] }

// ---- merged snapshot ----

// Snapshot returns the merged global free list: the cached assembly is
// revalidated against the live per-shard versions (n atomic loads, no
// allocation), reassembled only when some shard has published since, and
// flattened by the first Snapshot() that reads it (Latest never flattens).
//
// The merged list is in the same canonical (start, node, end) order the
// single-pool snapshot uses — shards partition the node space, so the
// k-way merge of their individually sorted lists is exactly the globally
// sorted list, and any search over it sees the byte-identical candidate
// stream the unsharded scan would see.
func (s *Sharded) Snapshot() *Snapshot { return s.current().snapshot() }

// current returns the assembly of the shards' latest versions.
func (s *Sharded) current() *combined {
	c := s.cur.Load()
	if s.fresh(c) {
		return c
	}
	s.mergeMu.Lock()
	defer s.mergeMu.Unlock()
	c = s.cur.Load()
	if s.fresh(c) {
		return c
	}
	c = s.assembleLocked(c)
	s.cur.Store(c)
	return c
}

// fresh compares versions only: it never makes a shard flatten the version
// it is on.
func (s *Sharded) fresh(c *combined) bool {
	for i, sh := range s.shards {
		if sh.pub.Load().view.Version != c.vec[i] {
			return false
		}
	}
	return true
}

// assembleLocked cuts the next merged snapshot from prev (mergeMu held),
// at the cost of what the shards changed since prev was cut: each shard's
// published sequence is diffed against the one prev was cut from (leaves
// they share are skipped unread), the per-shard diffs are merged into Before
// order, and the merge is applied to prev's sequence as one Edit, which
// rebuilds and re-verifies only the leaves it lands in. Nothing is
// flattened. Each shard's sequence is individually consistent; the assembly
// is the scatter-gather read point, revalidated per shard on the reserve
// path exactly like a stale single-pool snapshot would be.
func (s *Sharded) assembleLocked(prev *combined) *combined {
	sp := &s.asm
	c := &combined{vec: make([]uint64, len(s.shards)), seqs: make([]*slots.Seq, len(s.shards))}
	for i, sh := range s.shards {
		p := sh.pub.Load()
		c.vec[i], c.seqs[i] = p.view.Version, p.view.seq
		sp.dels[i], sp.inss[i] = p.view.seq.Diff(prev.seqs[i], sp.dels[i], sp.inss[i])
	}
	sp.del, sp.ins = sp.merge(sp.del, sp.dels), sp.merge(sp.ins, sp.inss)
	ins := sp.ins
	if prev.view.seq.Len() == 0 {
		// Filling an empty sequence keeps ins as its leaves, and ins is
		// scratch that reset clears: the boot assembly gets its own copy.
		ins = slices.Clone(ins)
	}
	seq, err := prev.view.seq.Edit(sp.del, ins)
	if err != nil {
		// Each diff is exact and the shards' nodes are disjoint; only a bug
		// can make the merged list disagree with them.
		panic(fmt.Sprintf("inventory: merged snapshot out of step with its shards: %v", err))
	}
	sp.reset()
	c.view = Snapshot{Version: s.mergeV.Add(1), MinSlotLength: s.opts.MinSlotLength, seq: seq}
	s.vers.put(c.view.Version, c.vec)
	return c
}

// InvalidatedSince reports whether free capacity overlapping [lo, hi)
// may have changed between two merged-snapshot versions: the per-shard
// version vectors of both are looked up and each shard's own invalidation
// ring is consulted. Vectors that fell off the ring answer conservatively.
func (s *Sharded) InvalidatedSince(since, now uint64, lo, hi float64) bool {
	if since == now {
		return false
	}
	if now < since {
		return true
	}
	vs := s.vers.get(since)
	vn := s.vers.get(now)
	if vs == nil || vn == nil {
		return true
	}
	for i, sh := range s.shards {
		if sh.InvalidatedSince(vs[i], vn[i], lo, hi) {
			return true
		}
	}
	return false
}

// AddChangeListener fans the subscription out to every shard: the change
// feed carries time ranges (Change.Lo/Hi), which are shard-agnostic, so a
// watcher woken by any shard's publication re-examines its horizon exactly
// as with a single pool.
func (s *Sharded) AddChangeListener(fn func(Change)) {
	for _, sh := range s.shards {
		sh.AddChangeListener(fn)
	}
}

// ---- reserve path ----

func (s *Sharded) countNoWindow() { s.noWindow.Add(1) }

// Reserve searches the merged snapshot and places a hold on the winning
// window. Retries on conflict against a fresh merge, like the single pool.
func (s *Sharded) Reserve(req *job.Request, alg core.Algorithm, ttl time.Duration) (*Reservation, error) {
	return reserveFound(s, &s.opts, query{req: req, alg: alg}, ttl)
}

// ReserveBest runs the CSA alternative search over the merged snapshot and
// holds the extreme-by-criterion alternative, with the same conflict
// retry.
func (s *Sharded) ReserveBest(req *job.Request, crit csa.Criterion, maxAlts int, ttl time.Duration) (*Reservation, error) {
	return reserveFound(s, &s.opts, query{req: req, crit: crit, maxAlts: maxAlts}, ttl)
}

// enter opens one mutation envelope across the given shards, locking in
// ascending shard order — the one order every multi-shard operation uses,
// so two of them cannot deadlock.
func (s *Sharded) enter(shards []int) (begin time.Duration) {
	for i, si := range shards {
		if b := s.shards[si].enter(); i == 0 {
			begin = b
		}
	}
	return begin
}

// leave closes it: every mutex is released before any durability wait, so
// the shards' fsyncs overlap and no lock is held across one.
func (s *Sharded) leave(shards []int) (err error) {
	waits := make([]func() error, len(shards))
	for i, si := range shards {
		waits[i] = s.shards[si].unlock()
	}
	for i, si := range shards {
		s.shards[si].flushChanges()
		if derr := awaitDurable(waits[i]); err == nil {
			err = derr
		}
	}
	return err
}

// ReserveWindow places a hold on an externally found window under the
// mutexes of every shard it touches: each part is checked against its
// shard, and only when all fit are they placed — under one router-minted
// ID, a cross-shard hold's parts with shard deadline = client deadline +
// grace — and the routing record written, all before any lock is
// released. A Withdraw therefore sees the hold whole or not at all, and
// whichever of two contending reserves locks a shared shard first wins the
// span. A refusal journals one conflict, on the first shard that refused,
// and consumes no ID.
func (s *Sharded) ReserveWindow(w *core.Window, ttl time.Duration) (*Reservation, error) {
	if w == nil || len(w.Placements) == 0 {
		return nil, errEmptyWindow
	}
	if ttl <= 0 {
		ttl = s.opts.DefaultTTL
	}
	order, parts := splitWindowByShard(w, len(s.shards))
	begin := s.enter(order)
	expires := s.opts.Clock().Add(ttl)
	shardExpires := expires
	if len(order) > 1 {
		shardExpires = expires.Add(crossShardGrace)
	}
	refused := -1
	for _, si := range order {
		if !s.shards[si].admitsLocked("", usedOf(parts[si])) {
			refused = si
			break
		}
	}
	var res *Reservation
	if refused >= 0 {
		s.shards[refused].reserveLocked("", parts[refused], 0, shardExpires, 0, begin)
	} else {
		id := s.mintLocked(order)
		n := 0
		if len(order) > 1 {
			n = len(order)
		}
		for _, si := range order {
			res = s.shards[si].reserveLocked(id, parts[si], 0, shardExpires, n, begin)
		}
		if len(order) > 1 {
			res = &Reservation{ID: id, Window: w, Version: s.cur.Load().view.Version, Expires: expires}
		}
		st := s.stripe(id)
		st.mu.Lock()
		st.m[id] = &liveRes{shards: order, expires: expires, window: w}
		st.mu.Unlock()
	}
	if err := s.leave(order); err != nil {
		return nil, err
	}
	if res == nil {
		return nil, ErrConflict
	}
	return res, nil
}

// mintLocked returns the router's next ID, passing over any that a hold or
// a commit on the locked shards already carries, as Inventory.mintLocked
// does.
func (s *Sharded) mintLocked(order []int) string {
	for {
		id := reservationID(s.nextID.Add(1), s.epoch)
		if !slices.ContainsFunc(order, func(si int) bool {
			sh := s.shards[si]
			return sh.holds[id] != nil || sh.committed[id] != nil
		}) {
			return id
		}
	}
}

// claim atomically removes and returns the routing record for id. Exactly
// one of a racing Commit / Release / Withdraw / router sweep wins the
// claim; the losers see nil and report ErrUnknownReservation, like the
// single pool.
func (s *Sharded) claim(id string) *liveRes {
	st := s.stripe(id)
	st.mu.Lock()
	e := st.m[id]
	delete(st.m, id)
	st.mu.Unlock()
	return e
}

// splitWindowByShard groups a window's placements by owning shard,
// preserving their order within each group, and recomputes each part's
// aggregates with the same accumulation NewWindow uses. Returns the
// touched shards in ascending order (the lock order) and the per-shard
// sub-windows; a window on one shard is its own part.
func splitWindowByShard(w *core.Window, n int) (order []int, parts map[int]*core.Window) {
	parts = make(map[int]*core.Window)
	for _, p := range w.Placements {
		si := ShardOf(p.Node().ID, n)
		part := parts[si]
		if part == nil {
			part = &core.Window{Start: w.Start}
			parts[si] = part
			order = append(order, si)
		}
		part.Placements = append(part.Placements, p)
		if p.Exec > part.Runtime {
			part.Runtime = p.Exec
		}
		part.Cost += p.Cost
		part.ProcTime += p.Exec
	}
	if len(order) == 1 {
		parts[order[0]] = w
	}
	sort.Ints(order)
	return order, parts
}

// mergeWindowParts concatenates per-shard sub-windows (in the given
// order) back into one window, recomputing the aggregates.
func mergeWindowParts(wins []*core.Window) *core.Window {
	total := 0
	for _, p := range wins {
		total += len(p.Placements)
	}
	out := &core.Window{Start: wins[0].Start, Placements: make([]core.Placement, 0, total)}
	for _, p := range wins {
		out.Placements = append(out.Placements, p.Placements...)
		if p.Start < out.Start {
			out.Start = p.Start
		}
		if p.Runtime > out.Runtime {
			out.Runtime = p.Runtime
		}
		out.Cost += p.Cost
		out.ProcTime += p.ProcTime
	}
	return out
}

// ---- settle path ----

// settle claims a hold and moves every part of it the same way under all
// its shards' mutexes. A commit goes through only when every part is still
// live and the client deadline has not passed (the router is the expiry
// authority of a cross-shard hold); otherwise — a part was cancelled by a
// Withdraw, released on its shard or swept — the parts that remain are
// released and the commit is refused, so no window is ever half-committed.
// live reports how many parts were still held.
func (s *Sharded) settle(id string, commit bool) (w *core.Window, live int, err error) {
	e := s.claim(id)
	if e == nil {
		return nil, 0, nil
	}
	begin := s.enter(e.shards)
	for _, si := range e.shards {
		if s.shards[si].holds[id] != nil {
			live++
		}
	}
	op := OpRelease
	if commit && live == len(e.shards) && e.expires.After(s.opts.Clock()) {
		op, w = OpCommit, e.window
		st := s.stripe(id)
		st.mu.Lock()
		st.committed[id] = e.window
		st.mu.Unlock()
	}
	for _, si := range e.shards {
		if sh := s.shards[si]; sh.holds[id] != nil {
			sh.settleLocked(op, id, begin)
		}
	}
	return w, live, s.leave(e.shards)
}

// Commit makes a hold permanent on every shard that has a part of it, or
// on none. The committed window returned is the original (discovery
// order), not the per-shard regrouping.
func (s *Sharded) Commit(id string) (*core.Window, error) {
	w, _, err := s.settle(id, true)
	if err != nil {
		return nil, err
	}
	if w == nil {
		return nil, ErrUnknownReservation
	}
	return w, nil
}

// Release cancels a live hold on every shard that still has a part of it.
func (s *Sharded) Release(id string) error {
	_, live, err := s.settle(id, false)
	if err == nil && live == 0 {
		err = ErrUnknownReservation
	}
	return err
}

// Sweep reclaims lapsed holds: cross-shard holds past their client
// deadline are released on their shards (the router is their expiry
// authority), dead routing records are pruned, and every shard runs its
// own sweeper. Shard-local TTL expiry also happens automatically at every
// shard mutation, exactly like the single pool; only the cross-shard
// deadline needs the router's sweep (or the expiry+grace backstop).
func (s *Sharded) Sweep() int {
	now := s.opts.Clock()
	var due []string
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		for id, e := range st.m {
			if e.expires.After(now) {
				continue
			}
			if len(e.shards) > 1 {
				due = append(due, id)
			} else {
				delete(st.m, id) // the shard's own sweeper expires it (OpExpire)
			}
		}
		st.mu.Unlock()
	}
	n := 0
	for _, id := range due {
		if _, live, _ := s.settle(id, false); live > 0 {
			n++
		}
	}
	for _, sh := range s.shards {
		n += sh.Sweep()
	}
	return n
}

// ---- capacity path ----

// Add publishes additional capacity, partitioned to the owning shards.
// The whole list is validated first, so a bad list mutates nothing.
func (s *Sharded) Add(list slots.List) error {
	if len(list) == 0 {
		return nil
	}
	if err := list.Validate(); err != nil {
		return err
	}
	parts := make(map[int]slots.List)
	var order []int
	for _, sl := range list {
		si := ShardOf(sl.Node.ID, len(s.shards))
		if parts[si] == nil {
			order = append(order, si)
		}
		parts[si] = append(parts[si], sl)
	}
	sort.Ints(order)
	for _, si := range order {
		if err := s.shards[si].Add(parts[si]); err != nil {
			return err
		}
	}
	return nil
}

// Withdraw removes a node's capacity from its owning shard. Cancelled
// holds that span other shards have their sibling parts released there, so
// all their spans return to the pool, like the single pool.
func (s *Sharded) Withdraw(nodeID int) ([]string, error) {
	cancelled, err := s.shards[ShardOf(nodeID, len(s.shards))].Withdraw(nodeID)
	for _, id := range cancelled {
		if _, _, serr := s.settle(id, false); err == nil {
			err = serr
		}
	}
	return cancelled, err
}

// ---- aggregation ----

// AggregateCounters sums lifecycle counters across shards — the view the
// drain-rate estimate and statusz read, so a cold shard contributes its
// zeros instead of masking the others' totals. Note the per-shard counters
// count sub-operations: one cross-shard reserve is one Reserves tick on
// each touched shard.
func AggregateCounters(cs ...Counters) Counters {
	var t Counters
	for _, c := range cs {
		t.Reserves += c.Reserves
		t.Conflicts += c.Conflicts
		t.NoWindow += c.NoWindow
		t.Commits += c.Commits
		t.Releases += c.Releases
		t.Expiries += c.Expiries
		t.Adds += c.Adds
		t.Withdrawals += c.Withdrawals
		t.Cancelled += c.Cancelled
	}
	return t
}

// Status aggregates across every shard: counters are summed (a cold shard
// adds zeros), hold/commit counts are distinct IDs (a cross-shard hold has
// a part under its one ID on every shard it touches, and counts once), and
// the version/free figures come from the merged sequence, which no scrape
// flattens. The IDs are counted straight from the shards' tables: no list
// is sorted and no window regrouped.
func (s *Sharded) Status() Status {
	c := s.current()
	st := Status{
		Version:   c.view.Version,
		FreeSlots: c.view.seq.Len(),
		FreeSpan:  c.view.seq.TotalSpan(),
	}
	holds, commits := make(map[string]struct{}), make(map[string]struct{})
	for _, sh := range s.shards {
		sh.mu.Lock()
		st.Nodes += len(sh.base)
		st.JournalLen += len(sh.journal)
		st.Counters = AggregateCounters(st.Counters, sh.counters)
		for id := range sh.holds {
			holds[id] = struct{}{}
		}
		for id := range sh.committed {
			commits[id] = struct{}{}
		}
		sh.mu.Unlock()
	}
	st.Holds, st.Committed = len(holds), len(commits)
	st.Counters.NoWindow += s.noWindow.Load()
	return st
}

// ShardStatuses returns each shard's own Status (statusz drill-down).
func (s *Sharded) ShardStatuses() []Status {
	out := make([]Status, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.Status()
	}
	return out
}

// Holds returns the distinct live hold IDs across all shards, sorted.
func (s *Sharded) Holds() []string {
	seen := make(map[string]bool)
	var ids []string
	for _, sh := range s.shards {
		for _, id := range sh.Holds() {
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
	}
	sort.Strings(ids)
	return ids
}

// Committed returns the committed allocations keyed by ID. A cross-shard
// window settled through this router is returned in its original
// discovery order; one recovered from per-shard state is regrouped in
// shard order with recomputed aggregates (the spans are exact either way).
func (s *Sharded) Committed() map[string]*core.Window {
	type group struct {
		shards []int
		wins   []*core.Window
	}
	groups := make(map[string]*group)
	for i, sh := range s.shards {
		for id, w := range sh.Committed() {
			g := groups[id]
			if g == nil {
				g = &group{}
				groups[id] = g
			}
			g.shards = append(g.shards, i)
			g.wins = append(g.wins, w)
		}
	}
	out := make(map[string]*core.Window, len(groups))
	for id, g := range groups {
		if len(g.wins) == 1 {
			out[id] = g.wins[0]
			continue
		}
		st := s.stripe(id)
		st.mu.Lock()
		orig := st.committed[id]
		st.mu.Unlock()
		if orig != nil {
			out[id] = orig
		} else {
			out[id] = mergeWindowParts(g.wins)
		}
	}
	return out
}
