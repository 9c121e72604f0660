package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"slotsel/internal/env"
	"slotsel/internal/job"
	"slotsel/internal/persist"
	"slotsel/internal/randx"
	"slotsel/internal/slots"
)

type opKind uint8

const (
	opFind  opKind = iota // one POST /v1/find
	opBook                // reserve, then commit or release: one transaction
	opChurn               // Pool.Withdraw(node) then Pool.Add(its original slots)
)

// op is one client operation. Operation i of a run is a pure function of
// (workload, seed, i): see inputs.op.
type op struct {
	kind   opKind
	body   int  // index into inputs.find (opFind) or inputs.book (opBook)
	commit bool // opBook: commit the hold (else release it)
	node   int  // opChurn: node ID
}

// workload is one traffic mix over one stack configuration.
type workload struct {
	name string
	why  string

	nodes   int     // pool size
	horizon float64 // scheduling interval; slots ~ nodes * horizon / 100
	shards  int
	wal     bool // journal to fsync'd write-ahead logs

	// prepopulate booking transactions are applied to the WAL directory
	// before timing, so that set-up measures a recovery with a log tail.
	prepopulate int

	// boots is how many times set-up runs; setup_s is their median.
	boots int

	// roundOps is the operation count of one measured round: a quarter of
	// a second of work or more, at least 110 operations so that ten samples lie
	// beyond a round's 90th percentile, and whole cycles so that every
	// round has the same mix.
	roundOps int

	// opsPerSecond is this workload's throughput on the reference machine
	// (README.md). It turns --seconds into a number of rounds, so work is
	// fixed by count and a run measures for about --seconds there.
	opsPerSecond float64

	// warmupRounds is the untimed warm-up, in rounds.
	warmupRounds int

	// cycle is the repeating operation-kind pattern; nil means all finds.
	cycle []opKind

	// commitOneIn is the share of booking transactions that commit their
	// hold; the others release it. Commits are the only thing that
	// accumulates in the pool, so this sets how fast a run's state drifts.
	commitOneIn int

	findShapes int      // distinct /v1/find bodies; 0 = one per operation
	findAlgs   []string // algorithm of find body j is findAlgs[j%len]
	bookShapes int      // distinct /v1/reserve bodies
}

// pattern spells a cycle: f = find, b = booking, c = churn step. The
// order is part of the workload, not of the seed: how many finds follow a
// mutation decides the cache hit share, and a seed that shuffled the order
// would change what the workload measures.
func pattern(p string) []opKind {
	var c []opKind
	for _, r := range p {
		switch r {
		case 'f':
			c = append(c, opFind)
		case 'b':
			c = append(c, opBook)
		case 'c':
			c = append(c, opChurn)
		}
	}
	return c
}

// workloads lists the benchmark's workloads. README.md explains why each
// exists, which layer it stresses and which it bypasses.
var workloads = []*workload{
	{
		name:  "find_hot",
		why:   "64 repeated AMP find shapes over 1024 nodes: every op is a FindCache hit, so server+net dominate and core is bypassed",
		nodes: 1024, horizon: 600, shards: 1,
		boots: 15, roundOps: 6000, opsPerSecond: 25000, warmupRounds: 2,
		findShapes: 64, findAlgs: []string{"amp"},
	},
	{
		name:  "find_scan",
		why:   "never-repeating find shapes over 1024 nodes, 4 of 5 full-scan algorithms: every lookup misses, so the core scan dominates and HTTP is noise",
		nodes: 1024, horizon: 600, shards: 1,
		boots: 15, roundOps: 110, opsPerSecond: 105, warmupRounds: 1,
		findAlgs: []string{"mincost", "mincost", "minruntime", "minfinish", "amp"},
	},
	{
		name:  "book_deep",
		why:   "reserve then commit/release over a 47k-slot pool with an fsync'd WAL: time goes to inventory publication and wal group commit",
		nodes: 1024, horizon: 6000, shards: 1, wal: true, prepopulate: 500,
		boots: 5, roundOps: 120, opsPerSecond: 400, warmupRounds: 1,
		cycle: pattern("b"), bookShapes: 16, commitOneIn: 8,
	},
	{
		name:  "mixed_churn",
		why:   "finds beside cross-shard bookings and owner churn on 4 shards with per-shard WALs: mutations invalidate the cache and reads re-merge shard snapshots",
		nodes: 1024, horizon: 1200, shards: 4, wal: true, prepopulate: 200,
		boots: 5, roundOps: 400, opsPerSecond: 2100, warmupRounds: 1,
		cycle: pattern("ffffb ffffb ffffc ffffb"), findShapes: 8, findAlgs: []string{"amp"}, bookShapes: 16, commitOneIn: 8,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// rounds is how many measured rounds a run of the given length has.
func (w *workload) rounds(seconds int) int {
	return max(5, int(float64(seconds)*w.opsPerSecond/float64(w.roundOps)+0.5))
}

// request is one pre-encoded /v1/find or /v1/reserve body with the job
// request and algorithm it encodes, which the output checks and the
// pre-population use directly.
type request struct {
	body []byte
	req  *job.Request
	alg  string
}

// inputs are everything a run feeds the stack, generated from the seed
// and written out before any timing starts.
type inputs struct {
	w    *workload
	seed uint64

	rounds           int // measured rounds of an untraced run
	warmup, perRound int // operation counts

	slotFile  string             // persist slot-list file the stack boots from
	nodeSlots map[int]slots.List // each node's original free slots (churn re-adds them)
	nodeIDs   []int              // churn visits nodes in this order

	find []request
	book []request
}

// tracedOps is the length of each of the traced run's three rounds: four
// ordinary rounds where the run is long enough to hold them.
func (in *inputs) tracedOps() int { return in.perRound * min(4, in.rounds/3) }

func (in *inputs) totalOps() int { return in.warmup + in.rounds*in.perRound }

// mix is SplitMix64 over (seed, i, stream): the per-operation randomness.
func mix(seed uint64, i int, stream uint64) uint64 {
	z := seed + uint64(i)*0x9e3779b97f4a7c15 + stream*0xd1b54a32d192ed03
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// op returns operation i of the run.
func (in *inputs) op(i int) op {
	kind := opFind
	if c := in.w.cycle; len(c) > 0 {
		kind = c[i%len(c)]
	}
	switch kind {
	case opBook:
		return op{
			kind:   opBook,
			body:   int(mix(in.seed, i, 1) % uint64(len(in.book))),
			commit: mix(in.seed, i, 2)%uint64(in.w.commitOneIn) == 0,
		}
	case opChurn:
		return op{kind: opChurn, node: in.nodeIDs[(i/len(in.w.cycle))%len(in.nodeIDs)]}
	}
	if in.w.findShapes == 0 {
		return op{kind: opFind, body: i} // never repeats
	}
	return op{kind: opFind, body: int(mix(in.seed, i, 3) % uint64(len(in.find)))}
}

// opHash fingerprints the whole operation sequence with its payloads.
func (in *inputs) opHash() uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < in.totalOps(); i++ {
		o := in.op(i)
		binary.LittleEndian.PutUint64(b[:], uint64(o.kind)|uint64(o.node)<<8)
		h.Write(b[:])
		switch o.kind {
		case opFind:
			h.Write(in.find[o.body].body)
		case opBook:
			h.Write(in.book[o.body].body)
			if o.commit {
				h.Write([]byte{1})
			}
		}
	}
	return h.Sum64()
}

// searchBody encodes a /v1/find or /v1/reserve payload.
func searchBody(req *job.Request, alg string) ([]byte, error) {
	var rb bytes.Buffer
	if err := persist.WriteRequest(&rb, req); err != nil {
		return nil, err
	}
	return json.Marshal(struct {
		Request json.RawMessage `json:"request"`
		Alg     string          `json:"alg"`
	}{rb.Bytes(), alg})
}

// budget is the cost limit per unit of volume. The paper's base job
// allows 2 (1500 for 5 tasks of volume 150); there AMP passes over several
// hundred windows before one is cheap enough, and how many depends on the
// handful of cheapest nodes, so the cost of a search swings by a factor of
// two from one seed's environment to the next. At 5 the limit rarely
// binds: AMP takes the first window wide enough, a search costs the same
// on every seed, and a booking's time goes to the inventory and the WAL,
// which is what the booking workloads measure.
const budget = 5.0

// shape is request j of n: the paper's base job (5 tasks of volume 150)
// with the volume spread evenly over 100..200. The set of shapes is the
// same on every seed, because what a search costs depends on the shape:
// the seed decides the environment they run against and which operation
// uses which shape, not what the shapes are.
func shape(j, n, tasks int) *job.Request {
	volume := 100 + 100*(float64(j)+0.5)/float64(n)
	return &job.Request{TaskCount: tasks, Volume: volume, MaxCost: float64(tasks) * volume * budget}
}

// generate builds a run's inputs under dir and writes the slot file.
func generate(w *workload, seed uint64, seconds int, quick bool, dir string) (*inputs, error) {
	in := &inputs{w: w, seed: seed}
	in.rounds, in.perRound = w.rounds(seconds), w.roundOps
	if quick {
		c := max(1, len(w.cycle))
		in.rounds, in.perRound = 3, (max(20, w.roundOps/10)+c-1)/c*c
	}
	in.warmup = w.warmupRounds * in.perRound

	rng := randx.New(seed)
	e := env.Generate(env.DefaultConfig().WithNodeCount(w.nodes).WithHorizon(w.horizon), rng)
	in.slotFile = filepath.Join(dir, "slots.json")
	f, err := os.Create(in.slotFile)
	if err != nil {
		return nil, err
	}
	if err := persist.WriteSlotList(f, e.Slots); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	in.nodeSlots = e.Slots.ByNode()
	for _, n := range e.Nodes {
		if len(in.nodeSlots[n.ID]) > 0 {
			in.nodeIDs = append(in.nodeIDs, n.ID)
		}
	}
	rng.Shuffle(len(in.nodeIDs), func(i, j int) {
		in.nodeIDs[i], in.nodeIDs[j] = in.nodeIDs[j], in.nodeIDs[i]
	})

	nFind := w.findShapes
	if nFind == 0 && len(w.findAlgs) > 0 {
		nFind = in.totalOps()
	}
	unique := rng.Perm(nFind) // seeded order of the never-repeating volumes
	for j := 0; j < nFind; j++ {
		req := shape(j, nFind, 3+j%4) // 3..6 tasks
		if w.findShapes == 0 {
			// One shape per operation: the base job with a volume that
			// never repeats, so the cache key is always new while the
			// search costs what the base job costs.
			req = shape(0, 1, 5)
			req.Volume += float64(unique[j]) * 1e-3
		}
		alg := w.findAlgs[j%len(w.findAlgs)]
		body, err := searchBody(req, alg)
		if err != nil {
			return nil, err
		}
		in.find = append(in.find, request{body: body, req: req, alg: alg})
	}
	for j := 0; j < w.bookShapes; j++ {
		req := shape(j, w.bookShapes, 5)
		body, err := searchBody(req, "amp")
		if err != nil {
			return nil, err
		}
		in.book = append(in.book, request{body: body, req: req, alg: "amp"})
	}
	if in.totalOps() < 1 {
		return nil, fmt.Errorf("workload %s: no operations", w.name)
	}
	return in, nil
}
