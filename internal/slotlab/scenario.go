package slotlab

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"slotsel/internal/inventory"
	"slotsel/internal/nodes"
	"slotsel/internal/randx"
	"slotsel/internal/slots"
	"slotsel/internal/workload"
)

// Params is everything a scenario hands the harness before boot: the
// environment shape, the server's admission profile, the client fleet and
// the objectives to hold the run to.
type Params struct {
	// Nodes is the environment node count (heterogeneous, §3.1 model).
	Nodes int

	// Horizon is the slot-timeline length (paper default 600).
	Horizon float64

	// MinSlotLength suppresses free-list fragments (paper default 10).
	MinSlotLength float64

	// TTL is the default hold lifetime; short TTLs exercise the sweeper.
	TTL time.Duration

	// MaxInflight/QueueDepth/RequestTimeout shape the admission gate.
	MaxInflight    int
	QueueDepth     int
	RequestTimeout time.Duration

	// Workers is the concurrent client fleet size.
	Workers int

	// BodyStall, when positive, puts the fleet on slow uplinks: the last
	// byte of every request body arrives this long after the rest. The
	// server reads a body inside its admission gate, so the stall is a
	// floor under every request's service time that does not depend on how
	// fast the search is — and the handler spends it parked, so the rest of
	// the fleet arrives meanwhile even on one processor.
	BodyStall time.Duration

	// SLO is the scenario's objective set.
	SLO SLO

	// Background, when non-nil, runs for the whole traffic window
	// alongside the workers (churn actors mutating the inventory
	// directly, the way an operator or node agent would).
	Background func(lab *Lab, stop <-chan struct{})
}

// Lab is the live harness a scenario's workers drive: the booted service,
// its backing inventory, and the shared clock.
type Lab struct {
	Cfg    Config
	Params Params
	Client *Client
	Inv    *inventory.Inventory

	ctx   context.Context
	start time.Time
	dur   time.Duration
}

// Frac is the elapsed fraction of the traffic window in [0, 1] — the
// diurnal scenario's wall-clock-to-cycle mapping.
func (l *Lab) Frac() float64 {
	f := float64(time.Since(l.start)) / float64(l.dur)
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// Sleep waits d or until the traffic window closes, reporting whether the
// window is still open.
func (l *Lab) Sleep(d time.Duration) bool {
	if d <= 0 {
		return l.ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-l.ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// Scenario is one pluggable traffic shape: parameters, a per-worker
// operation generator, and optional scenario-specific expectation checks
// over the statusz counter deltas.
type Scenario struct {
	// Name is the registry key (CLI -scenarios value).
	Name string

	// Description is one line for reports and -list output.
	Description string

	params func(cfg Config) Params

	// worker returns the operation loop body for one worker: called with
	// the operation index until the traffic window closes. Each worker
	// owns a deterministic rng derived from the run seed and its ID.
	worker func(lab *Lab, rng *randx.Rand, id int) func(op int)

	// verify, when non-nil, adds scenario-specific checks over the
	// statusz deltas (e.g. "the flash crowd must actually have shed").
	verify func(lab *Lab, delta StatuszDelta) []CheckResult
}

// Scenarios returns the registry in canonical order.
func Scenarios() []*Scenario {
	return []*Scenario{
		flashCrowd(),
		hotSpot(),
		churn(),
		deadlineFarm(),
		budgetStarved(),
		diurnal(),
	}
}

// ScenarioNames returns the canonical names, in order.
func ScenarioNames() []string {
	all := Scenarios()
	names := make([]string, len(all))
	for i, s := range all {
		names[i] = s.Name
	}
	return names
}

// Resolve maps CLI scenario selectors to registry entries: "all", a single
// name, or a comma-separated list. Unknown names error with the known set.
func Resolve(selector string) ([]*Scenario, error) {
	all := Scenarios()
	if selector == "" || selector == "all" {
		return all, nil
	}
	byName := make(map[string]*Scenario, len(all))
	for _, s := range all {
		byName[s.Name] = s
	}
	var out []*Scenario
	seen := make(map[string]bool)
	for _, name := range strings.Split(selector, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		s := byName[name]
		if s == nil {
			known := ScenarioNames()
			sort.Strings(known)
			return nil, fmt.Errorf("unknown scenario %q (known: %s)", name, strings.Join(known, ", "))
		}
		if !seen[name] {
			seen[name] = true
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no scenarios selected")
	}
	return out, nil
}

// baseParams is the shared environment shape scenarios tweak.
func baseParams() Params {
	return Params{
		Nodes:          40,
		Horizon:        600,
		MinSlotLength:  10,
		TTL:            2 * time.Second,
		MaxInflight:    16,
		QueueDepth:     32,
		RequestTimeout: 5 * time.Second,
		Workers:        8,
		SLO: SLO{
			MaxP50:       500 * time.Millisecond,
			MaxP99:       3 * time.Second,
			MinOpsPerSec: 5,
		},
	}
}

// settle finishes a granted hold the way real clients do: mostly commit,
// sometimes release, sometimes walk away and let the TTL sweeper clean up.
func settle(lab *Lab, rng *randx.Rand, id string, commitP, releaseP float64) {
	switch p := rng.Float64(); {
	case p < commitP:
		lab.Client.Commit(id)
	case p < commitP+releaseP:
		lab.Client.Release(id)
	default:
		// Abandon: the hold expires on its own — the sweeper's workload.
	}
}

// ---- the six scenarios ----

// flashCrowd: a sudden unpaced burst from a fleet several times larger
// than the admission gate. The point is overload behavior: requests past
// MaxInflight+QueueDepth must shed with 429+Retry-After while goroutines
// stay bounded and granted work stays consistent.
func flashCrowd() *Scenario {
	return &Scenario{
		Name:        "flash-crowd",
		Description: "unpaced burst from 8x the admission bound; sheds must be clean 429s",
		params: func(cfg Config) Params {
			p := baseParams()
			// Overload must follow from the fleet/gate ratio, not from how
			// slow a search is: a fast search that never yields lets one
			// processor serve a closed-loop fleet strictly one request at a
			// time, and nothing ever queues. Slow uplinks hold the gate for
			// a time the scenario sets, and a gate far below the fleet
			// forces the crowd to stack up and shed.
			p.Nodes = 800
			p.BodyStall = 2 * time.Millisecond
			p.MaxInflight = 1
			p.QueueDepth = 1
			p.RequestTimeout = 2 * time.Second
			p.Workers = 24
			p.SLO.MaxP50 = 0 // queue waits dominate; p50 is not meaningful here
			p.SLO.MaxP99 = 0
			p.SLO.MinGranted = 1
			return p
		},
		worker: func(lab *Lab, rng *randx.Rand, id int) func(op int) {
			mix := workload.DefaultMix()
			return func(op int) {
				req := mix.Job(rng, op+1).Request
				if res := lab.Client.Reserve(&req, "", 0); res.Code == 200 {
					settle(lab, rng, res.ID, 0.6, 0.3)
				}
			}
		},
		verify: func(lab *Lab, delta StatuszDelta) []CheckResult {
			shed := delta.Deltas["server.shed"]
			return []CheckResult{verdict("overload_reached", shed > 0,
				fmt.Sprintf("%.0f requests shed (want > 0: the crowd must exceed the gate)", shed))}
		},
	}
}

// hotSpot: the whole fleet wants the same few high-performance nodes
// (MinPerf 9 on a U{2..10} population), so optimistic reservations race
// and conflict; the invariant battery proves contention never corrupts
// state.
func hotSpot() *Scenario {
	return &Scenario{
		Name:        "hot-spot",
		Description: "all traffic targets the few perf>=9 nodes; races must resolve cleanly",
		params: func(cfg Config) Params {
			p := baseParams()
			p.Nodes = 24
			p.Workers = 12
			p.TTL = 500 * time.Millisecond
			p.SLO.MinGranted = 1
			return p
		},
		worker: func(lab *Lab, rng *randx.Rand, id int) func(op int) {
			mix := workload.DefaultMix()
			mix.TasksMin, mix.TasksMax = 1, 2
			mix.VolumeMin, mix.VolumeMax = 20, 60
			return func(op int) {
				req := mix.Job(rng, op+1).Request
				req.MinPerf = 9
				req.MaxCost = 0 // budget off: perf scarcity is the contention
				if res := lab.Client.Reserve(&req, "", 0); res.Code == 200 {
					settle(lab, rng, res.ID, 0.4, 0.4)
				}
				lab.Sleep(time.Millisecond)
			}
		},
	}
}

// churn: a background actor continuously withdraws nodes mid-flight and
// publishes fresh capacity (the non-dedicated resource model) while
// reserve/commit traffic flows; holds on withdrawn nodes must cancel and
// the journal must still replay to the exact end state.
func churn() *Scenario {
	return &Scenario{
		Name:        "churn",
		Description: "nodes withdraw and fresh capacity arrives mid-traffic",
		params: func(cfg Config) Params {
			p := baseParams()
			p.Nodes = 16
			p.Workers = 8
			p.Background = churnActor
			p.SLO.MinGranted = 1
			return p
		},
		worker: func(lab *Lab, rng *randx.Rand, id int) func(op int) {
			mix := workload.DefaultMix()
			mix.TasksMin, mix.TasksMax = 1, 3
			return func(op int) {
				req := mix.Job(rng, op+1).Request
				if res := lab.Client.Reserve(&req, "", 0); res.Code == 200 {
					settle(lab, rng, res.ID, 0.5, 0.3)
				}
				lab.Sleep(2 * time.Millisecond)
			}
		},
		verify: func(lab *Lab, delta StatuszDelta) []CheckResult {
			w := delta.Deltas["inventory.counters.withdrawals"]
			a := delta.Deltas["inventory.counters.adds"]
			return []CheckResult{verdict("churn_applied", w > 0 && a > 0,
				fmt.Sprintf("%.0f withdrawals, %.0f capacity additions (want both > 0)", w, a))}
		},
	}
}

// churnActor is the churn scenario's background mutator: every ~10ms it
// withdraws one node (rotating over the original population) and adds a
// fresh node's worth of capacity under a new ID, straight against the
// inventory the way a node agent would.
func churnActor(lab *Lab, stop <-chan struct{}) {
	rng := randx.New(lab.Cfg.Seed ^ 0xc0ffee)
	next := 0
	for k := 0; ; k++ {
		select {
		case <-stop:
			return
		case <-time.After(10 * time.Millisecond):
		}
		// Withdraw a rotating original node; ErrUnknownNode after the
		// first full rotation is expected and harmless.
		lab.Inv.Withdraw(next % lab.Params.Nodes)
		next++
		// Publish a fresh node (IDs far above the original population).
		perf := float64(rng.IntRange(2, 10))
		n := &nodes.Node{
			ID: 100000 + k, Perf: perf, Price: 1.5 * perf,
			RAMMB: 4096, DiskGB: 100, OS: nodes.Linux, Arch: nodes.AMD64,
		}
		start := rng.FloatRange(0, lab.Params.Horizon/2)
		end := start + rng.FloatRange(50, lab.Params.Horizon/2)
		lab.Inv.Add(slots.List{{Node: n, Interval: slots.Interval{Start: start, End: end}}})
	}
}

// deadlineFarm: Buyya-style deadline-and-budget constrained task farm —
// every request carries an absolute deadline; the conformance check is
// that no granted window finishes past its deadline (infeasible requests
// must come back 404, never as a late window).
func deadlineFarm() *Scenario {
	return &Scenario{
		Name:        "deadline-farm",
		Description: "deadline+budget constrained farm; granted windows must meet deadlines",
		params: func(cfg Config) Params {
			p := baseParams()
			p.Nodes = 30
			p.Workers = 10
			p.SLO.MinGranted = 1
			return p
		},
		worker: func(lab *Lab, rng *randx.Rand, id int) func(op int) {
			stream := workload.Stream{Mix: workload.DefaultMix(), Rate: 1}
			return func(op int) {
				j := stream.Mix.Job(rng, op+1)
				req := j.Request
				// Absolute deadline on the slot timeline: tight enough
				// that slow/late windows are infeasible for part of the
				// draw range.
				req.Deadline = rng.FloatRange(80, 350)
				if res := lab.Client.Reserve(&req, "", 0); res.Code == 200 {
					lab.Client.Commit(res.ID) // farm tasks always run
				}
				lab.Sleep(time.Millisecond)
			}
		},
	}
}

// budgetStarved: price caps far under the market level, so almost every
// search is infeasible; the service must stay fast and healthy while
// saying "no" at scale.
func budgetStarved() *Scenario {
	return &Scenario{
		Name:        "budget-starved",
		Description: "budgets ~1/5 of market price; mass rejection must stay fast and clean",
		params: func(cfg Config) Params {
			p := baseParams()
			p.Nodes = 30
			p.Workers = 10
			return p
		},
		worker: func(lab *Lab, rng *randx.Rand, id int) func(op int) {
			mix := workload.DefaultMix()
			mix.PriceCapMin, mix.PriceCapMax = 0.5, 1.5 // market mid is ~7/unit
			return func(op int) {
				req := mix.Job(rng, op+1).Request
				if op%3 == 0 {
					lab.Client.Find(&req, "")
				} else if res := lab.Client.Reserve(&req, "", 0); res.Code == 200 {
					settle(lab, rng, res.ID, 0.5, 0.5)
				}
				lab.Sleep(time.Millisecond)
			}
		},
		verify: func(lab *Lab, delta StatuszDelta) []CheckResult {
			nw := delta.Deltas["inventory.counters.no_window"]
			return []CheckResult{verdict("starvation_reached", nw > 0,
				fmt.Sprintf("%.0f no-window rejections (want > 0: budgets must actually starve)", nw))}
		},
	}
}

// diurnal: the arrival rate follows one smooth day-night cycle over the
// traffic window (workload.DiurnalShape thinning a Poisson stream), the
// continuous non-batch load of Casanova et al.; the service must ride the
// swing without latency or consistency wobbles.
func diurnal() *Scenario {
	return &Scenario{
		Name:        "diurnal",
		Description: "Poisson arrivals thinned by a day-night cycle over the run",
		params: func(cfg Config) Params {
			p := baseParams()
			p.Workers = 8
			p.SLO.MinGranted = 1
			return p
		},
		worker: func(lab *Lab, rng *randx.Rand, id int) func(op int) {
			// Peak ~100 arrivals/sec/worker; gaps in seconds of wall time.
			stream := workload.Stream{Mix: workload.DefaultMix(), Rate: 100}
			shape := workload.DiurnalShape(1, 0.1) // one cycle over Frac in [0,1]
			return func(op int) {
				gap, arrival := stream.Next(rng, 0, op+1)
				if !lab.Sleep(time.Duration(gap * float64(time.Second))) {
					return
				}
				// Thin by the cycle position: night-time draws mostly skip.
				if !rng.Bernoulli(shape(lab.Frac())) {
					return
				}
				req := arrival.Job.Request
				if res := lab.Client.Reserve(&req, "", 0); res.Code == 200 {
					settle(lab, rng, res.ID, 0.7, 0.2)
				}
			}
		},
	}
}
