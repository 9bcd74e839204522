// Package fleet composes the per-node sprinting ingredients — the §7
// governor budget, the thermal stack it manages, and the session burst
// model — into a datacenter-scale discrete-event simulation: N
// sprint-capable nodes, each owning its own governor and a bounded FIFO
// queue, serve an open-loop request stream under a pluggable dispatch
// policy, and the simulator reports the throughput, latency-percentile,
// sprint-denial, and per-node energy picture a capacity planner needs.
//
// The simulator is deterministic by construction: the arrival trace is a
// seeded function of the configuration, the future-event list is a min-heap
// ordered by (time, schedule sequence) so simultaneous events fire in a
// fixed order, and policy decisions read only simulation state. One
// configuration therefore maps to exactly one Metrics value, which is what
// lets the experiment drivers fan whole policy × load × size grids out on
// the concurrent engine with byte-identical results at any worker count.
//
// The implementation is built to reach warehouse scale — tens of thousands
// of nodes serving millions of requests — with near-zero steady-state
// allocation:
//
//   - dispatch queries an incrementally maintained tournament tree over
//     per-node drain keys (see index.go) in O(log N) instead of scanning
//     every node per arrival, reproducing the scan's rotating tie-break
//     exactly (the linear scan survives as the refDispatch reference used
//     by the cross-implementation determinism suite);
//   - the future-event list is a 4-ary heap of 16-byte keys, with the
//     event payloads in a reused side array, plus a FIFO lane per fixed
//     delay for hedge checks and timeouts, merged with a time-sorted
//     arrival cursor (see events.go), so scheduling an event stores a key
//     and a payload instead of boxing a fresh heap allocation;
//   - requests live in one per-run arena indexed by int32, and queued
//     copies are 8-byte values, keeping the hot structures free of
//     GC-scanned pointers;
//   - the loop observes no latency: finish() reads every request's
//     outcome off the arena once, streaming latencies into a fixed-bin
//     log-scale histogram above exactQuantileCutoff requests (exact below
//     it, or always with Config.ExactQuantiles), so it never sorts a
//     million-entry buffer. See the "Performance model" section of
//     docs/ARCHITECTURE.md.
//
// Each node serves like the session evaluator's governed policy: a request
// runs at full sprint width while the node's thermal budget lasts, then
// degrades to the sustained rate; a service that could not run
// start-to-finish at full width counts as a sprint denial. Hedged dispatch
// additionally duplicates laggard requests (competitive-parallel
// scheduling), paying duplicated service energy for tail latency.
//
// Above the node, rack power domains model the shared provisioned circuit:
// nodes are grouped into racks of RackSize drawing from one
// RackPowerBudgetW branch circuit backed by a battery/ultracap energy
// buffer (the §6 supply parts at rack scale), and a Coordination policy
// arbitrates sprint admission — see rack.go. Rack decisions are made at
// service-start granularity: an admitted sprint phase runs to completion
// on the buffer energy it committed, so a breaker trip throttles every
// service *starting* during the recovery window rather than preempting
// flights mid-slice. That discretization keeps the event loop exact and
// deterministic while preserving the dynamics that matter — an
// uncoordinated rack trips under load and its queues pay for the recovery
// window at 1/16th service rate, while token permits make trips impossible
// by construction.
package fleet

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"sprinting/internal/governor"
	"sprinting/internal/series"
	"sprinting/internal/session"
	"sprinting/internal/trace"
)

// exactQuantileCutoff is the trace length up to which every latency
// distribution buffers and sorts for exact nearest-rank quantiles. Above
// it latencies stream into a log-scale histogram (quantiles then carry a
// ≤ 1.81% one-bin tolerance; mean and max stay exact) unless
// Config.ExactQuantiles forces buffering. Every historical configuration
// in this repository sits below the cutoff, so pinned percentiles are
// unchanged.
const exactQuantileCutoff = 1 << 17

// latDist is one latency distribution — the run's, a scenario phase's or
// an SLO class's — in the run's quantile mode: an exact buffer or the
// streaming histogram. newLatDist is the one place that mode is decided,
// so the run, its phases and its classes always agree.
type latDist struct {
	buf  []float64
	hist *series.Histogram
}

// newLatDist returns an empty distribution in cfg's quantile mode;
// cfg.Requests must be the final trace length, and capHint sizes the
// exact buffer.
func newLatDist(cfg Config, capHint int) latDist {
	if cfg.ExactQuantiles || cfg.Requests <= exactQuantileCutoff {
		return latDist{buf: make([]float64, 0, capHint)}
	}
	return latDist{hist: series.NewHistogram()}
}

func (d *latDist) observe(v float64) {
	if d.hist != nil {
		d.hist.Observe(v)
	} else {
		d.buf = append(d.buf, v)
	}
}

// summary reports the mean, the nearest-rank p50/p95/p99/p999 and the
// max, all zero when empty. The mean sums in observation order (the
// histogram's running sum is that same sum), so distributions fed from
// one arena walk report bit-identical means in either mode.
func (d *latDist) summary() (mean, p50, p95, p99, p999, maxS float64) {
	if h := d.hist; h != nil {
		if h.Count() == 0 {
			return
		}
		return h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Quantile(0.999), h.Max()
	}
	b := d.buf
	if len(b) == 0 {
		return
	}
	sum := 0.0
	for _, v := range b {
		sum += v
	}
	sort.Float64s(b)
	return sum / float64(len(b)), series.Quantile(b, 0.50), series.Quantile(b, 0.95),
		series.Quantile(b, 0.99), series.Quantile(b, 0.999), b[len(b)-1]
}

// tally is one cohort's outcome — the run's, a scenario phase's or an SLO
// class's. finish's one arena walk counts requests per fate, the
// completed ones' latency distribution and, for a class with a p99
// target, how many completions met it. The event loop charges a phase's
// or class's events to the same record as they happen: services and
// sprint denials, redispatches, retries and faults by the request's
// cohort, node failures and breaker trips by the phase they fired in.
type tally struct {
	n       [nFates]int
	lat     latDist
	targetS float64
	within  int

	served, denials, redispatches, retries, faults, failures, trips int
}

func (t *tally) add(r *request) {
	t.n[r.fate]++
	if r.fate == done {
		l := r.doneS - r.arrivalS
		t.lat.observe(l)
		if t.targetS > 0 && l <= t.targetS {
			t.within++
		}
	}
}

// counts reports the cohort's offered, completed, dropped, timed-out and
// shed counts as the public metrics carry them: shed includes the
// admission sheds.
func (t *tally) counts() (int, int, int, int, int) {
	offered := 0
	for _, c := range t.n {
		offered += c
	}
	return offered, t.n[done], t.n[dropped], t.n[timedOut], t.n[shed] + t.n[admShed]
}

// Size caps: a bad size fails validation instead of panicking in make,
// dying out of memory in the arrival generator, or emitting timeline
// samples without end. requestCap bounds every load source (Config.Requests,
// Scenario.MaxRequests, WorkloadSpec.MaxRequests, replay rows), maxNodes
// the fleet (the largest in-repo fleet is 10,000 nodes), and
// minTraceWindowS a non-default recorder window.
const (
	requestCap      = 16 << 20
	maxNodes        = 1 << 20
	minTraceWindowS = 1e-3
)

// Config parameterizes one fleet simulation; zero fields take the
// DefaultConfig values.
type Config struct {
	// Nodes is the number of sprint-capable nodes in the fleet.
	Nodes int
	// Policy selects the dispatch policy.
	Policy Policy
	// Requests is the open-loop trace length.
	Requests int
	// ArrivalRatePerS is the fleet-wide request arrival rate; 0 selects
	// ≈85% of the fleet's sustained service capacity (Nodes / MeanWorkS),
	// the high-load regime where dispatch policy matters. A negative rate
	// fails validation.
	ArrivalRatePerS float64
	// MeanWorkS is the mean single-core work per request in seconds.
	MeanWorkS float64
	// Seed fixes the arrival/work trace.
	Seed int64
	// QueueCap bounds each node's outstanding requests (in service plus
	// queued); an arrival routed to a full node is dropped.
	QueueCap int
	// HedgeDelayS (Hedged policy only) is how long a request may remain
	// unfinished before a duplicate is dispatched to a second node.
	HedgeDelayS float64
	// SprintWidth is the number of sprint cores per node (16).
	SprintWidth int
	// Node configures every node's governor and thermal budget.
	Node governor.Config
	// ExactQuantiles forces exact (buffer-and-sort) latency quantiles at
	// any trace length. When false, traces up to exactQuantileCutoff
	// requests are exact anyway; larger traces stream into a log-scale
	// histogram whose quantiles are within one bin width (≤ 1.81%) and
	// whose mean/max remain exact (Metrics.ApproxQuantiles reports which
	// mode ran).
	ExactQuantiles bool
	// Workers shards the event loop across this many per-worker loops on
	// parallel goroutines, each owning a contiguous rack range with its
	// own event heap (see shard.go); any value is clamped to the number of
	// rack groups. Only fully decoupled configurations shard: plain
	// round-robin dispatch without Probabilistic rack admission, outside
	// scenario mode, untraced, with no reliability layer or workload.
	// Every other run — and Workers 0 or 1 — runs the same loop over the
	// whole fleet, so results are byte-identical at every worker count.
	Workers int

	// Trace configures the flight recorder (see TraceConfig in trace.go).
	// Run attaches a recorder iff Trace.Level is not LevelOff; at the zero
	// value no recorder exists, so the untraced hot path pays nothing for
	// the field's existence.
	Trace TraceConfig

	// Coordination selects the rack sprint-arbitration policy; the zero
	// value NoCoordination disables rack power domains entirely and the
	// remaining rack fields are ignored.
	Coordination Coordination
	// RackSize groups nodes into racks of this many members sharing one
	// provisioned circuit (the last rack of an indivisible fleet is
	// smaller but keeps the full provision); 0 selects 8.
	RackSize int
	// RackPowerBudgetW is the provisioned branch-circuit power per rack;
	// 0 selects DefaultRackBudgetW (nominal for all members plus sprint
	// headroom for a quarter of them).
	RackPowerBudgetW float64
	// RackBufferJ is the rack's battery/ultracap ride-through energy; 0
	// selects DefaultRackBufferJ (one §6 ultracapacitor bank per rack).
	RackBufferJ float64
	// SprintPermits (TokenPermit only) caps concurrent sprints per rack;
	// 0 derives the largest count the provisioned budget sustains.
	SprintPermits int
	// BreakerRecoveryS is how long a tripped rack stays forced to
	// nominal before the breaker resets; 0 selects 2 s.
	BreakerRecoveryS float64

	// Reliability configures the request-reliability layer: client-side
	// timeouts and budgeted retries, plus gray-failure and transient-fault
	// injection. The zero value disables it entirely — the simulator then
	// carries no reliability state and the hot path pays a single nil
	// check (see relState).
	Reliability Reliability
}

// Reliability parameterizes the request-reliability layer. Three knobs
// arm it — TimeoutS, GrayFrac, FaultProb — and the zero value keeps it
// off; see Config.Reliability.
//
// Client-side recovery: a dispatched attempt that has not completed
// TimeoutS after enqueue expires (evTimeout, staled by the request's
// attempt counter exactly as evComplete is staled by a node's
// incarnation). An expired or faulted attempt retries up to MaxRetries
// times with seeded exponential backoff, each retry drawing one token
// from a fleet-wide token-bucket retry budget; with the bucket empty the
// request is shed (terminal). A request whose retries are exhausted is
// TimedOut (terminal). Every terminal state is counted exactly once, so
// Completed+Dropped+TimedOut+Shed == Requests always holds.
//
// Fault injection: GrayFrac marks a seeded subset of nodes as gray —
// stragglers, not corpses: their services stretch by GraySlowdownX, with
// the extra time billed at nominal power while the thermal budget
// refills (the core is stalled, not computing). FaultProb fails a
// completed service's response with that probability; the client treats
// it like a timeout and retries.
type Reliability struct {
	// TimeoutS is the per-attempt client deadline in seconds, measured
	// from the attempt's enqueue; 0 disables timeouts.
	TimeoutS float64
	// MaxRetries is how many retry attempts follow an expired or faulted
	// first attempt before the request is terminally TimedOut (0 = the
	// first attempt is the only one).
	MaxRetries int
	// RetryBackoffS is the base of the exponential retry backoff: retry k
	// waits RetryBackoffS·2^(k−1), jittered by a seeded ±50%; 0 selects
	// 0.1 s when timeouts or faults are enabled.
	RetryBackoffS float64
	// RetryBudgetPerS is the fleet-wide token-bucket retry budget in
	// retries per second; a retry wanted while the bucket is empty sheds
	// the request instead. 0 leaves retries unbudgeted.
	RetryBudgetPerS float64
	// RetryBurst is the token bucket's capacity (and initial charge);
	// 0 selects max(1, RetryBudgetPerS).
	RetryBurst float64
	// GrayFrac is the fraction of the fleet seeded as gray stragglers
	// (rounded, at least one node when positive); 0 disables gray
	// failures.
	GrayFrac float64
	// GraySlowdownX is the gray nodes' service-time multiplier (≥ 1);
	// 0 selects 4 when GrayFrac is positive.
	GraySlowdownX float64
	// FaultProb is the per-service transient-fault probability in [0, 1):
	// a faulted response is useless to the client, which retries as if the
	// attempt had timed out.
	FaultProb float64
}

// enabled reports whether any reliability trigger is armed; MaxRetries
// and the budget knobs are inert without one.
func (r Reliability) enabled() bool {
	return r.TimeoutS > 0 || r.GrayFrac > 0 || r.FaultProb > 0
}

// DefaultConfig returns a 16-node fleet of the paper's 16 W / 1 W phone
// platforms under the given policy, offered ≈85% of sustained capacity.
func DefaultConfig(p Policy) Config {
	return Config{
		Nodes:       16,
		Policy:      p,
		Requests:    2000,
		MeanWorkS:   2,
		Seed:        12345,
		QueueCap:    256,
		HedgeDelayS: 1,
		SprintWidth: 16,
		Node:        governor.DefaultConfig(),
	}
}

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	d := DefaultConfig(c.Policy)
	if c.Nodes == 0 {
		c.Nodes = d.Nodes
	}
	if c.Requests == 0 {
		c.Requests = d.Requests
	}
	if c.MeanWorkS == 0 {
		c.MeanWorkS = d.MeanWorkS
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.QueueCap == 0 {
		c.QueueCap = d.QueueCap
	}
	if c.HedgeDelayS == 0 {
		c.HedgeDelayS = d.HedgeDelayS
	}
	if c.SprintWidth == 0 {
		c.SprintWidth = d.SprintWidth
	}
	if c.Node.SprintPowerW == 0 {
		c.Node = d.Node
	}
	if c.Coordination != NoCoordination {
		if c.RackSize == 0 {
			c.RackSize = 8
		}
		if c.RackPowerBudgetW == 0 {
			c.RackPowerBudgetW = DefaultRackBudgetW(c.RackSize, c.Node)
		}
		if c.RackBufferJ == 0 {
			c.RackBufferJ = DefaultRackBufferJ()
		}
		if c.SprintPermits == 0 {
			c.SprintPermits = defaultSprintPermits(c.RackSize, c.RackPowerBudgetW, c.Node)
		}
		if c.BreakerRecoveryS == 0 {
			c.BreakerRecoveryS = 2
		}
	}
	if c.Reliability.TimeoutS > 0 || c.Reliability.FaultProb > 0 {
		if c.Reliability.RetryBackoffS == 0 {
			c.Reliability.RetryBackoffS = 0.1
		}
	}
	if c.Reliability.GrayFrac > 0 && c.Reliability.GraySlowdownX == 0 {
		c.Reliability.GraySlowdownX = 4
	}
	if c.Reliability.RetryBudgetPerS > 0 && c.Reliability.RetryBurst == 0 {
		c.Reliability.RetryBurst = math.Max(1, c.Reliability.RetryBudgetPerS)
	}
	return c
}

// EffectiveRatePerS resolves the arrival rate, applying the ≈85%-of-
// capacity default when ArrivalRatePerS is unset.
func (c Config) EffectiveRatePerS() float64 {
	if c.ArrivalRatePerS > 0 {
		return c.ArrivalRatePerS
	}
	c = c.withDefaults()
	return 0.85 * float64(c.Nodes) / c.MeanWorkS
}

// Validate reports configuration errors (after defaults are applied).
// Every float field must be finite: the dispatch index reserves +Inf
// for absent nodes, and a NaN would poison every comparison.
func (c Config) Validate() error {
	rl := c.Reliability
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"arrival rate", c.ArrivalRatePerS}, {"mean work", c.MeanWorkS}, {"hedge delay", c.HedgeDelayS},
		{"rack power budget", c.RackPowerBudgetW}, {"rack buffer energy", c.RackBufferJ},
		{"breaker recovery window", c.BreakerRecoveryS}, {"trace window", c.Trace.WindowS},
		{"request timeout", rl.TimeoutS}, {"retry backoff", rl.RetryBackoffS}, {"retry budget", rl.RetryBudgetPerS},
		{"retry burst", rl.RetryBurst}, {"gray fraction", rl.GrayFrac}, {"gray slowdown", rl.GraySlowdownX},
		{"fault probability", rl.FaultProb},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("fleet: %s must be finite, got %g", f.name, f.v)
		}
	}
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("fleet: need at least one node")
	case c.Nodes > maxNodes:
		return fmt.Errorf("fleet: %d nodes exceeds the %d-node cap", c.Nodes, maxNodes)
	case c.Requests <= 0:
		return fmt.Errorf("fleet: need at least one request")
	case c.Requests > requestCap:
		return fmt.Errorf("fleet: %d requests exceeds the %d-request cap", c.Requests, requestCap)
	case c.MeanWorkS <= 0:
		return fmt.Errorf("fleet: mean work must be positive")
	case c.QueueCap <= 0:
		return fmt.Errorf("fleet: queue capacity must be positive")
	case c.SprintWidth <= 0:
		return fmt.Errorf("fleet: sprint width must be positive")
	case c.ArrivalRatePerS < 0:
		return fmt.Errorf("fleet: arrival rate must be non-negative (0 selects the default)")
	case !(c.EffectiveRatePerS() > 0) || math.IsInf(c.EffectiveRatePerS(), 0):
		return fmt.Errorf("fleet: arrival rate must be positive and finite")
	case c.Policy == Hedged && c.HedgeDelayS <= 0:
		return fmt.Errorf("fleet: hedged dispatch needs a positive hedge delay")
	case c.Policy == Hedged && c.Nodes < 2:
		return fmt.Errorf("fleet: hedged dispatch needs at least two nodes")
	case c.Policy < RoundRobin || c.Policy > Hedged:
		return fmt.Errorf("fleet: unknown policy %d", int(c.Policy))
	case c.Workers < 0:
		return fmt.Errorf("fleet: worker count must be non-negative")
	case c.Coordination < NoCoordination || c.Coordination > Probabilistic:
		return fmt.Errorf("fleet: unknown coordination %d", int(c.Coordination))
	case c.Trace.Level < trace.LevelOff || c.Trace.Level > trace.LevelFull:
		return fmt.Errorf("fleet: unknown trace level %d", int(c.Trace.Level))
	case c.Trace.TopK < 0:
		return fmt.Errorf("fleet: trace top-k must be non-negative")
	case c.Trace.WindowS < 0:
		return fmt.Errorf("fleet: trace window must be non-negative")
	case c.Trace.WindowS > 0 && c.Trace.WindowS < minTraceWindowS:
		return fmt.Errorf("fleet: trace window must be 0 (the default) or at least %g s", minTraceWindowS)
	}
	if c.Coordination != NoCoordination {
		switch {
		case c.RackSize <= 0:
			return fmt.Errorf("fleet: rack size must be positive")
		case c.RackPowerBudgetW < float64(c.RackSize)*c.Node.NominalPowerW:
			return fmt.Errorf("fleet: rack budget %.1f W cannot cover %d nodes at %.1f W nominal (permanent deficit)",
				c.RackPowerBudgetW, c.RackSize, c.Node.NominalPowerW)
		case c.RackBufferJ < 0:
			return fmt.Errorf("fleet: rack buffer energy must be non-negative")
		case c.SprintPermits < 0:
			return fmt.Errorf("fleet: sprint permits must be non-negative")
		case c.BreakerRecoveryS <= 0:
			return fmt.Errorf("fleet: breaker recovery window must be positive")
		}
	}
	switch {
	case rl.TimeoutS < 0:
		return fmt.Errorf("fleet: request timeout must be non-negative")
	case rl.MaxRetries < 0 || rl.MaxRetries > 100:
		// request.attempt is a uint8 arena field; 100 is far past any
		// sane retry policy anyway.
		return fmt.Errorf("fleet: max retries must be in [0, 100]")
	case rl.RetryBackoffS < 0:
		return fmt.Errorf("fleet: retry backoff must be non-negative")
	case rl.RetryBudgetPerS < 0:
		return fmt.Errorf("fleet: retry budget must be non-negative")
	case rl.RetryBurst < 0:
		return fmt.Errorf("fleet: retry burst must be non-negative")
	case rl.GrayFrac < 0 || rl.GrayFrac > 1:
		return fmt.Errorf("fleet: gray fraction must be in [0, 1]")
	case rl.GrayFrac > 0 && rl.GraySlowdownX < 1:
		return fmt.Errorf("fleet: gray slowdown must be at least 1")
	case rl.FaultProb < 0 || rl.FaultProb >= 1:
		return fmt.Errorf("fleet: fault probability must be in [0, 1)")
	}
	return c.Node.Validate()
}

// NodeStats summarizes one node's activity over the simulation.
type NodeStats struct {
	// ID is the node index.
	ID int
	// Served counts service executions, including hedge copies.
	Served int
	// Denials counts services that did not run start-to-finish at full
	// sprint width — whether the node's governor ran out of thermal
	// budget or the rack refused sprint admission (rack refusals are also
	// broken out separately in Metrics.PermitDenials).
	Denials int
	// Dropped counts arrivals bounced off this node's full queue. A
	// fleet-wide drop (no node has queue space) is attributed to the node
	// the policy would have routed to, so per-node drops always sum to
	// Metrics.Dropped.
	Dropped int
	// Failures counts scenario churn failures of this node (0 outside
	// scenario mode).
	Failures int
	// TimedOut counts requests that exhausted their retries while this
	// node held their last attempt; per-node timeouts always sum to
	// Metrics.TimedOut. Retries counts retry attempts enqueued onto this
	// node. Gray marks the node a seeded gray straggler. (Reliability
	// layer only; see Config.Reliability.)
	TimedOut int
	Retries  int
	Gray     bool
	// Rack is the node's rack index (0 when coordination is disabled).
	Rack int
	// EnergyJ is the service energy the node drew (sprint slices at sprint
	// power, degraded slices at nominal power).
	EnergyJ float64
	// BusyS is the total time the node spent serving.
	BusyS float64
}

// Metrics is the outcome of one fleet simulation. Every field is a
// deterministic function of the Config.
type Metrics struct {
	Policy Policy

	// Requests / Completed / Dropped count the offered trace and its fate.
	// With the reliability layer armed two further terminal states exist —
	// TimedOut (retries exhausted) and Shed (retry wanted but the fleet-
	// wide budget was empty) — and every request lands in exactly one:
	// Completed + Dropped + TimedOut + Shed == Requests always.
	Requests  int
	Completed int
	Dropped   int
	TimedOut  int
	Shed      int
	// AdmissionShed breaks out the Shed requests refused at the door by a
	// workload SLO class's admission bucket (as opposed to shed mid-retry
	// by the fleet-wide retry budget); always ≤ Shed, zero without a
	// workload.
	AdmissionShed int

	// Reliability-layer work accounting (zero when Config.Reliability is
	// off): Retries counts retry attempts dispatched; TransientFaults the
	// injected per-service response faults; WastedServices the services
	// that completed for an attempt the client had already abandoned
	// (their energy and node time are real, their response is useless).
	Retries         int
	TransientFaults int
	WastedServices  int

	// HedgesIssued counts duplicated dispatches, HedgeWins the requests
	// whose hedge copy replied first, and CancelledCopies queued copies
	// skipped because the other copy already finished (Hedged policy only).
	HedgesIssued    int
	HedgeWins       int
	CancelledCopies int
	// HedgesSuppressed counts hedge checks that wanted to duplicate a
	// still-unfinished request but found no node with queue space — the
	// original copy stands alone. Under overload this is the dominant
	// hedge outcome, and silently losing it understated how often the
	// policy was starved of spare capacity.
	HedgesSuppressed int

	// SimS is the instant the last service completed. ThroughputRPS is
	// the rate of service completions that delivered a response —
	// useful or not: (Completed + WastedServices + TransientFaults) /
	// SimS, which reduces to Completed / SimS whenever the reliability
	// layer is off. GoodputRPS is the rate of client-useful completions,
	// Completed / SimS; the gap between the two is the work a retry storm
	// burns. RetryAmplification is dispatch attempts per offered request,
	// (Requests + Retries) / Requests.
	SimS               float64
	ThroughputRPS      float64
	GoodputRPS         float64
	RetryAmplification float64
	// GrayNodes is how many nodes the reliability layer seeded as gray
	// stragglers (0 when off).
	GrayNodes int

	// Latency percentiles over completed requests (completion − arrival).
	// Mean and max are always exact; with ApproxQuantiles set the
	// percentiles come from the streaming histogram and carry its one-bin
	// (≤ 1.81%) tolerance.
	MeanS float64
	P50S  float64
	P95S  float64
	P99S  float64
	P999S float64
	MaxS  float64
	// ApproxQuantiles reports that latencies streamed through the
	// log-scale histogram instead of the exact buffer (traces above
	// exactQuantileCutoff without Config.ExactQuantiles).
	ApproxQuantiles bool

	// SprintDenialRate is the fraction of services that could not run
	// start-to-finish at full sprint width, for any reason: thermal
	// budget exhaustion, or (with rack coordination enabled) a rack
	// permit denial. Compare against PermitDenialRate to separate the
	// electrical from the thermal cause.
	SprintDenialRate float64

	// Per-node energy summary and the full per-node breakdown.
	TotalEnergyJ      float64
	MeanNodeEnergyJ   float64
	MaxNodeEnergyJ    float64
	EnergyPerRequestJ float64
	Nodes             []NodeStats

	// Rack power-domain outcome (Coordination != NoCoordination only;
	// otherwise Racks is nil and the counters stay zero).
	Coordination Coordination
	// BreakerTrips counts branch-breaker trips across racks;
	// RackThrottledS the total rack-seconds spent in post-trip recovery
	// with every member forced to nominal.
	BreakerTrips   int
	RackThrottledS float64
	// PermitRequests counts services that asked their rack to sprint;
	// PermitDenials those refused; PermitDenialRate their ratio.
	PermitRequests   int
	PermitDenials    int
	PermitDenialRate float64
	// Racks is the per-rack breakdown.
	Racks []RackStats

	// Scenario outcome (scenario runs only; otherwise zero/nil).
	// NodeFailures and NodeRecoveries count churn events; Redispatches
	// counts request copies failed over from a dead node to a live one
	// (an orphaned copy that finds no queue space anywhere is a Dropped).
	NodeFailures   int
	NodeRecoveries int
	Redispatches   int
	// RackFailures counts correlated rack power-loss events (each one
	// fails every live member of a rack at once; the member failures are
	// also in NodeFailures).
	RackFailures int
	// Phases is the per-phase breakdown, one entry per Scenario phase in
	// declaration order.
	Phases []PhaseMetrics

	// Multi-tenant workload outcome (workload and labeled-replay runs
	// only; otherwise nil/zero). Classes is the per-SLO-class breakdown in
	// declaration order, Tenants the per-population breakdown, and
	// JainFairness the Jain index over per-tenant completions (1 = every
	// tenant completed equally, → 1/n under monopoly, 0 when nothing
	// completed).
	Classes      []ClassMetrics
	Tenants      []TenantMetrics
	JainFairness float64
}

// request is one open-loop arrival. Requests live in the sim's per-run
// arena and are referred to by index, so the event loop never allocates or
// GC-scans them. The arena is the run's one large allocation, so the
// record is kept to 40 bytes (TestRequestArenaSize).
type request struct {
	arrivalS float64
	workS    float64
	// doneS is the first completion's instant, meaningful once fate is
	// done; it is −1 before.
	doneS     float64
	firstNode int32
	// phase is the scenario phase the request arrived in (0 outside
	// scenario mode); copies counts live dispatched copies so failure
	// handling can tell an orphaned request (fail over) from one that
	// still has a copy in flight elsewhere (hedging).
	phase  int16
	copies int16
	// Workload labels (zero outside workload/replay runs): slo and tenant
	// index the workloadRun's class and tenant tables, and width > 0 caps
	// the request's service parallelism below the node's class width.
	slo    int16
	tenant int16
	width  uint16
	// attempt is the request's client-side attempt counter (reliability
	// layer only): bumped on every timeout or fault, it stales the
	// expired attempt's in-flight copies and pending timeout exactly as a
	// node's incarnation stales its scheduled events.
	attempt uint8
	fate    fate
}

// fate is what became of a request: live until exactly one terminal site
// decides it, and never changed after. finish counts every outcome off
// the arena by fate.
type fate uint8

const (
	live     fate = iota
	done          // completed (complete)
	dropped       // no queue space anywhere (drop)
	timedOut      // retries exhausted (clientRetry)
	shed          // retry budget empty (clientRetry)
	admShed       // refused at the door by admission control (dispatch)
	nFates
)

// reqCopy is one dispatched copy of a request (hedging can make two): an
// 8-byte pointer-free value — req indexes sim.reqs. attempt is the
// client attempt the copy was dispatched for; a completion whose attempt
// no longer matches the request's is stale (the client already moved on).
type reqCopy struct {
	req     int32
	hedge   bool
	attempt uint8
}

// node is one sprint-capable server: a governor-managed budget plus a
// bounded single-server FIFO queue. Nodes live in one flat arena.
type node struct {
	id     int
	rackID int
	class  int32
	gov    governor.Governor

	queue []reqCopy
	head  int
	// queuedNaiveS is the queued work at full sprint width, maintained
	// incrementally so routing keys stay O(1) per node.
	queuedNaiveS float64

	busy       bool
	cur        reqCopy
	busyUntilS float64

	// alive is false while scenario churn has the node failed; gen is the
	// node's incarnation, bumped on failure so completion and sprint-end
	// events scheduled against a dead incarnation are recognized as stale.
	// sprintXW is the extra rack power the node's active sprint phase
	// draws (0 when none), recorded so a failure can retire the phase
	// from its rack immediately instead of waiting for a stale event.
	alive    bool
	gen      uint64
	sprintXW float64

	stats NodeStats
}

// outstanding counts in-service plus queued copies.
//
//sprint:hotpath
func (n *node) outstanding() int {
	c := len(n.queue) - n.head
	if n.busy {
		c++
	}
	return c
}

// refDispatch, when set, routes every policy selection through the O(N)
// linear-scan reference selector instead of the dispatch index. It exists
// for the cross-implementation determinism suite (index_test.go), which
// proves the indexed and scanned selections produce identical Metrics;
// it is unexported so release binaries cannot reach it.
var refDispatch bool

// nodeClass is one hardware class of the fleet: the per-node constants
// dispatch scoring and the service discipline read. A plain simulation has
// exactly one class derived from Config; scenarios may declare several
// (see NodeClass), and ambient-temperature phases re-derive the
// environment-dependent fields (capJ, drainW, netW, proto) in place.
type nodeClass struct {
	width    float64
	sprintW  float64
	nominalW float64
	extraW   float64
	queueCap int

	// gcfg is the class's governor configuration at design ambient; proto
	// is the governor prototype nodes of this class are (re)born with,
	// after the budget/drain scale factors are applied.
	gcfg        governor.Config
	budgetScale float64
	drainScale  float64
	proto       governor.Governor

	// Environment-dependent projection constants (shared by every node of
	// the class, so sprint-aware scoring reads floats instead of
	// re-deriving them); drainW is also the budget refill rate.
	capJ   float64
	drainW float64
	netW   float64
}

// sim is the running simulation state.
type sim struct {
	cfg Config
	// classes holds the per-class constants; class 0 is the whole fleet
	// outside scenario mode, so the homogeneous fast paths read
	// s.classes[0] directly.
	classes []nodeClass
	// scen is non-nil when running a Scenario (phases, churn, per-phase
	// accounting); see scenario.go.
	scen *scenarioRun
	// lastFailed is the most recently failed node, the drop-attribution
	// fallback for arrivals that find no live node at all.
	lastFailed int32

	nodes []node
	// racks is empty when rack coordination is disabled; rackRng is the
	// dedicated deterministic stream behind Probabilistic admission.
	racks   []rack
	rackRng *rand.Rand

	// reqs is the per-run request arena: the whole open-loop trace,
	// time-sorted; the main loop merges an arrival cursor over it with
	// the future-event heap.
	reqs []request

	events eventQueue
	seq    uint64
	rr     int
	nowS   float64
	// lastDoneS is the last service completion; it defines SimS so that
	// trailing no-op hedge-check events cannot inflate the simulated span
	// (and deflate throughput) under the Hedged policy.
	lastDoneS float64

	// idx is the least-loaded/hedged dispatch index, one fleet-wide tree
	// of drain keys. segs are sprint-aware's dispatch-index segments: one
	// busy/idle tree pair per node-class block, merged at query time so
	// the segmentation reproduces the single-tree selection exactly — see
	// shard.go. segIdx maps a node to its segment. All are nil under
	// RoundRobin, which never reads node state, and in refDispatch mode.
	idx    *dispatchIndex
	segs   []dspSeg
	segIdx []int32
	useRef bool
	// frontier is sprint-aware's best-first search queue over busy-tree
	// slots, cleared per search and reused for the whole run.
	frontier eventQueue

	m Metrics

	// rec is the flight recorder, nil unless Config.Trace.Level is on;
	// every hook in the engine is a nil check on it
	// and the recorder only ever reads simulation state (see trace.go).
	// A non-nil recorder forces the single loop (parallelOK), so the
	// record stream is the exact global event order.
	rec *recorder

	// rel is the reliability layer's live state (see reliability.go), nil
	// unless Config.Reliability arms a trigger — the same zero-cost-when-
	// off contract as rec: every hook is a nil check, and a non-nil rel
	// forces the single loop so its seeded draws replay in the exact
	// global event order at any worker count.
	rel *relState

	// wl is the multi-tenant workload state (see workload.go), nil unless
	// a workload or labeled replay armed it — the same zero-cost-when-off
	// contract as rec and rel: every hook is a nil check, and a non-nil wl
	// forces the single loop because admission buckets and dequeue
	// disciplines are fleet-global state consumed in event order.
	wl *workloadRun
}

// cl returns the node's class constants.
func (s *sim) cl(n *node) *nodeClass { return &s.classes[n.class] }

// newSim assembles the simulation state for Run; cfg must already be
// defaulted and validated, and cfg.Requests must be the final trace
// length (finish's quantile-mode selection reads it). A non-nil scen
// supplies the classes and per-node assignment; a non-nil rec attaches
// the flight recorder; a non-nil wl attaches the multi-tenant workload
// state.
func newSim(cfg Config, scen *scenarioRun, rec *recorder, wl *workloadRun) *sim {
	s := &sim{
		cfg:        cfg,
		lastFailed: -1,
		useRef:     refDispatch,
		scen:       scen,
		rec:        rec,
		wl:         wl,
	}
	s.m.Policy = cfg.Policy
	s.m.Requests = cfg.Requests
	s.m.Coordination = cfg.Coordination
	// A plain fleet is one implicit default class.
	var classIdx []int32
	if scen != nil {
		s.classes, classIdx = scen.classes, scen.classIdx
	} else {
		s.classes, classIdx = buildClasses(cfg, nil, 0)
	}
	s.nodes = make([]node, cfg.Nodes)
	s.events.reserve(queueReserve(cfg.Nodes))
	for i := range s.nodes {
		c := classIdx[i]
		s.nodes[i] = node{id: i, class: c, gov: s.classes[c].proto, alive: true}
	}
	if cfg.Reliability.enabled() {
		s.rel = newRelState(cfg, len(s.nodes))
		for i := range s.nodes {
			if s.rel.slowX != nil && s.rel.slowX[i] > 1 {
				s.nodes[i].stats.Gray = true
			}
		}
	}
	if cfg.Coordination != NoCoordination {
		nRacks := (cfg.Nodes + cfg.RackSize - 1) / cfg.RackSize
		s.racks = make([]rack, nRacks)
		for i := range s.racks {
			s.racks[i] = rack{
				id:         i,
				budgetW:    cfg.RackPowerBudgetW,
				bufferJ:    cfg.RackBufferJ,
				bufferCapJ: cfg.RackBufferJ,
			}
		}
		for i := range s.nodes {
			s.nodes[i].rackID = i / cfg.RackSize
			r := &s.racks[s.nodes[i].rackID]
			r.stats.Nodes++
			r.nominalLiveW += s.cl(&s.nodes[i]).nominalW
		}
		// A dedicated stream keeps Probabilistic admission independent of
		// the arrival trace; a Probabilistic run always takes the single
		// loop, so draws replay identically at any worker count.
		s.rackRng = rand.New(rand.NewSource(cfg.Seed ^ 0x5deece66d))
	}
	// The dispatch index (see shard.go): one tree for least-loaded and
	// hedged, one segment per class block for sprint-aware, since its idle
	// keys are only comparable within one class — a heterogeneous fleet
	// keeps O(log N) dispatch.
	if !s.useRef && cfg.Policy != RoundRobin {
		s.buildIndex()
	}
	if rec != nil {
		rec.begin(s)
		if s.rel != nil && s.rel.slowX != nil {
			// The gray set is fixed at birth, so it heads the record
			// stream: one event per straggler, DurS carrying the slowdown.
			for i := range s.nodes {
				if s.rel.slowX[i] > 1 {
					rec.event(s, trace.Event{Kind: "gray-node", Node: i, Rack: rackOf(s, &s.nodes[i]), Req: -1, Phase: -1, DurS: s.rel.slowX[i]})
				}
			}
		}
	}
	return s
}

// Spec is one fleet run: the configuration and the load source it serves.
// With no source set, the run draws the synthetic open-loop stream Config
// describes. Scenario plays its phases, ambient shifts, node classes and
// churn. Workload draws its tenant populations, riding Scenario's timeline
// when one is set and a flat timeline of Workload.DurationS otherwise.
// A non-nil Replay drives the run from recorded rows; Workload then only
// declares the classes the rows' labels resolve against.
type Spec struct {
	Config   Config
	Scenario *Scenario
	Workload *WorkloadSpec
	Replay   []TraceRequest
}

// Run simulates one fleet run and returns its metrics. The flight recorder
// attaches iff Config.Trace.Level is not LevelOff; the trace is nil
// otherwise, and a traced run's metrics equal the untraced run's. Every
// load source lowers to the same request arena and event loop, so the
// result is a pure function of the spec, byte-identical at any
// Config.Workers count. The context is checked periodically so very large
// runs can be cancelled.
func Run(ctx context.Context, spec Spec) (Metrics, *trace.Trace, error) {
	cfg, sc, w, rows := spec.Config, spec.Scenario, spec.Workload, spec.Replay
	switch {
	case rows != nil && sc != nil:
		return Metrics{}, nil, fmt.Errorf("fleet: a replay takes its arrivals from the trace; it cannot ride a scenario")
	case cfg.Trace.Level != trace.LevelOff && (w != nil || rows != nil):
		return Metrics{}, nil, fmt.Errorf("fleet: the flight recorder covers synthetic and scenario runs only; turn the trace off for workload and replay runs")
	}
	// Resolve every source's defaults (sc and w point at private copies
	// from here on) and validate the sources, then the config, before
	// generating anything. A scenario or replay supersedes
	// Config.Requests: the config is checked at the most requests the
	// source can produce, so one cap bounds every source.
	if w != nil {
		if rows == nil && sc == nil {
			// Without a scenario, the tenants ride a flat timeline.
			if !(w.DurationS > 0) {
				return Metrics{}, nil, fmt.Errorf("fleet: workload needs a positive duration")
			}
			sc = &Scenario{Phases: []Phase{{Name: "workload", DurationS: w.DurationS}}, MaxRequests: w.MaxRequests}
		}
		ws := w.withDefaults()
		if err := ws.Validate(); err != nil {
			return Metrics{}, nil, err
		}
		w = &ws
	}
	if sc != nil {
		scen := sc.withDefaults()
		sc = &scen
		if n := sc.Nodes(); n > 0 {
			cfg.Nodes = n
		}
	}
	cfg = cfg.withDefaults()
	switch {
	case rows != nil:
		if err := ValidateRequestTrace(rows); err != nil {
			return Metrics{}, nil, err
		}
		if w != nil && len(w.Tenants) > 0 {
			return Metrics{}, nil, fmt.Errorf("fleet: replay takes its population from the trace; the spec must declare classes only")
		}
		cfg.Requests = len(rows)
	case sc != nil:
		if err := sc.Validate(cfg); err != nil {
			return Metrics{}, nil, err
		}
		cfg.Requests = sc.MaxRequests
		if w != nil {
			if len(w.Tenants) == 0 {
				return Metrics{}, nil, fmt.Errorf("fleet: workload needs at least one tenant")
			}
			if w.MaxRequests > 0 {
				cfg.Requests = w.MaxRequests
			}
		}
	}
	if err := cfg.Validate(); err != nil {
		return Metrics{}, nil, err
	}

	var (
		reqs []request
		wl   *workloadRun
		err  error
	)
	switch {
	case rows != nil:
		// A fully unlabeled trace replays with no workload state at all, so
		// replaying a recording of a plain run reproduces its Metrics.
		labeled := w != nil
		for i := 0; i < len(rows) && !labeled; i++ {
			labeled = rows[i].Tenant != "" || rows[i].Class != "" || rows[i].Width > 0
		}
		var slos, tenants []int16
		if labeled {
			if wl, slos, tenants, err = buildReplayRun(rows, w); err != nil {
				return Metrics{}, nil, err
			}
		}
		reqs = getArena(len(rows))
		for i := range rows {
			row := &rows[i]
			reqs[i] = request{arrivalS: row.ArrivalS, workS: row.WorkS, doneS: -1, firstNode: -1}
			if wl != nil {
				reqs[i].slo, reqs[i].tenant, reqs[i].width = slos[i], tenants[i], uint16(row.Width)
			}
		}
	case w != nil:
		var truncated bool
		reqs, truncated = w.generate(cfg, *sc, cfg.Requests)
		switch {
		case truncated:
			err = fmt.Errorf("fleet: workload exceeds its %d-request cap before the timeline ends; raise MaxRequests or lower tenant rates", cfg.Requests)
		case len(reqs) == 0:
			err = fmt.Errorf("fleet: workload generated no arrivals (tenant rates too low for the timeline)")
		}
		wl = newWorkloadRun(*w)
	case sc != nil:
		baseRate := sc.BaseRatePerS
		if baseRate <= 0 {
			baseRate = cfg.EffectiveRatePerS()
		}
		var truncated bool
		reqs, truncated = sc.generate(cfg, baseRate)
		switch {
		case truncated:
			err = fmt.Errorf("fleet: scenario exceeds its %d-request cap before the timeline ends (base rate %.3g req/s); raise MaxRequests or lower the rate", sc.MaxRequests, baseRate)
		case len(reqs) == 0:
			err = fmt.Errorf("fleet: scenario generated no arrivals (rate %.3g req/s too low for its duration)", baseRate)
		}
	default:
		// The session burst generator at the fleet's aggregate rate (mean
		// gap = 1/rate). The stream is time-sorted with strictly increasing
		// arrivals, so it is consumed through a cursor rather than heaped;
		// on an exact tie with a scheduled event the arrival fires first,
		// matching the historical seq ordering in which every arrival was
		// pushed before any dynamic event.
		bursts := session.GenerateBursts(cfg.Requests, 1/cfg.EffectiveRatePerS(), cfg.MeanWorkS, cfg.Seed)
		reqs = getArena(len(bursts))
		for i, b := range bursts {
			reqs[i] = request{arrivalS: b.ArrivalS, workS: b.WorkS, doneS: -1, firstNode: -1}
		}
	}
	if err != nil {
		putArena(reqs)
		return Metrics{}, nil, err
	}
	cfg.Requests = len(reqs)
	var run *scenarioRun
	if sc != nil {
		run = newScenarioRun(cfg, *sc)
	}
	var rec *recorder
	if cfg.Trace.Level != trace.LevelOff {
		rec = newRecorder(cfg)
	}
	s := newSim(cfg, run, rec, wl)
	s.reqs = reqs
	if run != nil {
		s.scheduleScenario()
	}
	m, err := s.start(ctx)
	putArena(s.reqs)
	if err != nil {
		return Metrics{}, nil, err
	}
	if rec != nil {
		return m, rec.tr, nil
	}
	return m, nil, nil
}

// The five wrappers below exist only because the benchmark's per-layer
// harness (bench/traced, a separate module that times these exact calls)
// still links against them. Each is one call to Run; they go when that
// harness moves to Run. Simulate, SimulateScenario,
// SimulateScenarioWorkload and SimulateReplay never attached the
// recorder, so they turn Config.Trace off; SimulateScenarioTraced always
// did, recording at LevelDecisions when the level is off.

// Simulate is Run on the synthetic stream, untraced.
func Simulate(ctx context.Context, cfg Config) (Metrics, error) {
	return metricsOnly(Run(ctx, Spec{Config: untraced(cfg)}))
}

// SimulateScenario is Run on a scenario, untraced.
func SimulateScenario(ctx context.Context, cfg Config, sc Scenario) (Metrics, error) {
	return metricsOnly(Run(ctx, Spec{Config: untraced(cfg), Scenario: &sc}))
}

// SimulateScenarioWorkload is Run with a workload riding a scenario,
// untraced.
func SimulateScenarioWorkload(ctx context.Context, cfg Config, sc Scenario, w WorkloadSpec) (Metrics, error) {
	return metricsOnly(Run(ctx, Spec{Config: untraced(cfg), Scenario: &sc, Workload: &w}))
}

// SimulateScenarioTraced is Run on a scenario with the recorder attached.
func SimulateScenarioTraced(ctx context.Context, cfg Config, sc Scenario) (Metrics, *trace.Trace, error) {
	return Run(ctx, Spec{Config: traced(cfg), Scenario: &sc})
}

// SimulateReplay is Run on a request trace, untraced; spec declares the
// classes the rows' labels resolve against.
func SimulateReplay(ctx context.Context, cfg Config, rows []TraceRequest, spec *WorkloadSpec) (Metrics, error) {
	return metricsOnly(Run(ctx, Spec{Config: untraced(cfg), Replay: rows, Workload: spec}))
}

func metricsOnly(m Metrics, _ *trace.Trace, err error) (Metrics, error) { return m, err }

func untraced(cfg Config) Config {
	cfg.Trace.Level = trace.LevelOff
	return cfg
}

func traced(cfg Config) Config {
	if cfg.Trace.Level == trace.LevelOff {
		cfg.Trace.Level = trace.LevelDecisions
	}
	return cfg
}

// loop drives the merged arrival-cursor / event-heap loop over the node
// range [nlo, nhi) until both drain. The cursor strides over the arrivals
// whose round-robin target i mod N falls in the range — base+j for j in
// [nlo, nhi) — in ascending index, which is ascending time, so the merge
// rule (an arrival fires first on a time tie) is the same in every loop.
// Over the whole fleet the cursor is the plain arrival index and dispatch
// routes each arrival under the policy; a shard (see start) routes each
// to its precomputed round-robin target through dispatchTo.
func (s *sim) loop(ctx context.Context, nlo, nhi int) error {
	nn := len(s.nodes)
	whole := nlo == 0 && nhi == nn
	base, j := 0, nlo
	ai := nlo
	for steps := 0; ; steps++ {
		if steps&1023 == 1023 {
			if err := s.loopErr(ctx); err != nil {
				return err
			}
		}
		if ai < len(s.reqs) && (s.events.len() == 0 || s.reqs[ai].arrivalS <= s.events.topAt()) {
			s.nowS = s.reqs[ai].arrivalS
			if s.rec != nil {
				s.rec.tick(s)
			}
			if whole {
				s.dispatch(int32(ai))
			} else {
				s.dispatchTo(int32(ai), &s.nodes[j])
			}
			j++
			if j == nhi {
				j = nlo
				base += nn
			}
			ai = base + j
			continue
		}
		if s.events.len() == 0 {
			break
		}
		at, ev := s.events.pop()
		s.nowS = at
		if s.rec != nil {
			s.rec.tick(s)
		}
		s.handle(ev)
	}
	if s.events.overflow {
		return errQueueOverflow
	}
	return nil
}

// loopErr is the event loops' periodic check: cancellation, or an event
// the queue refused (see slotBits).
func (s *sim) loopErr(ctx context.Context) error {
	if s.events.overflow {
		return errQueueOverflow
	}
	return ctx.Err()
}

// handle applies one scheduled event; the caller has already set nowS to
// the event's firing time. Every loop — over the whole fleet or over one
// shard — applies events through it, so the handlers themselves cannot
// tell which one is driving.
//
//sprint:hotpath
func (s *sim) handle(ev event) {
	switch ev.kind {
	case evHedge:
		s.hedge(ev.req)
	case evSprintComplete:
		s.sprintEnd(ev)
		fallthrough
	case evComplete:
		// A gen mismatch marks a completion scheduled against an
		// incarnation that has since failed; the copy was already
		// destroyed (and failed over) by nodeFail.
		if n := &s.nodes[ev.node]; n.gen == ev.gen {
			s.complete(n)
		}
	case evSprintEnd:
		s.sprintEnd(ev)
	case evBreakerTrip:
		s.breakerTrip(ev)
	case evBreakerReset:
		s.breakerReset(ev)
	case evPhase:
		s.phaseStart(int(ev.req))
	case evNodeFail:
		s.nodeFail()
	case evNodeRecover:
		s.nodeRecover(&s.nodes[ev.node])
	case evRackFail:
		s.rackFail()
	case evTimeout:
		s.timeout(ev.req, uint8(ev.gen))
	case evRetry:
		s.retry(ev.req, uint8(ev.gen))
	}
}

// drop records a request bounced for lack of capacity, attributing it to
// the node it would have joined (nil only when no live node exists, in
// which case the most recently failed node carries the attribution so
// per-node drops always sum to the fleet total).
//
//sprint:hotpath
func (s *sim) drop(ri int32, n *node) {
	r := &s.reqs[ri]
	r.fate = dropped
	if s.rec != nil && r.firstNode >= 0 {
		// A redispatch-drop abandons a request that was in flight; a fresh
		// arrival bounced before its first enqueue never counted.
		s.rec.reqAbandoned()
	}
	if n == nil && s.lastFailed >= 0 {
		n = &s.nodes[s.lastFailed]
	}
	if n != nil {
		n.stats.Dropped++
	}
}

// dispatch routes a fresh arrival to the policy-chosen node.
//
//sprint:hotpath
func (s *sim) dispatch(ri int32) {
	r := &s.reqs[ri]
	if s.wl != nil && !s.wl.admit(r.slo, s.nowS) {
		// Admission control sheds at the door, before the policy looks at
		// the fleet: the class's token bucket is empty. Terminal — the
		// client gets an immediate refusal, not a retry.
		r.fate = admShed
		return
	}
	rr0 := s.rr
	n := s.selectNode(r.workS, -1)
	if n == nil || n.outstanding() >= s.cl(n).queueCap {
		if s.rec != nil {
			s.rec.decision(s, ri, "dispatch", n, rr0, -1, false)
		}
		s.drop(ri, n)
		return
	}
	if s.rec != nil {
		// Recorded before enqueue so the winning key and the alternatives
		// scan see the exact pre-placement state the selector scored.
		s.rec.decision(s, ri, "dispatch", n, rr0, -1, true)
	}
	r.firstNode = int32(n.id)
	s.enqueue(n, reqCopy{req: ri})
	if s.cfg.Policy == Hedged {
		d := s.cfg.HedgeDelayS
		if s.wl != nil {
			if h := s.wl.classes[r.slo].hedgeS; h > 0 {
				d = h // per-SLO-class hedge override
			}
		}
		s.pushAfter(d, event{kind: evHedge, req: ri})
	}
	if s.rel != nil && s.rel.timeoutS > 0 {
		s.pushAfter(s.rel.timeoutS, event{kind: evTimeout, req: ri, gen: uint64(r.attempt)})
	}
}

// hedge duplicates a still-unfinished request to a second node. A hedge
// that finds no spare capacity anywhere is suppressed — the original copy
// stands alone — and counted in Metrics.HedgesSuppressed.
//
//sprint:hotpath
func (s *sim) hedge(ri int32) {
	r := &s.reqs[ri]
	if r.fate != live || (s.rel != nil && r.copies == 0) {
		// Decided, or between attempts (the expired copy is stale and the
		// retry has not dispatched yet): nothing to duplicate.
		return
	}
	rr0 := s.rr
	n := s.selectNode(r.workS, int(r.firstNode))
	if n == nil || n.outstanding() >= s.cl(n).queueCap {
		if s.rec != nil {
			s.rec.event(s, trace.Event{Kind: "hedge-suppress", Node: -1, Rack: -1, Req: int(ri), Phase: int(r.phase)})
		}
		s.m.HedgesSuppressed++
		return
	}
	if s.rec != nil {
		s.rec.decision(s, ri, "hedge", n, rr0, int(r.firstNode), true)
	}
	s.m.HedgesIssued++
	s.enqueue(n, reqCopy{req: ri, hedge: true, attempt: r.attempt})
}

// redispatch fails a request copy over to a fresh node after its original
// node died: the standard policy selection, with a drop (attributed to the
// would-be node) when nothing has queue space.
//
//sprint:hotpath
func (s *sim) redispatch(ri int32) {
	r := &s.reqs[ri]
	rr0 := s.rr
	n := s.selectNode(r.workS, -1)
	if n == nil || n.outstanding() >= s.cl(n).queueCap {
		if s.rec != nil {
			s.rec.decision(s, ri, "redispatch", n, rr0, -1, false)
		}
		s.drop(ri, n)
		return
	}
	if s.rec != nil {
		s.rec.decision(s, ri, "redispatch", n, rr0, -1, true)
	}
	s.scen.phases[r.phase].redispatches++
	// The failover target is the request's first node now: a pending
	// hedge check must exclude it, not the dead original. The copy keeps
	// its attempt — the client's deadline keeps ticking across a failover.
	r.firstNode = int32(n.id)
	s.enqueue(n, reqCopy{req: ri, attempt: r.attempt})
}

// enqueue places a copy on the node, starting service if it is idle, and
// refreshes the node's routing key.
//
//sprint:hotpath
func (s *sim) enqueue(n *node, c reqCopy) {
	s.reqs[c.req].copies++
	if !n.busy {
		s.startService(n, c)
	} else {
		n.queue = append(n.queue, c)
		n.queuedNaiveS += s.reqs[c.req].workS / s.cl(n).width
	}
	s.touch(n)
}

// touch refreshes the node's routing keys after any state change
// (enqueue, service start, completion) — the only instants a key can
// move, so the index never decays merely because time passed.
//
// For least-loaded/hedged the canonical key is the absolute backlog-
// drain instant — busyUntilS + queuedNaiveS — or −Inf for an idle node,
// so every idle node shares one exact key and the rotating tie-break
// spreads arrivals across them just as the linear scan did. Sprint-aware
// keeps busy nodes under the same drain key and idle nodes under the
// governor budget instant tKey. A dead node or one at queue capacity
// is absent (+Inf) from every tree: it is only ever the drop-attribution
// fallback.
//
//sprint:hotpath
func (s *sim) touch(n *node) {
	if s.idx == nil && s.segs == nil {
		return
	}
	drain, idle := math.Inf(1), math.Inf(1) // +Inf: absent from the tree
	switch {
	case !n.alive || n.outstanding() >= s.cl(n).queueCap:
	case s.idx != nil || n.busy:
		drain = n.drainKey()
	default:
		idle = s.tKey(n)
	}
	if s.idx != nil {
		s.idx.update(n.id, drain)
		return
	}
	sg := &s.segs[s.segIdx[n.id]]
	lid := n.id - sg.lo
	sg.busyIdx.update(lid, drain)
	sg.idleIdx.update(lid, idle)
}

// tKey is an idle node's routing key: the instant the governor's refill
// line extrapolates back to an empty budget, so the projected budget at
// any later query time is min(capacity, drainW·(now − tKey)) — a
// decreasing function of the key alone. Ascending tKey therefore orders
// idle nodes by sprint-aware score for every request size, and two nodes
// with equal keys have bit-identical projections (the all-idle initial
// fleet shares one key, preserving the rotating tie-break). With a
// non-refilling platform (drainW ≤ 0) the budget is static and −remJ
// gives the same ordering.
//
//sprint:hotpath
func (s *sim) tKey(n *node) float64 {
	cl := s.cl(n)
	remJ := n.gov.RemainingJ()
	if cl.drainW <= 0 {
		return -remJ
	}
	return n.gov.Now() - remJ/cl.drainW
}

// startService begins serving a copy now: the governor idles over the gap
// since its last activity, the node's rack (if any) rules on sprint
// admission, then the governed slicing determines service time and energy.
// A rack-denied service runs entirely on the sustained core.
//
//sprint:hotpath
func (s *sim) startService(n *node, c reqCopy) {
	workS := s.reqs[c.req].workS
	if gap := s.nowS - n.gov.Now(); gap > 0 {
		n.gov.Idle(gap)
	}
	cl := s.cl(n)
	width, sprintW := cl.width, cl.sprintW
	if s.wl != nil {
		if rw := float64(s.reqs[c.req].width); rw > 0 && rw < width {
			// A narrow request caps its own parallelism: it serves at its
			// width and draws sprint power scaled to the cores it lights up.
			// Wider-than-class requests clamp to the class width, and the
			// whole override rides behind the wl nil check so default runs
			// pass the class constants through verbatim.
			width = rw
			sprintW = cl.nominalW + cl.extraW*(rw/cl.width)
		}
	}
	var serviceS, energyJ, sprintS float64
	var full bool
	if s.sprintAdmitted(n, workS, width, sprintW) {
		serviceS, energyJ, sprintS, full = s.serve(n, workS, width, sprintW)
	} else {
		serviceS = workS
		energyJ = s.cl(n).nominalW * serviceS
		n.gov.Idle(serviceS) // at nominal the thermal budget refills
	}
	if s.rel != nil && s.rel.slowX != nil {
		if x := s.rel.slowX[n.id]; x > 1 {
			// Gray failure: the service stretches — a straggler, not a
			// corpse. The stall is billed at nominal power (the core waits,
			// it does not compute) and the thermal budget refills over it;
			// the sprint phase itself keeps its real duration, so rack draw
			// timing is untouched. busyUntilS reflects the stretch, so
			// queue-aware policies can see the backlog — blind ones cannot,
			// which is exactly what makes the failure gray.
			extraS := serviceS * (x - 1)
			serviceS += extraS
			energyJ += s.cl(n).nominalW * extraS
			n.gov.Idle(extraS)
		}
	}
	fused := false
	if sprintS > 0 {
		fused = s.rackSprintStart(n, sprintS, serviceS)
	}
	if s.rec != nil {
		if sprintS > 0 {
			s.rec.sprintStart(s, n, sprintS)
		}
		if s.rec.cfg.Level == trace.LevelFull {
			s.rec.event(s, trace.Event{Kind: "service-start", Node: n.id, Rack: rackOf(s, n), Req: int(c.req), Phase: int(s.reqs[c.req].phase), DurS: serviceS})
		}
	}
	n.busy, n.cur = true, c
	n.busyUntilS = s.nowS + serviceS
	n.stats.Served++
	if !full {
		n.stats.Denials++
	}
	if s.scen != nil {
		t := &s.scen.phases[s.reqs[c.req].phase]
		t.served++
		if !full {
			t.denials++
		}
	}
	n.stats.EnergyJ += energyJ
	n.stats.BusyS += serviceS
	if !fused {
		s.push(n.busyUntilS, event{kind: evComplete, node: int32(n.id), gen: n.gen})
	}
}

// serve runs the governed service discipline (the session evaluator's
// policy at fleet scale): full sprint width while the budget lasts, then
// the sustained rate. It reports service time, service energy, the sprint
// phase's duration (always a contiguous prefix of the service — the
// thermal budget only drains while serving, so once degraded a service
// never sprints again), and whether the whole request ran at full width.
// width and sprintW are the request's effective parallelism and sprint
// power — the class constants except under a workload width cap, where a
// narrow request serves at its own width and proportionally lower power.
//
//sprint:hotpath
func (s *sim) serve(n *node, workS, width, sprintW float64) (serviceS, energyJ, sprintS float64, full bool) {
	cl := s.cl(n)
	nominalW := cl.nominalW
	remaining := workS
	full = true
	for remaining > 1e-12 {
		maxFullS := n.gov.MaxSprintS(sprintW)
		switch {
		case maxFullS*width >= remaining:
			dt := remaining / width
			n.gov.RecordSprint(sprintW, dt)
			serviceS += dt
			energyJ += sprintW * dt
			sprintS += dt
			remaining = 0
		case maxFullS > 1e-9:
			n.gov.RecordSprint(sprintW, maxFullS)
			serviceS += maxFullS
			energyJ += sprintW * maxFullS
			sprintS += maxFullS
			remaining -= maxFullS * width
			full = false
		default:
			dt := remaining
			n.gov.Idle(dt)
			serviceS += dt
			energyJ += nominalW * dt
			remaining = 0
			full = false
		}
	}
	return serviceS, energyJ, sprintS, full
}

// complete finishes the node's in-service copy and starts the next live
// queued copy, lazily cancelling copies whose request already finished
// elsewhere.
//
//sprint:hotpath
func (s *sim) complete(n *node) {
	c := n.cur
	n.busy = false
	s.lastDoneS = s.nowS
	s.reqs[c.req].copies--
	if s.rec != nil {
		// One copy departed the node while it is between services — the
		// instant a hypothetically queued copy would advance, before the
		// next real service consumes governor budget.
		s.rec.departed(s, n)
	}
	win := s.reqs[c.req].doneS < 0
	if s.rel != nil && win {
		r := &s.reqs[c.req]
		if c.attempt != r.attempt {
			// The client abandoned this attempt (timeout, fault, or a
			// terminal state — all of them bump the attempt counter before
			// acting): the service happened, the response is useless.
			win = false
			s.m.WastedServices++
			if s.rec != nil && s.rec.cfg.Level == trace.LevelFull {
				s.rec.event(s, trace.Event{Kind: "stale-complete", Node: n.id, Rack: rackOf(s, n), Req: int(c.req), Phase: int(r.phase)})
			}
		} else if s.rel.faultProb > 0 && s.rel.rng.Float64() < s.rel.faultProb {
			// Transient fault: the response is garbage; the client retries
			// exactly as if the attempt had timed out.
			win = false
			s.m.TransientFaults++
			if s.scen != nil {
				s.scen.phases[r.phase].faults++
			}
			if s.rec != nil {
				s.rec.event(s, trace.Event{Kind: "fault", Node: n.id, Rack: rackOf(s, n), Req: int(c.req), Phase: int(r.phase)})
			}
			s.clientRetry(c.req)
		}
	}
	if win {
		r := &s.reqs[c.req]
		r.doneS = s.nowS
		r.fate = done
		if c.hedge {
			s.m.HedgeWins++
		}
		if s.rec != nil {
			lat := s.nowS - r.arrivalS
			s.rec.reqDone(lat)
			if c.hedge {
				s.rec.event(s, trace.Event{Kind: "hedge-win", Node: n.id, Rack: rackOf(s, n), Req: int(c.req), Phase: int(r.phase), DurS: lat})
			}
			if s.rec.cfg.Level == trace.LevelFull {
				s.rec.event(s, trace.Event{Kind: "complete", Node: n.id, Rack: rackOf(s, n), Req: int(c.req), Phase: int(r.phase), DurS: lat})
			}
		}
	}
	if s.wl != nil && s.wl.disc != wlFIFO {
		s.dequeueDisciplined(n)
	} else {
		s.dequeueFIFO(n)
	}
	if n.head == len(n.queue) {
		n.queue = n.queue[:0]
		n.head = 0
		n.queuedNaiveS = 0
	}
	s.touch(n)
}

// dequeueFIFO starts the next live queued copy in arrival order — the
// default dequeue, split out of complete so the workload disciplines can
// swap it (see dequeueDisciplined in workload.go).
//
//sprint:hotpath
func (s *sim) dequeueFIFO(n *node) {
	for n.head < len(n.queue) {
		next := n.queue[n.head]
		n.head++
		n.queuedNaiveS -= s.reqs[next.req].workS / s.cl(n).width
		if s.moot(next) { // skipped instead of served
			s.reqs[next.req].copies--
			s.m.CancelledCopies++
			if s.rec != nil {
				s.rec.departed(s, n)
			}
			continue
		}
		s.startService(n, next)
		break
	}
}

// moot reports whether a queued copy is useless: its request finished
// elsewhere, or the client abandoned its attempt (the attempt mismatch
// covers every reliability-terminal state and every retry — they all
// bump the counter).
//
//sprint:hotpath
func (s *sim) moot(c reqCopy) bool {
	r := &s.reqs[c.req]
	return r.doneS >= 0 || s.rel != nil && c.attempt != r.attempt
}

// estFinishAt estimates when a request of the given work would finish on
// the node: start at the absolute instant the node's backlog drains at
// full width (its routing key; now for an idle node), project the thermal
// budget's refill to that start, then apply the governed service model.
// It is an estimator, not the simulator (queued services will also spend
// budget), but it is exactly the "most usable thermal headroom" signal
// sprint-aware dispatch routes on.
//
//sprint:hotpath
func (s *sim) estFinishAt(n *node, workS float64) float64 {
	cl := s.cl(n)
	startS := s.nowS
	if n.busy {
		startS = n.busyUntilS + n.queuedNaiveS
	}
	remJ := n.gov.RemainingJ()
	if dt := startS - n.gov.Now(); dt > 0 {
		remJ = math.Min(cl.capJ, remJ+cl.drainW*dt)
	}
	var svc float64
	if cl.netW <= 0 {
		svc = workS / cl.width
	} else {
		fullS := remJ / cl.netW
		if workS/cl.width <= fullS {
			svc = workS / cl.width
		} else {
			svc = fullS + (workS - fullS*cl.width)
		}
	}
	return startS + svc
}

// drainKey is the least-loaded routing score: the absolute instant the
// node's backlog drains at full sprint width, −Inf when idle. Ordering
// nodes by it is ordering by outstanding work (every candidate shares the
// same now), but the key changes only when the node's state does.
//
//sprint:hotpath
func (n *node) drainKey() float64 {
	if n.busy {
		return n.busyUntilS + n.queuedNaiveS
	}
	return math.Inf(-1)
}

// selectNode picks the destination node for a request copy under the
// configured policy. exclude (≥ 0) removes a node from consideration:
// only hedge passes one, so only the Hedged policy's index implements it
// (hedging never duplicates onto the original node). It returns nil when
// no eligible node has queue space (round-robin instead returns its next
// node regardless, modelling a state-blind dispatcher).
//
// The rotation counter advances once per selection and score ties break
// to the first node in rotation order from it, so selection stays
// deterministic and an all-idle fleet spreads consecutive arrivals
// instead of herding onto node 0. The indexed and linear-scan selectors
// implement identical semantics; see index.go.
//
//sprint:hotpath
func (s *sim) selectNode(workS float64, exclude int) *node {
	if s.cfg.Policy == RoundRobin {
		// The dispatcher is state-blind but not necromantic: it skips dead
		// nodes, returning nil only when the whole fleet is down.
		for i := 0; i < len(s.nodes); i++ {
			n := &s.nodes[s.rr%len(s.nodes)]
			s.rr++
			if n.alive {
				return n
			}
		}
		return nil
	}
	start := s.rr
	s.rr++
	if s.useRef {
		return s.refSelect(workS, exclude, start)
	}
	rot := start % len(s.nodes)
	var best *node
	if s.cfg.Policy == SprintAware {
		best = s.sprintAwareMin(rot, workS)
	} else {
		var exD float64
		if exclude >= 0 {
			exD = s.idx.disable(exclude)
		}
		if id := s.idx.argmin(rot); id >= 0 {
			best = &s.nodes[id]
		}
		if exclude >= 0 {
			s.idx.update(exclude, exD)
		}
	}
	if best == nil {
		// Every eligible node is at queue capacity: fall back to the
		// reference scan, whose bestFull half picks the best-scoring full
		// node so the inevitable drop is attributed to the node the
		// request would have joined (sum(NodeStats.Dropped) == Dropped).
		best = s.refSelect(workS, exclude, start)
	}
	return best
}

// sprintAwareMin finds the node minimizing the governed finish estimate
// in O(log N) typical time, merging the per-segment tree groups under
// the total candidate order (score, rotation distance) — which is
// exactly the linear scan's first-strict-minimum rotating tie-break, so
// any segmentation (one tree, per-class trees, per-shard-per-class
// trees) selects the same node.
//
// Within each segment the idle side is resolved first: firstLE names
// the first node in local rotation order whose projected budget covers
// the request at full width — the exact tie set of the linear scan
// restricted to the segment, since every such node scores
// startS + work/width with identical floats — and when no budget
// suffices, the argmin of the budget instant is the unique best idle
// candidate. (A segment spans one class, so its projection constants
// are uniform; a 1-wide class serves every request in workS regardless
// of budget, making all its idle nodes tie like the netW ≤ 0 case.)
// Busy nodes are then enumerated best-first by backlog-drain key with
// the admissible bound key + work/width: the enumeration stops as soon
// as the bound exceeds the incumbent, which with healthy budgets is
// immediately (the idle champion already scores the bound's minimum),
// and only in a saturated fleet of depleted budgets widens toward the
// old full scan.
//
//sprint:hotpath
func (s *sim) sprintAwareMin(rot int, workS float64) *node {
	nn := len(s.nodes)
	var best *node
	var bestScore float64
	bestRot := 0
	//sprintvet:ignore allocfree take is called only from this frame and never escapes, so it is stack-allocated; TestSimulateSteadyStateAllocations pins the steady-state loop alloc-free
	take := func(id int) {
		n := &s.nodes[id]
		sc := s.estFinishAt(n, workS)
		rd := id - rot
		if rd < 0 {
			rd += nn
		}
		if best == nil || sc < bestScore || (sc == bestScore && rd < bestRot) {
			best, bestScore, bestRot = n, sc, rd
		}
	}

	// Idle champions, one per segment. The threshold asks for a projected
	// budget of net·(work/width) joules — capped at the full budget, the
	// most any idle node of the class can hold (beyond it every saturated
	// node ties). lrot is the global rotation restricted to the segment:
	// the cyclic walk from rot crosses a contiguous block either as one
	// run (entering at lo) or as [rot, hi) then [lo, rot).
	for si := range s.segs {
		sg := &s.segs[si]
		cl := &s.classes[sg.class]
		lrot := 0
		if rot >= sg.lo && rot < sg.hi {
			lrot = rot - sg.lo
		}
		idle := -1
		if cl.netW <= 0 || cl.width <= 1 {
			// Sprinting is sustainable (or widthless): every idle node of
			// the class serves identically and ties exactly, so the
			// rotation alone picks the segment's champion.
			idle = sg.idleIdx.firstLE(lrot, math.Inf(1))
		} else {
			needJ := cl.netW * workS / cl.width
			if needJ > cl.capJ {
				needJ = cl.capJ
			}
			thresh := -needJ
			if cl.drainW > 0 {
				thresh = s.nowS - needJ/cl.drainW
			}
			if idle = sg.idleIdx.firstLE(lrot, thresh); idle < 0 {
				idle = sg.idleIdx.argmin(lrot)
			}
		}
		if idle >= 0 {
			take(sg.lo + idle)
		}
	}

	// Busy enumeration per segment under the shared incumbent and the
	// segment class's admissible bound. The strict > keeps bound ties in
	// play, so a later segment can still win an exact score tie on
	// rotation distance — segment visit order never matters. The root
	// bounds the whole tree, so a segment with no busy node, or none that
	// could beat the incumbent, is never seeded. The frontier pushes tree
	// slot c at its subtree minimum with seq c: each slot is pushed at most
	// once per search, so (time, seq) orders entries by (minimum, slot),
	// and busy keys are finite, so the time round-trips exactly.
	q := &s.frontier
	for si := range s.segs {
		sg := &s.segs[si]
		wow := workS / s.classes[sg.class].width
		t := sg.busyIdx
		if t.d[1] == math.Inf(1) || best != nil && t.d[1]+wow > bestScore {
			continue
		}
		q.clear()
		q.push(t.d[1], event{req: 1}, 1)
		for q.len() > 0 {
			d, e := q.pop()
			if best != nil && d+wow > bestScore {
				break // everything still frontiered is bounded above the winner
			}
			if int(e.req) >= t.size { // leaf: evaluate the true score
				take(sg.lo + int(e.req) - t.size)
				continue
			}
			for c := 2 * e.req; c <= 2*e.req+1; c++ {
				if t.d[c] < math.Inf(1) {
					q.push(t.d[c], event{req: c}, uint64(c))
				}
			}
		}
	}
	return best
}

// refSelect is the O(N) linear-scan reference selector: the pre-index
// implementation retained verbatim (over the same canonical scores) so
// the determinism suite can prove the dispatch index reproduces it
// exactly. The scan starts at the rotating index and keeps the first
// strict minimum it meets, preferring any node with queue space over any
// full one.
func (s *sim) refSelect(workS float64, exclude, start int) *node {
	var best, bestFull *node
	var bestScore, bestFullScore float64
	nn := len(s.nodes)
	for i := 0; i < nn; i++ {
		n := &s.nodes[(start+i)%nn]
		if n.id == exclude || !n.alive {
			continue
		}
		var sc float64
		if s.cfg.Policy == SprintAware {
			sc = s.estFinishAt(n, workS)
		} else {
			sc = n.drainKey()
		}
		if n.outstanding() >= s.cl(n).queueCap {
			if bestFull == nil || sc < bestFullScore {
				bestFull, bestFullScore = n, sc
			}
			continue
		}
		if best == nil || sc < bestScore {
			best, bestScore = n, sc
		}
	}
	if best == nil {
		return bestFull
	}
	return best
}

// finish assembles the metrics. The loop counts no request's outcome:
// one walk over the request arena tallies every request's fate and
// latency into the run, its scenario phase and its SLO class, and counts
// its tenant; the phase and class tallies it fills are the ones the loop
// charged their event counts to, so each cohort has one record. Nor does
// the loop count a fleet total that a node, rack or phase already counts:
// the node walk sums retries, failures and gray nodes, the rack walk
// trips and permit traffic, and the phase tallies redispatches. Every
// float it reports is reduced in a canonical order — latencies in arena
// order, energy and throttled time in node/rack order — never in
// event-completion order, so the whole-fleet and sharded loops produce
// bit-identical sums even where float addition does not commute.
func (s *sim) finish() Metrics {
	if s.rec != nil {
		// The arena is still live here; finalize reads realized completion
		// times out of it to fill the counterfactual regret columns.
		s.rec.finalize(s)
	}
	m := s.m
	m.SimS = s.lastDoneS
	run := tally{lat: newLatDist(s.cfg, len(s.reqs))}
	var phases, classes []tally
	if s.scen != nil {
		phases = s.scen.phases
	}
	if s.wl != nil {
		classes = s.wl.tallies
		m.Tenants = make([]TenantMetrics, len(s.wl.tenants))
	}
	for _, ts := range [2][]tally{phases, classes} {
		for i := range ts {
			ts[i].lat = newLatDist(s.cfg, 0)
		}
	}
	for i := range s.reqs {
		r := &s.reqs[i]
		run.add(r)
		if phases != nil {
			phases[r.phase].add(r)
		}
		if classes != nil {
			classes[r.slo].add(r)
			if t := int(r.tenant); t < len(m.Tenants) {
				m.Tenants[t].Offered++
				if r.fate == done {
					m.Tenants[t].Completed++
				}
			}
		}
	}
	_, m.Completed, m.Dropped, m.TimedOut, m.Shed = run.counts()
	m.AdmissionShed = run.n[admShed]
	m.MeanS, m.P50S, m.P95S, m.P99S, m.P999S, m.MaxS = run.lat.summary()
	m.ApproxQuantiles = run.lat.hist != nil
	if m.SimS > 0 {
		// Throughput counts every service that delivered a response,
		// useful or not; goodput only the client-useful ones. With the
		// reliability layer off the wasted/faulted counts are zero and
		// both reduce to the historical Completed / SimS.
		m.ThroughputRPS = float64(m.Completed+m.WastedServices+m.TransientFaults) / m.SimS
		m.GoodputRPS = float64(m.Completed) / m.SimS
	}
	served, denials := 0, 0
	m.Nodes = make([]NodeStats, len(s.nodes))
	for i := range s.nodes {
		n := &s.nodes[i]
		n.stats.ID = n.id
		n.stats.Rack = n.rackID
		m.Nodes[i] = n.stats
		served += n.stats.Served
		denials += n.stats.Denials
		m.Retries += n.stats.Retries
		m.NodeFailures += n.stats.Failures
		if n.stats.Gray {
			m.GrayNodes++
		}
		m.TotalEnergyJ += n.stats.EnergyJ
		if n.stats.EnergyJ > m.MaxNodeEnergyJ {
			m.MaxNodeEnergyJ = n.stats.EnergyJ
		}
	}
	if m.Requests > 0 {
		m.RetryAmplification = float64(m.Requests+m.Retries) / float64(m.Requests)
	}
	if s.racks != nil {
		m.Racks = make([]RackStats, len(s.racks))
		for i := range s.racks {
			r := &s.racks[i]
			// The event list has drained, so every admitted sprint phase
			// must have retired; a residue means a grant/end pairing bug
			// (e.g. a TokenPermit release without its grant, or a failed
			// node's sprint draw never retired from its rack).
			if r.sprinting != 0 || r.permits != 0 || math.Abs(r.sprintExtraW) > 1e-6 {
				panic(fmt.Sprintf("fleet: rack %d finished with %d sprinting / %d permits / %.3g W outstanding",
					r.id, r.sprinting, r.permits, r.sprintExtraW))
			}
			r.stats.ID = r.id
			m.Racks[i] = r.stats
			m.BreakerTrips += r.stats.Trips
			m.PermitRequests += r.stats.SprintRequests
			m.PermitDenials += r.stats.PermitDenials
			// Reduced here in rack order (not accumulated in trip order)
			// so the sharded engines report the identical float.
			m.RackThrottledS += r.stats.ThrottledS
		}
		for i := range s.nodes {
			m.Racks[s.nodes[i].rackID].EnergyJ += s.nodes[i].stats.EnergyJ
		}
		if m.PermitRequests > 0 {
			m.PermitDenialRate = float64(m.PermitDenials) / float64(m.PermitRequests)
		}
	}
	if served > 0 {
		m.SprintDenialRate = float64(denials) / float64(served)
	}
	if len(s.nodes) > 0 {
		m.MeanNodeEnergyJ = m.TotalEnergyJ / float64(len(s.nodes))
	}
	if m.Completed > 0 {
		m.EnergyPerRequestJ = m.TotalEnergyJ / float64(m.Completed)
	}
	if s.scen != nil {
		m.Phases = s.scen.phaseMetrics()
		for _, p := range m.Phases {
			m.Redispatches += p.Redispatches
		}
	}
	if s.wl != nil {
		s.wl.assemble(&m)
	}
	return m
}
