// The scenario engine: the paper's core claim is that sprinting pays off
// exactly when demand is unsteady — short bursts against a thermal/power
// budget — so a fleet study that only ever offers stationary load to
// identical, always-healthy nodes cannot see the effect it was built to
// measure. A Scenario turns the simulator's open-loop world dynamic along
// three axes, all first-class citizens of the deterministic event loop:
//
//   - load phases with ramps: each Phase shapes the arrival rate over its
//     duration (flat, linear ramp, diurnal sine, exponential decay), so a
//     flash crowd is just a step phase and a day is a sine phase;
//   - environment: a phase's ambient-temperature delta retargets every
//     node's governor (a hotter ambient shrinks both the sprint budget
//     and the drain toward it — thermal.StackConfig made time-varying);
//   - hardware: heterogeneous node classes with distinct nominal/sprint
//     power, budget/drain scaling, sprint width, and queue depth; and
//     seeded failure/recovery churn that kills and revives nodes as
//     events (evNodeFail/evNodeRecover), with orphaned request copies
//     failing over to live nodes.
//
// Everything stays a pure function of (Config, Scenario): arrivals are
// generated up front from a dedicated seeded stream, churn draws from
// another, and phase boundaries are ordinary events in the (time, seq)
// heap — so scenario runs are byte-identical at any worker count, exactly
// like plain simulations.
package fleet

import (
	"fmt"
	"math"
	"math/rand"

	"sprinting/internal/governor"
)

// LoadShape selects how a Phase's arrival-rate factor evolves over the
// phase. The JSON names are the constant values.
type LoadShape string

// Load shapes.
const (
	// ShapeFlat holds StartFactor for the whole phase (the zero value "" is
	// treated as flat).
	ShapeFlat LoadShape = "flat"
	// ShapeRamp moves linearly from StartFactor to EndFactor.
	ShapeRamp LoadShape = "ramp"
	// ShapeSine oscillates between StartFactor and EndFactor with period
	// PeriodS (defaulting to the phase duration), starting at StartFactor
	// and cresting at EndFactor half a period in — the diurnal pattern.
	ShapeSine LoadShape = "sine"
	// ShapeDecay moves exponentially from StartFactor to EndFactor — the
	// tail of a flash crowd.
	ShapeDecay LoadShape = "decay"
)

// Phase is one segment of a scenario's timeline: a load shape over a
// duration, optionally in a shifted thermal environment.
type Phase struct {
	// Name labels the phase in reports and PhaseMetrics.
	Name string `json:"name"`
	// DurationS is the phase length in simulated seconds.
	DurationS float64 `json:"duration_s"`
	// Shape selects the rate profile; empty means flat.
	Shape LoadShape `json:"shape,omitempty"`
	// StartFactor and EndFactor are arrival-rate multipliers applied to
	// the scenario's base rate (0 defaults StartFactor to 1 and EndFactor
	// to StartFactor). A flash crowd is a phase with StartFactor 2.
	StartFactor float64 `json:"start_factor,omitempty"`
	EndFactor   float64 `json:"end_factor,omitempty"`
	// PeriodS is the sine period (sine shape only; 0 selects DurationS).
	PeriodS float64 `json:"period_s,omitempty"`
	// AmbientDeltaC shifts every node's ambient temperature relative to
	// the design point for the phase: the governor budget capacity and
	// drain rate are re-derived from the thermal stack at the shifted
	// ambient, preserving each node's stored heat across the boundary.
	AmbientDeltaC float64 `json:"ambient_delta_c,omitempty"`
}

// factor returns the arrival-rate multiplier t seconds into the phase;
// the phase must be defaulted (see Scenario.withDefaults).
func (p Phase) factor(t float64) float64 {
	switch p.Shape {
	case ShapeRamp:
		return p.StartFactor + (p.EndFactor-p.StartFactor)*t/p.DurationS
	case ShapeSine:
		// Starts at StartFactor (like every other shape), crests at
		// EndFactor half a period in, and returns — a diurnal trough-to-
		// peak swing.
		mid, amp := (p.StartFactor+p.EndFactor)/2, (p.EndFactor-p.StartFactor)/2
		return mid - amp*math.Cos(2*math.Pi*t/p.PeriodS)
	case ShapeDecay:
		return p.StartFactor * math.Pow(p.EndFactor/p.StartFactor, t/p.DurationS)
	default: // flat
		return p.StartFactor
	}
}

// NodeClass describes one hardware class of a heterogeneous scenario
// fleet. Zero fields inherit the base Config values; classes are assigned
// to nodes in declaration order as contiguous index blocks.
type NodeClass struct {
	// Name labels the class.
	Name string `json:"name"`
	// Count is the number of nodes of this class, at least one; declared
	// classes size the fleet, since Config.Nodes becomes their sum.
	Count int `json:"count"`
	// SprintPowerW / NominalPowerW override the per-node powers
	// (0 = the base Config.Node values).
	SprintPowerW  float64 `json:"sprint_power_w,omitempty"`
	NominalPowerW float64 `json:"nominal_power_w,omitempty"`
	// SprintWidth overrides the sprint core count (0 = base).
	SprintWidth int `json:"sprint_width,omitempty"`
	// QueueCap overrides the per-node queue bound (0 = base).
	QueueCap int `json:"queue_cap,omitempty"`
	// BudgetScale and DrainScale scale the governor's thermal budget
	// capacity and drain/refill rate relative to the class's thermal
	// design (0 = 1): a bigger heat sink is DrainScale 2, more PCM is
	// BudgetScale 2.
	BudgetScale float64 `json:"budget_scale,omitempty"`
	DrainScale  float64 `json:"drain_scale,omitempty"`
}

// governorConfig resolves the class's governor configuration against the
// base Config.
func (c NodeClass) governorConfig(base governor.Config) governor.Config {
	if c.SprintPowerW > 0 {
		base.SprintPowerW = c.SprintPowerW
	}
	if c.NominalPowerW > 0 {
		base.NominalPowerW = c.NominalPowerW
	}
	return base
}

// Churn parameterizes seeded node failure/recovery: failures arrive as a
// Poisson process over the whole fleet, victims are drawn uniformly, and
// each failed node returns after an exponential downtime.
type Churn struct {
	// MTBFS is the fleet-wide mean time between failures in seconds;
	// 0 disables churn.
	MTBFS float64 `json:"mtbf_s,omitempty"`
	// MeanDowntimeS is the mean repair time (0 selects 10 s).
	MeanDowntimeS float64 `json:"mean_downtime_s,omitempty"`
	// RackMTBFS enables correlated rack-level failures: power-loss events
	// arrive as a Poisson process with this mean interval, each downing
	// every live member of one uniformly drawn rack at once (the members
	// recover together after an exponential outage). 0 disables rack
	// churn; enabling it requires rack power domains (a Coordination
	// other than none), since racks do not otherwise exist.
	RackMTBFS float64 `json:"rack_mtbf_s,omitempty"`
	// RackMeanDowntimeS is the mean rack outage (0 selects 10 s).
	RackMeanDowntimeS float64 `json:"rack_mean_downtime_s,omitempty"`
}

// Scenario is a declarative description of a dynamic fleet run: a phased
// load profile over an optionally heterogeneous, optionally failing
// fleet. The zero value is not runnable — at least one Phase is required.
type Scenario struct {
	// BaseRatePerS is the arrival rate a factor of 1.0 corresponds to;
	// 0 selects the base Config's effective rate (≈85% of sustained
	// capacity when Config.ArrivalRatePerS is also unset).
	BaseRatePerS float64 `json:"base_rate_per_s,omitempty"`
	// Phases is the timeline, played in order.
	Phases []Phase `json:"phases"`
	// Classes declares a heterogeneous fleet; empty keeps every node on
	// the base Config hardware.
	Classes []NodeClass `json:"classes,omitempty"`
	// Churn enables node failure/recovery.
	Churn Churn `json:"churn,omitempty"`
	// MaxRequests caps the generated trace as a safety rail against
	// runaway rate × duration products (0 selects 4,194,304).
	MaxRequests int `json:"max_requests,omitempty"`
	// at is the timeline withDefaults derives: phase i spans [at[i],
	// at[i+1]), at[0] = 0, each boundary summed left to right.
	at []float64
}

// scenarioSeed, churnSeed, and rackChurnSeed decorrelate the scenario's
// dedicated random streams from the session generator and the rack
// admission stream; rack churn draws from its own stream so enabling it
// never perturbs the node-churn sequence of an existing scenario.
const (
	scenarioSeed  = 0x7f4a7c159e3779b9
	churnSeed     = 0x2545f4914f6cdd1d
	rackChurnSeed = 0x41c64e6da3bc0074
)

// withDefaults returns a deep-enough copy with every optional field
// resolved and the timeline derived; the original is never mutated.
func (sc Scenario) withDefaults() Scenario {
	phases := make([]Phase, len(sc.Phases))
	copy(phases, sc.Phases)
	sc.at = make([]float64, len(phases)+1)
	for i := range phases {
		p := &phases[i]
		sc.at[i+1] = sc.at[i] + p.DurationS
		if p.Shape == "" {
			p.Shape = ShapeFlat
		}
		if p.StartFactor == 0 {
			p.StartFactor = 1
		}
		if p.EndFactor == 0 {
			p.EndFactor = p.StartFactor
		}
		if p.PeriodS == 0 {
			p.PeriodS = p.DurationS
		}
		if p.Name == "" {
			p.Name = fmt.Sprintf("phase%d", i)
		}
	}
	sc.Phases = phases
	classes := make([]NodeClass, len(sc.Classes))
	copy(classes, sc.Classes)
	for i := range classes {
		if classes[i].BudgetScale == 0 {
			classes[i].BudgetScale = 1
		}
		if classes[i].DrainScale == 0 {
			classes[i].DrainScale = 1
		}
		if classes[i].Name == "" {
			classes[i].Name = fmt.Sprintf("class%d", i)
		}
	}
	sc.Classes = classes
	if sc.Churn.MTBFS > 0 && sc.Churn.MeanDowntimeS == 0 {
		sc.Churn.MeanDowntimeS = 10
	}
	if sc.Churn.RackMTBFS > 0 && sc.Churn.RackMeanDowntimeS == 0 {
		sc.Churn.RackMeanDowntimeS = 10
	}
	if sc.MaxRequests == 0 {
		sc.MaxRequests = 4 << 20
	}
	return sc
}

// endS is the timeline's end: no arrival or churn is scheduled past it.
func (sc *Scenario) endS() float64 { return sc.at[len(sc.at)-1] }

// Nodes returns the fleet size the scenario implies: the class-count sum
// when classes are declared, 0 (caller's choice) otherwise.
func (sc Scenario) Nodes() int {
	n := 0
	for _, c := range sc.Classes {
		n += c.Count
	}
	return n
}

// validate reports scenario errors against the (already defaulted) base
// configuration; call on a defaulted scenario. The class counts need no
// check against cfg.Nodes: Spec.resolve derives the fleet size from them.
func (sc Scenario) validate(cfg Config) error {
	if len(sc.Phases) == 0 {
		return fmt.Errorf("fleet: scenario needs at least one phase")
	}
	if len(sc.Phases) > math.MaxInt16 {
		// request.phase is an int16 arena field.
		return fmt.Errorf("fleet: scenario has %d phases (max %d)", len(sc.Phases), math.MaxInt16)
	}
	if sc.BaseRatePerS < 0 || math.IsInf(sc.BaseRatePerS, 0) || math.IsNaN(sc.BaseRatePerS) {
		return fmt.Errorf("fleet: scenario base rate must be finite and non-negative")
	}
	if sc.MaxRequests <= 0 || sc.MaxRequests > requestCap {
		return fmt.Errorf("fleet: scenario request cap must be in [1, %d]", requestCap)
	}
	for _, p := range sc.Phases {
		switch {
		case p.DurationS <= 0:
			return fmt.Errorf("fleet: phase %q: duration must be positive", p.Name)
		case p.Shape != ShapeFlat && p.Shape != ShapeRamp && p.Shape != ShapeSine && p.Shape != ShapeDecay:
			return fmt.Errorf("fleet: phase %q: unknown shape %q (want flat|ramp|sine|decay)", p.Name, p.Shape)
		case p.StartFactor <= 0 || p.EndFactor <= 0:
			return fmt.Errorf("fleet: phase %q: rate factors must be positive", p.Name)
		case p.Shape == ShapeSine && p.PeriodS <= 0:
			return fmt.Errorf("fleet: phase %q: sine period must be positive", p.Name)
		}
		// Every class must remain a valid thermal design at the phase's
		// shifted ambient (e.g. ambient must stay below the PCM melting
		// point, or the sustained budget goes non-positive).
		for _, c := range effectiveClasses(sc.Classes) {
			gcfg := c.governorConfig(cfg.Node)
			gcfg.Design.AmbientC += p.AmbientDeltaC
			if err := gcfg.Validate(); err != nil {
				return fmt.Errorf("fleet: phase %q: class %q at ambient %+.1f °C: %w", p.Name, c.Name, p.AmbientDeltaC, err)
			}
		}
	}
	for _, c := range sc.Classes {
		switch {
		case c.Count <= 0 || c.Count > maxNodes:
			return fmt.Errorf("fleet: class %q: count must be in [1, %d]", c.Name, maxNodes)
		case c.SprintWidth < 0:
			return fmt.Errorf("fleet: class %q: sprint width must be non-negative", c.Name)
		case c.QueueCap < 0:
			return fmt.Errorf("fleet: class %q: queue capacity must be non-negative", c.Name)
		case c.BudgetScale <= 0 || c.DrainScale <= 0:
			return fmt.Errorf("fleet: class %q: budget/drain scales must be positive", c.Name)
		}
		if err := c.governorConfig(cfg.Node).Validate(); err != nil {
			return fmt.Errorf("fleet: class %q: %w", c.Name, err)
		}
	}
	if sc.Churn.MTBFS < 0 || (sc.Churn.MTBFS > 0 && sc.Churn.MeanDowntimeS <= 0) {
		return fmt.Errorf("fleet: churn needs a non-negative MTBF and a positive mean downtime")
	}
	if sc.Churn.RackMTBFS < 0 || (sc.Churn.RackMTBFS > 0 && sc.Churn.RackMeanDowntimeS <= 0) {
		return fmt.Errorf("fleet: rack churn needs a non-negative MTBF and a positive mean downtime")
	}
	if sc.Churn.RackMTBFS > 0 && cfg.Coordination == NoCoordination {
		return fmt.Errorf("fleet: rack churn needs rack power domains (set a coordination other than none)")
	}
	return nil
}

// effectiveClasses returns the declared classes, or the implicit single
// default class when none are declared.
func effectiveClasses(declared []NodeClass) []NodeClass {
	if len(declared) > 0 {
		return declared
	}
	return []NodeClass{{Name: "default", BudgetScale: 1, DrainScale: 1}}
}

// applyAmbient re-derives the class's governor prototype — budget
// capacity and drain rate — at the design ambient shifted by deltaC.
// Scenario.validate has already proven every (class, delta) combination
// constructs a valid governor.
func (cl *nodeClass) applyAmbient(deltaC float64) {
	gcfg := cl.gcfg
	gcfg.Design.AmbientC += deltaC
	proto := governor.New(gcfg)
	proto.Retarget(proto.CapacityJ()*cl.budgetScale, gcfg.Design.SustainedPowerBudgetW()*cl.drainScale)
	cl.proto = *proto
}

// buildClasses lowers the declared node classes (none: the implicit
// default class, spanning the fleet) to the sim's nodeClass constants at
// the ambient shifted by ambientC. Each class takes the next Count node
// ids.
func buildClasses(cfg Config, declared []NodeClass, ambientC float64) []nodeClass {
	decls := effectiveClasses(declared)
	classes := make([]nodeClass, len(decls))
	lo := 0
	for i, d := range decls {
		gcfg := d.governorConfig(cfg.Node)
		width := cfg.SprintWidth
		if d.SprintWidth > 0 {
			width = d.SprintWidth
		}
		qcap := cfg.QueueCap
		if d.QueueCap > 0 {
			qcap = d.QueueCap
		}
		hi := lo + d.Count
		if len(declared) == 0 {
			hi = cfg.Nodes
		}
		classes[i] = nodeClass{
			lo:          lo,
			hi:          hi,
			width:       float64(width),
			sprintW:     gcfg.SprintPowerW,
			nominalW:    gcfg.NominalPowerW,
			extraW:      gcfg.SprintPowerW - gcfg.NominalPowerW,
			queueCap:    qcap,
			gcfg:        gcfg,
			budgetScale: d.BudgetScale,
			drainScale:  d.DrainScale,
		}
		classes[i].applyAmbient(ambientC)
		lo = hi
	}
	return classes
}

// PhaseMetrics is one scenario phase's slice of the outcome. Counts are
// attributed to the phase a request *arrived* in (a surge's queueing
// damage is charged to the surge even when completions spill past its
// end); trips and failures are attributed to the phase they fired in.
type PhaseMetrics struct {
	Name         string
	StartS, EndS float64

	Offered   int
	Completed int
	Dropped   int
	// Redispatches counts copies failed over from churn-killed nodes;
	// NodeFailures the churn failures; BreakerTrips the rack trips fired
	// during the phase.
	Redispatches int
	NodeFailures int
	BreakerTrips int

	// Reliability-layer outcome over the phase's arrival cohort (zero
	// when the layer is off): TimedOut/Shed are terminal abandonments,
	// Retries counts re-dispatched attempts, TransientFaults the faulted
	// completions, and ShedRate is Shed over Offered — the phase's
	// load-shedding fraction.
	TimedOut        int
	Shed            int
	Retries         int
	TransientFaults int
	ShedRate        float64

	// ThroughputRPS is Completed over the phase duration — the rate at
	// which the phase's own cohort got served.
	ThroughputRPS float64

	// Latency distribution over the phase's completed requests, with the
	// same exact-vs-one-bin contract as the run's overall quantiles.
	MeanS float64
	P50S  float64
	P95S  float64
	P99S  float64
	P999S float64
	MaxS  float64

	// SprintDenialRate is denials/served over services whose request
	// arrived in the phase.
	SprintDenialRate float64
}

// scenarioRun is the live scenario state hanging off the sim.
type scenarioRun struct {
	spec    Scenario
	classes []nodeClass

	phases []tally // one outcome record per phase
	cur    int     // current phase index (trip/failure attribution)

	ambientC float64 // currently applied ambient delta

	churnRng     *rand.Rand
	rackChurnRng *rand.Rand
	orphans      []reqCopy // reusable failure-handling scratch
}

// phaseMetrics assembles the per-phase breakdown after the run drains
// from the phase tallies: the loop's event counts, and the fates and
// latencies finish's arena walk charged to the phase each request
// arrived in.
func (sc *scenarioRun) phaseMetrics() []PhaseMetrics {
	out := make([]PhaseMetrics, len(sc.phases))
	for i := range out {
		p, t, pm := sc.spec.Phases[i], &sc.phases[i], &out[i]
		pm.Name, pm.StartS, pm.EndS = p.Name, sc.spec.at[i], sc.spec.at[i+1]
		pm.Offered, pm.Completed, pm.Dropped, pm.TimedOut, pm.Shed = t.counts()
		pm.Redispatches, pm.NodeFailures, pm.BreakerTrips = t.redispatches, t.failures, t.trips
		pm.Retries, pm.TransientFaults = t.retries, t.faults
		if pm.Offered > 0 {
			pm.ShedRate = float64(pm.Shed) / float64(pm.Offered)
		}
		pm.ThroughputRPS = float64(pm.Completed) / p.DurationS
		pm.MeanS, pm.P50S, pm.P95S, pm.P99S, pm.P999S, pm.MaxS = t.lat.summary()
		if t.served > 0 {
			pm.SprintDenialRate = float64(t.denials) / float64(t.served)
		}
	}
	return out
}

// clampF bounds v to [lo, hi].
func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// generate produces the scenario's time-sorted arrival trace: a
// piecewise-nonstationary Poisson process (the gap distribution tracks
// the phase factor at the instant the gap begins) with the session
// generator's clamping conventions, from a dedicated seeded stream. The
// trace is built in a pooled arena (the caller returns it after the
// run), so sweep drivers reuse one allocation across sweep points.
func (sc Scenario) generate(cfg Config, baseRate float64) (reqs []request, truncated bool) {
	reqs = getArena(0)
	rng := rand.New(rand.NewSource(cfg.Seed ^ scenarioSeed))
	t, pi := 0.0, 0
	for {
		if len(reqs) >= sc.MaxRequests {
			// Out of budget before the timeline ended: the caller turns
			// this into a loud error rather than reporting trailing
			// phases as mysteriously idle.
			return reqs, true
		}
		mean := 1 / (baseRate * sc.Phases[pi].factor(t-sc.at[pi]))
		t += clampF(rng.ExpFloat64()*mean, math.Min(0.1, mean/8), mean*8)
		for pi < len(sc.Phases)-1 && t >= sc.at[pi+1] {
			pi++
		}
		if t >= sc.endS() {
			return reqs, false
		}
		w := clampF(rng.ExpFloat64()*cfg.MeanWorkS, cfg.MeanWorkS/8, cfg.MeanWorkS*6)
		reqs = append(reqs, request{arrivalS: t, workS: w, doneS: -1, firstNode: -1, phase: int16(pi)})
	}
}

// newScenarioRun builds the live scenario state for a defaulted,
// validated scenario.
func newScenarioRun(cfg Config, sc Scenario) *scenarioRun {
	run := &scenarioRun{spec: sc, phases: make([]tally, len(sc.Phases)), ambientC: sc.Phases[0].AmbientDeltaC}
	run.classes = buildClasses(cfg, sc.Classes, sc.Phases[0].AmbientDeltaC)
	return run
}

// scheduleScenario pushes the scenario's phase boundaries up front and
// the first failure of each churn chain; churn then chains one failure
// event at a time from its dedicated stream.
func (s *sim) scheduleScenario() {
	run, sc := s.scen, &s.scen.spec
	for i := 1; i < len(sc.Phases); i++ {
		s.push(sc.at[i], event{kind: evPhase, req: int32(i)})
	}
	if sc.Churn.MTBFS > 0 {
		run.churnRng = rand.New(rand.NewSource(s.cfg.Seed ^ churnSeed))
		if at := run.churnRng.ExpFloat64() * sc.Churn.MTBFS; at <= sc.endS() {
			s.push(at, event{kind: evNodeFail})
		}
	}
	if sc.Churn.RackMTBFS > 0 {
		run.rackChurnRng = rand.New(rand.NewSource(s.cfg.Seed ^ rackChurnSeed))
		if at := run.rackChurnRng.ExpFloat64() * sc.Churn.RackMTBFS; at <= sc.endS() {
			s.push(at, event{kind: evRackFail})
		}
	}
}

// phaseStart enters phase i: the accounting cursor advances and, when the
// ambient changed, every class's environment constants are re-derived and
// every live governor is retargeted in place (stored heat survives; a
// shrunken budget clamps at exhausted). Idle routing keys are refreshed
// so sprint-aware dispatch sees the new projections immediately.
func (s *sim) phaseStart(i int) {
	sc := s.scen
	sc.cur = i
	if s.rec != nil {
		s.rec.event(s, lifecycle{kind: kindPhaseStart, node: -1, rack: -1, req: -1, phase: i})
	}
	delta := sc.spec.Phases[i].AmbientDeltaC
	if delta == sc.ambientC {
		return
	}
	sc.ambientC = delta
	for ci := range s.classes {
		s.classes[ci].applyAmbient(delta)
	}
	for ni := range s.nodes {
		n := &s.nodes[ni]
		if !n.alive {
			continue // reborn from the class prototype at recovery
		}
		proto := &s.cl(n).proto
		n.gov.Retarget(proto.CapacityJ(), proto.DrainW())
		s.touch(n)
	}
}

// nodeFail is the evNodeFail handler: it picks the victim and the next
// failure from the churn stream, then kills the victim — stale-ing its
// scheduled events via the incarnation counter, retiring its rack draw
// and permits, and failing its orphaned request copies over to live
// nodes (an orphan with another copy still in flight is simply let go).
func (s *sim) nodeFail() {
	sc := s.scen
	victim := sc.churnRng.Intn(len(s.nodes))
	if next := s.nowS + sc.churnRng.ExpFloat64()*sc.spec.Churn.MTBFS; next <= sc.spec.endS() {
		s.push(next, event{kind: evNodeFail})
	}
	n := &s.nodes[victim]
	if !n.alive {
		return // already down; this draw fizzles
	}
	downS := math.Max(1e-3, sc.churnRng.ExpFloat64()*sc.spec.Churn.MeanDowntimeS)
	sc.orphans = sc.orphans[:0]
	s.failNode(n, downS)
	s.failoverOrphans()
}

// failNode kills one live node now, recovering it downS later: its
// incarnation bumps (staling any scheduled completion/sprint-end), its
// rack draw and permits retire, and its request copies — the in-service
// one first, then the FIFO queue — are appended to the scenario's orphan
// scratch for the caller to fail over once every victim of the triggering
// event is down. Shared by node churn (one victim) and rack power loss
// (every live member of the rack).
func (s *sim) failNode(n *node, downS float64) {
	sc := s.scen
	if s.rec != nil {
		s.rec.event(s, lifecycle{kind: kindNodeFail, node: n.id, rack: rackOf(s, n), req: -1, phase: sc.cur})
		// The node's realized future ends here: counterfactual probes
		// watching its departures can never resolve.
		s.rec.nodeDown(n)
	}
	s.push(s.nowS+downS, event{kind: evNodeRecover, node: int32(n.id)})

	n.alive = false
	n.gen++
	s.lastFailed = int32(n.id)
	n.stats.Failures++
	sc.phases[sc.cur].failures++

	if s.racks != nil {
		r := &s.racks[n.rackID]
		r.accrue(s.nowS)
		r.nominalLiveW -= s.cl(n).nominalW
		if n.sprintXW > 0 {
			s.releaseSprint(r, n)
		}
		s.scheduleTrip(r)
	}

	// Collect the orphans and clear the node; the caller fails them over
	// only after every victim is out of the dispatch index, so selection
	// cannot route an orphan back onto a node dying in the same event.
	if n.busy {
		n.busy = false
		sc.orphans = append(sc.orphans, n.cur)
	}
	for n.head < len(n.queue) {
		sc.orphans = append(sc.orphans, n.queue[n.head])
		n.head++
	}
	n.queue = n.queue[:0]
	n.head = 0
	n.queuedNaiveS = 0
	n.busyUntilS = 0
	s.touch(n)
}

// failoverOrphans redispatches the orphan scratch collected by failNode:
// an orphan whose request already resolved, still has a copy in flight
// elsewhere, or whose attempt the client has abandoned (reliability
// layer) is simply let go.
func (s *sim) failoverOrphans() {
	for _, c := range s.scen.orphans {
		r := &s.reqs[c.req]
		r.copies--
		if r.fate != live || r.copies > 0 || (s.rel != nil && c.attempt != r.attempt) {
			continue
		}
		s.redispatch(c.req)
	}
}

// nodeRecover returns a failed node to service with a fresh governor at
// its class's current (ambient-adjusted) budget — the machine rebooted
// cold — and re-enters it into dispatch.
func (s *sim) nodeRecover(n *node) {
	cl := s.cl(n)
	n.alive = true
	n.gov = cl.proto
	n.gov.Idle(s.nowS) // advance the fresh clock to now; the budget is already full
	s.m.NodeRecoveries++
	if s.rec != nil {
		s.rec.event(s, lifecycle{kind: kindNodeRecover, node: n.id, rack: rackOf(s, n), req: -1, phase: s.scen.cur})
	}
	if s.racks != nil {
		r := &s.racks[n.rackID]
		r.accrue(s.nowS)
		r.nominalLiveW += cl.nominalW
		s.scheduleTrip(r)
	}
	s.touch(n)
}
