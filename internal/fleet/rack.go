// Rack power domains: the paper's §3 observation — sprinting shifts power
// budget in time rather than creating it — becomes a shared-resource
// problem at datacenter scale. Nodes in a rack draw from one provisioned
// branch circuit, so uncoordinated sprints can overload it (cf. Porto et
// al., "Making data center computations fast, but not so furious"); a
// battery/ultracapacitor buffer (the §6 supply ingredients at rack scale)
// rides through short excursions, and a coordination policy arbitrates
// which nodes may sprint while the rack has headroom.

package fleet

import (
	"fmt"
	"math"

	"sprinting/internal/governor"
	"sprinting/internal/powersource"
	"sprinting/internal/trace"
)

// sprintHorizonS is the paper's design sprint duration (a 16 W burst for
// ≈1 s): the timescale Probabilistic admission uses to convert the rack's
// buffer charge into spendable power headroom.
const sprintHorizonS = 1.0

// Coordination selects how nodes in a rack arbitrate the shared
// provisioned power budget before sprinting.
type Coordination int

// Coordination policies.
const (
	// NoCoordination disables rack power domains entirely: every node
	// sprints on its own thermal budget as if its circuit were unlimited
	// (the pre-rack behavior, and the zero value).
	NoCoordination Coordination = iota
	// Uncoordinated models racks that exist physically but not in the
	// control plane: every node sprints whenever its thermal budget
	// allows. Concurrent sprints beyond the provisioned budget drain the
	// rack's energy buffer, and when it empties the branch breaker trips,
	// forcing every node in the rack to nominal for a recovery window.
	Uncoordinated
	// TokenPermit grants at most SprintPermits concurrent sprint permits
	// per rack, sized so admitted sprints always fit the provisioned
	// budget — trips are impossible by construction.
	TokenPermit
	// Probabilistic admits each sprint request with probability
	// proportional to the rack's instantaneous power headroom (drawn from
	// the simulation's deterministic seeded stream): full headroom always
	// admits, zero headroom never does, and partial headroom gambles the
	// buffer on the fraction it can fund.
	Probabilistic
)

// Coordinations returns the active coordination policies (NoCoordination
// is the disabled state, not a member).
func Coordinations() []Coordination {
	return []Coordination{Uncoordinated, TokenPermit, Probabilistic}
}

// String names the coordination policy; ParseCoordination accepts these
// names.
func (c Coordination) String() string {
	switch c {
	case NoCoordination:
		return "none"
	case Uncoordinated:
		return "uncoordinated"
	case TokenPermit:
		return "token-permit"
	case Probabilistic:
		return "probabilistic"
	default:
		return fmt.Sprintf("coordination(%d)", int(c))
	}
}

// ParseCoordination maps a coordination name to its Coordination.
func ParseCoordination(s string) (Coordination, error) {
	for _, c := range append([]Coordination{NoCoordination}, Coordinations()...) {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("fleet: unknown coordination %q (want none|uncoordinated|token-permit|probabilistic)", s)
}

// RackBudgetW provisions a branch circuit for rackSize nodes at nominal
// draw plus full sprint headroom for the given number of concurrent
// sprinters — the one formula behind every provisioning choice in this
// repository.
func RackBudgetW(rackSize, sprinters int, node governor.Config) float64 {
	return float64(rackSize)*node.NominalPowerW +
		float64(sprinters)*(node.SprintPowerW-node.NominalPowerW)
}

// DefaultRackBudgetW provisions a rack's branch circuit with sprint
// headroom for a quarter of its nodes (at least one) — the
// oversubscribed regime where coordination matters, since a rack that
// can fund every node sprinting at once has nothing to arbitrate.
func DefaultRackBudgetW(rackSize int, node governor.Config) float64 {
	sprinters := rackSize / 4
	if sprinters < 1 {
		sprinters = 1
	}
	return RackBudgetW(rackSize, sprinters, node)
}

// DefaultRackBufferJ sizes the rack's ride-through energy buffer from the
// §6 supply parts: one NESSCAP ultracapacitor bank per rack, derated by
// the hybrid supply's converter efficiency.
func DefaultRackBufferJ() float64 {
	h := powersource.NewHybridSupply()
	return h.Ultracap.UsableEnergyJ() * h.ConverterEff
}

// defaultSprintPermits is the largest concurrent-sprint count the
// provisioned budget sustains with every other node at nominal — the K
// that makes TokenPermit trip-free by construction.
func defaultSprintPermits(rackSize int, budgetW float64, node governor.Config) int {
	extraW := node.SprintPowerW - node.NominalPowerW
	if extraW <= 0 {
		return rackSize
	}
	k := int(math.Floor((budgetW - float64(rackSize)*node.NominalPowerW) / extraW))
	if k < 0 {
		k = 0
	}
	return k
}

// RackStats summarizes one rack power domain over the simulation.
type RackStats struct {
	// ID is the rack index; Nodes its member count (the last rack of a
	// fleet not divisible by RackSize is smaller).
	ID    int
	Nodes int
	// Trips counts breaker trips; ThrottledS is the total time the rack
	// spent in post-trip recovery with every member forced to nominal.
	Trips      int
	ThrottledS float64
	// SprintRequests counts services that wanted to sprint;
	// PermitDenials those the rack refused (tripped, out of permits, or
	// losing the probabilistic draw).
	SprintRequests int
	PermitDenials  int
	// EnergyJ is the service energy drawn by the rack's member nodes.
	EnergyJ float64
}

// rack is one shared-power domain's live simulation state.
type rack struct {
	id   int
	size int
	// budgetW is the provisioned branch-circuit power; extraW the power a
	// sprinting node adds over nominal; nominalW the per-node floor draw.
	budgetW  float64
	extraW   float64
	nominalW float64
	// bufferJ is the battery/ultracap charge riding through draw above
	// the budget (starts full at bufferCapJ).
	bufferJ    float64
	bufferCapJ float64

	// sprinting counts members currently in the sprint phase of a
	// service; permits is the outstanding TokenPermit grant count.
	sprinting int
	permits   int

	// dynamic marks scenario-mode accounting: node classes may differ and
	// members may fail, so the draw is tracked as explicit sums —
	// nominalLiveW over live members and sprintExtraW over active sprint
	// phases — instead of the homogeneous size/count formula (which is
	// kept verbatim for plain simulations so historical runs stay
	// bit-identical).
	dynamic      bool
	nominalLiveW float64
	sprintExtraW float64

	// lastS is the last buffer-accounting instant. tripped marks the
	// breaker-open recovery window; tripGen invalidates stale scheduled
	// trip events after the draw balance changes.
	lastS   float64
	tripped bool
	tripGen uint64

	stats RackStats
}

// drawW is the rack's instantaneous power draw: every member at nominal
// plus the sprint excess of the members currently sprinting. Dead
// scenario nodes draw nothing.
func (r *rack) drawW() float64 {
	if r.dynamic {
		return r.nominalLiveW + r.sprintExtraW
	}
	return float64(r.size)*r.nominalW + float64(r.sprinting)*r.extraW
}

// accrue integrates the energy buffer to nowS at the current draw
// balance: surplus charges it (capped), deficit drains it. While tripped
// the buffer is frozen at empty — the breaker is open. Trip events are
// scheduled exactly at the buffer's projected zero crossing, so accrue
// never has to split an interval.
func (r *rack) accrue(nowS float64) {
	dt := nowS - r.lastS
	r.lastS = nowS
	if dt <= 0 || r.tripped {
		return
	}
	r.bufferJ = math.Min(r.bufferCapJ, math.Max(0, r.bufferJ+(r.budgetW-r.drawW())*dt))
}

// scheduleTrip invalidates any pending trip for the rack and, if the rack
// is overdrawn, schedules the breaker trip at the instant the buffer runs
// out. Called after every change to the rack's draw balance.
func (s *sim) scheduleTrip(r *rack) {
	r.tripGen++
	if r.tripped {
		return
	}
	deficitW := r.drawW() - r.budgetW
	if deficitW <= 0 {
		return
	}
	s.push(s.nowS+r.bufferJ/deficitW, event{kind: evBreakerTrip, rack: int32(r.id), gen: r.tripGen})
}

// sprintAdmitted asks the node's rack whether the service about to start
// may run at sprint width. Services that would not sprint anyway (empty
// thermal budget) bypass the rack. A denied service runs entirely at the
// sustained rate.
//
// The bypass predicate mirrors serve()'s sprint decision exactly — the
// first slice sprints iff the budget covers the whole request or exceeds
// the 1e-9 slice floor — so an admission (and any TokenPermit grant)
// pairs with exactly one sprint phase and its evSprintEnd/evSprintComplete.
func (s *sim) sprintAdmitted(n *node, workS float64) bool {
	if s.racks == nil {
		return true
	}
	cl := s.cl(n)
	if maxFullS := n.gov.MaxSprintS(cl.sprintW); maxFullS <= 1e-9 && maxFullS*cl.width < workS {
		// The node's own thermal budget is spent; serve() degrades to
		// nominal on its own, so this is not a rack sprint request.
		return true
	}
	r := &s.racks[n.rackID]
	r.accrue(s.nowS)
	r.stats.SprintRequests++
	s.m.PermitRequests++
	granted := false
	switch {
	case r.tripped:
		// Breaker recovery window: every member serves at nominal.
	case s.cfg.Coordination == Uncoordinated:
		granted = true
	case s.cfg.Coordination == TokenPermit:
		if r.permits < s.cfg.SprintPermits {
			r.permits++
			granted = true
		}
	case s.cfg.Coordination == Probabilistic:
		// Headroom counts the circuit surplus plus the buffer charge
		// spread over the paper's 1 s design-sprint horizon: a full
		// buffer admits boldly, a draining one throttles smoothly toward
		// the deterministic deny at zero surplus and zero charge. The
		// requesting node's own sprint excess is the stake it gambles.
		extraW := r.extraW
		if r.dynamic {
			extraW = cl.extraW
		}
		headroomW := r.budgetW - r.drawW() + r.bufferJ/sprintHorizonS
		granted = s.rackRng.Float64() < math.Min(1, math.Max(0, headroomW/extraW))
	}
	if !granted {
		r.stats.PermitDenials++
		s.m.PermitDenials++
		if s.rec != nil {
			s.rec.event(s, trace.Event{Kind: "permit-deny", Node: n.id, Rack: r.id, Req: -1, Phase: -1})
		}
	}
	return granted
}

// rackSprintStart charges an admitted sprint phase against the rack: the
// draw rises for sprintS seconds (the governed service's full-width
// prefix), after which the phase's end event restores it and releases any
// permit; the event carries the node's incarnation so a failure in between
// (which retires the phase immediately) stales it. A phase that ends at its
// service's completion instant pushes evSprintComplete and reports fused,
// so startService skips its evComplete. Ordering rule: the fused event is
// pushed before scheduleTrip, in the sprint-end's seq, so a trip due at that
// instant is staled by the sprint-end's own scheduleTrip exactly as with
// split events; pushed after it, the trip would fire first.
func (s *sim) rackSprintStart(n *node, sprintS, serviceS float64) (fused bool) {
	if s.racks == nil {
		return false
	}
	r := &s.racks[n.rackID]
	r.accrue(s.nowS)
	r.sprinting++
	n.sprintXW = s.cl(n).extraW
	r.sprintExtraW += n.sprintXW
	kind, endS := evSprintEnd, s.nowS+sprintS
	if fused = endS == s.nowS+serviceS; fused {
		kind = evSprintComplete
	}
	s.push(endS, event{kind: kind, rack: int32(r.id), node: int32(n.id), gen: n.gen})
	s.scheduleTrip(r)
	return fused
}

// sprintEnd retires one member's sprint phase from the rack draw. A gen
// mismatch marks a phase whose node failed mid-sprint; nodeFail already
// retired it.
func (s *sim) sprintEnd(ev event) {
	n := &s.nodes[ev.node]
	if n.gen != ev.gen {
		return
	}
	r := &s.racks[ev.rack]
	r.accrue(s.nowS)
	s.releaseSprint(r, n)
	s.scheduleTrip(r)
}

// releaseSprint removes the node's active sprint phase from the rack draw
// and returns any TokenPermit grant; the caller has already accrued the
// buffer and re-projects the trip afterwards.
func (s *sim) releaseSprint(r *rack, n *node) {
	r.sprinting--
	r.sprintExtraW -= n.sprintXW
	n.sprintXW = 0
	if s.cfg.Coordination == TokenPermit {
		r.permits--
	}
}

// breakerTrip opens the rack's branch breaker: the buffer is spent, every
// new service in the rack is forced to nominal until the reset, and
// sprints already in flight finish on the energy they committed (the
// trip's service-start granularity; see the package comment in fleet.go).
func (s *sim) breakerTrip(ev event) {
	r := &s.racks[ev.rack]
	if ev.gen != r.tripGen || r.tripped {
		return // the draw balance changed since this trip was projected
	}
	r.accrue(s.nowS)
	r.tripped = true
	r.bufferJ = 0
	r.stats.Trips++
	s.m.BreakerTrips++
	if s.rec != nil {
		s.rec.event(s, trace.Event{Kind: "breaker-trip", Node: -1, Rack: r.id, Req: -1, Phase: -1, DurS: s.cfg.BreakerRecoveryS})
	}
	if s.scen != nil {
		s.scen.acc[s.scen.cur].trips++
	}
	s.push(s.nowS+s.cfg.BreakerRecoveryS, event{kind: evBreakerReset, rack: int32(r.id)})
}

// breakerReset closes the breaker after the recovery window: the rack
// resumes sprint admission with an empty buffer that recharges from
// circuit surplus.
func (s *sim) breakerReset(ev event) {
	r := &s.racks[ev.rack]
	r.accrue(s.nowS)
	r.tripped = false
	r.stats.ThrottledS += s.cfg.BreakerRecoveryS
	if s.rec != nil {
		s.rec.event(s, trace.Event{Kind: "breaker-reset", Node: -1, Rack: r.id, Req: -1, Phase: -1})
	}
	s.scheduleTrip(r)
}

// rackFail is the evRackFail handler: a correlated power loss downs every
// live member of one churn-chosen rack at once, each through the same
// incarnation/failover machinery as node churn (failNode), and they all
// recover at one common instant. Members that were already down keep
// their own repair clocks — a power event does not heal an earlier
// failure. Orphans from every victim are collected first and failed over
// only once the whole rack is out of the dispatch index, so no copy is
// redispatched onto a sibling dying in the same event. Scenario mode with
// rack churn only.
func (s *sim) rackFail() {
	sc := s.scen
	victim := sc.rackChurnRng.Intn(len(s.racks))
	if next := s.nowS + sc.rackChurnRng.ExpFloat64()*sc.spec.Churn.RackMTBFS; next <= sc.endS {
		s.push(next, event{kind: evRackFail})
	}
	downS := math.Max(1e-3, sc.rackChurnRng.ExpFloat64()*sc.spec.Churn.RackMeanDowntimeS)
	if s.rec != nil {
		s.rec.event(s, trace.Event{Kind: "rack-fail", Node: -1, Rack: victim, Req: -1, Phase: sc.cur, DurS: downS})
	}
	s.m.RackFailures++
	sc.orphans = sc.orphans[:0]
	for i := range s.nodes {
		n := &s.nodes[i]
		if int(n.rackID) != victim || !n.alive {
			continue
		}
		s.failNode(n, downS)
	}
	s.failoverOrphans()
}
