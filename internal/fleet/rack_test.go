package fleet

import (
	"context"
	"math"
	"reflect"
	"testing"
)

// rackContrast returns the regime where rack coordination earns its keep:
// one 16-node rack provisioned for a single concurrent sprinter (the §3
// time-shifted budget made literal — average sprint demand at this load
// slightly exceeds the circuit), overloaded past sustained capacity so
// trips are frequent and recovery windows hurt.
func rackContrast(c Coordination) Config {
	cfg := DefaultConfig(SprintAware)
	cfg.Nodes = 16
	cfg.Requests = 4000
	cfg.Seed = 1
	cfg.Coordination = c
	cfg.RackSize = 16
	cfg.RackPowerBudgetW = RackBudgetW(16, 1, cfg.Node)
	cfg.BreakerRecoveryS = 4
	cfg.ArrivalRatePerS = 1.2 * float64(cfg.Nodes) / cfg.MeanWorkS
	return cfg
}

func TestRackDeterminism(t *testing.T) {
	for _, c := range Coordinations() {
		a := mustSimulate(t, rackContrast(c))
		b := mustSimulate(t, rackContrast(c))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two runs of the same config differ:\n%+v\n%+v", c, a, b)
		}
	}
}

// TestUncoordinatedTripsTokenPermitDoesNot is the subsystem's headline
// contrast: concurrent unpermitted sprints overload the branch circuit,
// drain the buffer, and trip the breaker — and the recovery windows cost
// more tail latency than token-permit's up-front denials. Token permits
// never trip by construction (admitted sprints always fit the budget).
func TestUncoordinatedTripsTokenPermitDoesNot(t *testing.T) {
	un := mustSimulate(t, rackContrast(Uncoordinated))
	tok := mustSimulate(t, rackContrast(TokenPermit))
	if un.BreakerTrips == 0 || un.RackThrottledS == 0 {
		t.Fatalf("overloaded uncoordinated rack should trip: trips=%d throttled=%.1f s",
			un.BreakerTrips, un.RackThrottledS)
	}
	if tok.BreakerTrips != 0 || tok.RackThrottledS != 0 {
		t.Errorf("token-permit must never trip: trips=%d throttled=%.1f s",
			tok.BreakerTrips, tok.RackThrottledS)
	}
	if tok.P99S >= un.P99S {
		t.Errorf("token-permit p99 %.3f s should beat the tripped uncoordinated rack's %.3f s",
			tok.P99S, un.P99S)
	}
	if tok.PermitDenials == 0 {
		t.Error("a one-sprinter budget must deny permits under overload")
	}
	// The trip recovery windows also deny sprints, so uncoordinated pays
	// twice: denials during recovery plus the throttled queues.
	if un.PermitDenials == 0 {
		t.Error("recovery windows should record denied sprint requests")
	}
}

// TestProbabilisticSitsBetween: headroom-proportional admission throttles
// smoothly — far fewer denials than token-permit's hard cap — and backs
// off as the buffer drains instead of riding it into a trip.
func TestProbabilisticSitsBetween(t *testing.T) {
	un := mustSimulate(t, rackContrast(Uncoordinated))
	tok := mustSimulate(t, rackContrast(TokenPermit))
	prob := mustSimulate(t, rackContrast(Probabilistic))
	if prob.PermitDenialRate >= tok.PermitDenialRate {
		t.Errorf("probabilistic denial rate %.3f should be below token-permit's hard-cap %.3f",
			prob.PermitDenialRate, tok.PermitDenialRate)
	}
	if prob.BreakerTrips > un.BreakerTrips {
		t.Errorf("buffer-aware backoff cannot trip more than uncoordinated: %d > %d",
			prob.BreakerTrips, un.BreakerTrips)
	}
	if prob.P99S >= un.P99S {
		t.Errorf("probabilistic p99 %.3f s should beat the tripped uncoordinated rack's %.3f s",
			prob.P99S, un.P99S)
	}
}

// TestSprintEndTripTieAtCompletion pins the one ordering rule of the
// fused sprint-end/completion event. A lone uncoordinated node's 16 W
// sprint overdraws an 8 W rack budget by 8 W, so its 8 J buffer is
// projected to run out 1 s later: exactly at the service's completion,
// which is also the sprint phase's end. The phase's end re-projects the
// trip (no deficit remains), staling it, so the breaker never trips. A
// fused event pushed after the trip instead of in the sprint-end's place
// would let the trip fire first, at both requests.
func TestSprintEndTripTieAtCompletion(t *testing.T) {
	cfg := DefaultConfig(SprintAware)
	cfg.Nodes = 1
	cfg.Coordination = Uncoordinated
	cfg.RackSize = 1
	cfg.RackPowerBudgetW = 8
	cfg.RackBufferJ = 8
	rows := []TraceRequest{{ArrivalS: 10, WorkS: 16}, {ArrivalS: 100, WorkS: 16}}
	m, _, err := Run(context.Background(), Spec{Config: cfg, Replay: rows})
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed != len(rows) {
		t.Fatalf("completed %d of %d requests", m.Completed, len(rows))
	}
	if m.BreakerTrips != 0 {
		t.Errorf("breaker tripped %d times; a trip due at the sprint phase's end must be staled by it", m.BreakerTrips)
	}
}

// TestRackAccounting: racks partition the fleet (a 20-node fleet in racks
// of 8 is 8+8+4), per-rack energy sums to the fleet total, and per-node
// rack assignments agree with the partition.
func TestRackAccounting(t *testing.T) {
	cfg := rackContrast(Uncoordinated)
	cfg.Nodes = 20
	cfg.RackSize = 8
	cfg.RackPowerBudgetW = 0 // re-derive the default for this rack size
	cfg = cfg.withDefaults()
	m := mustSimulate(t, cfg)
	if len(m.Racks) != 3 {
		t.Fatalf("20 nodes in racks of 8 should make 3 racks, got %d", len(m.Racks))
	}
	wantSizes := []int{8, 8, 4}
	rackJ := 0.0
	for i, r := range m.Racks {
		if r.ID != i || r.Nodes != wantSizes[i] {
			t.Errorf("rack %d: got ID %d with %d nodes, want %d nodes", i, r.ID, r.Nodes, wantSizes[i])
		}
		rackJ += r.EnergyJ
	}
	if math.Abs(rackJ-m.TotalEnergyJ) > 1e-9 {
		t.Errorf("per-rack energy %.3f J does not add up to fleet total %.3f J", rackJ, m.TotalEnergyJ)
	}
	for _, n := range m.Nodes {
		if n.Rack != n.ID/8 {
			t.Errorf("node %d assigned to rack %d, want %d", n.ID, n.Rack, n.ID/8)
		}
	}
}

// TestRackBufferAt: the buffer projection the recorder samples is the
// value accrue stores, in every regime of the ledger, and projecting
// leaves the rack untouched.
func TestRackBufferAt(t *testing.T) {
	// A rack of 8 nominal watts under a 20 W budget: 12 W of surplus, or
	// 3 W of deficit with one 15 W sprint excess on top.
	base := rack{budgetW: 20, bufferCapJ: 50, nominalLiveW: 8, lastS: 10}
	cases := []struct {
		name    string
		bufferJ float64
		sprintW float64
		tripped bool
		atS     float64
		want    float64
	}{
		{"surplus charges", 10, 0, false, 12, 34},
		{"deficit drains", 10, 15, false, 12, 4},
		{"deficit clamps at empty", 10, 15, false, 20, 0},
		{"surplus caps at full", 40, 0, false, 12, 50},
		{"tripped is frozen", 0, 0, true, 12, 0},
		{"at lastS", 10, 15, false, 10, 10},
		{"before lastS", 10, 0, false, 9, 10},
	}
	for _, c := range cases {
		r := base
		r.bufferJ, r.sprintExtraW, r.tripped = c.bufferJ, c.sprintW, c.tripped
		before := r
		if got := r.bufferAt(c.atS); got != c.want {
			t.Errorf("%s: bufferAt(%g) = %g, want %g", c.name, c.atS, got, c.want)
		}
		if r != before {
			t.Errorf("%s: bufferAt changed the rack: %+v, was %+v", c.name, r, before)
		}
		r.accrue(c.atS)
		if r.bufferJ != c.want || r.lastS != c.atS {
			t.Errorf("%s: accrue(%g) stored buffer %g at %g, want %g at %g", c.name, c.atS, r.bufferJ, r.lastS, c.want, c.atS)
		}
	}
}

// TestNarrowSprintAsksRack pins rack admission to the sprint
// Governor.Serve will actually run. A default node (16 W sprint, ≈1.07 W
// drain) with 7.5 nJ of budget left can sprint at the class's 16 W for
// only ≈0.5 ns, under the governor's 1 ns slice floor, but a workload's
// 1-wide request sprints at ≈1.94 W for ≈8.6 ns. The rack must be asked
// for that sprint: bypassing it would let the phase's end return a token
// permit never granted.
func TestNarrowSprintAsksRack(t *testing.T) {
	cfg := DefaultConfig(SprintAware)
	cfg.Nodes = 1
	cfg.Requests = 1
	cfg.Coordination = TokenPermit
	cfg.RackSize = 1
	cfg = cfg.withDefaults()
	if err := (Spec{Config: cfg}).Validate(); err != nil {
		t.Fatal(err)
	}
	s := newSim(cfg, nil, nil, &workloadRun{disc: wlFIFO})
	s.reqs = []request{{workS: 1, doneS: -1, firstNode: -1, width: 1}}
	n := &s.nodes[0]
	cl := s.cl(n)
	n.gov.RecordSprint(cl.sprintW, n.gov.MaxSprintS(cl.sprintW)) // spend the whole budget
	n.gov.Idle(7.5e-9 / n.gov.DrainW())                          // refill 7.5 nJ
	narrowW := cl.nominalW + cl.extraW/cl.width
	if full, narrow := n.gov.MaxSprintS(cl.sprintW), n.gov.MaxSprintS(narrowW); full > 1e-9 || narrow <= 1e-9 {
		t.Fatalf("sprint windows %.3g s at the class power and %.3g s at the narrow power; want them either side of 1 ns", full, narrow)
	}
	s.nowS = n.gov.Now()
	s.startService(n, reqCopy{req: 0})
	for s.events.len() > 0 {
		var ev event
		s.nowS, ev = s.events.pop()
		s.handle(ev)
	}
	r := &s.racks[0]
	if r.stats.SprintRequests != 1 || r.sprinting != 0 || r.permits != 0 {
		t.Errorf("rack saw %d sprint requests and ended with %d sprinting / %d permits; want 1, 0 and 0",
			r.stats.SprintRequests, r.sprinting, r.permits)
	}
}

// TestTinyWorkTakesNoPermit: a replay row whose work is under the
// governor's 1e-12 s completion floor never sprints, so it must not ask
// the rack. It once did: the grant was never returned, and finish()
// panicked on the leaked token permit.
func TestTinyWorkTakesNoPermit(t *testing.T) {
	cfg := DefaultConfig(SprintAware)
	cfg.Nodes = 2
	cfg.Coordination = TokenPermit
	cfg.RackSize = 2
	rows := []TraceRequest{{ArrivalS: 0, WorkS: 1e-13}, {ArrivalS: 1, WorkS: 1}}
	m, _, err := Run(context.Background(), Spec{Config: cfg, Replay: rows})
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed != 2 || m.PermitRequests != 1 {
		t.Errorf("completed %d requests with %d permit requests; want 2 and 1", m.Completed, m.PermitRequests)
	}
}

// TestNoCoordinationHasNoRackState: the zero-value Coordination keeps the
// pre-rack behavior — no racks, no trips, no permit traffic.
func TestNoCoordinationHasNoRackState(t *testing.T) {
	m := mustSimulate(t, highLoad(SprintAware))
	if m.Racks != nil || m.BreakerTrips != 0 || m.PermitRequests != 0 || m.PermitDenials != 0 {
		t.Errorf("NoCoordination leaked rack state: %+v", m)
	}
}

// TestDropAttributionEveryPolicy is the regression test for unattributed
// fleet-wide drops: when scanBest finds no eligible node the drop is
// charged to the node the request would have joined, so per-node drops
// always sum to the fleet total under every policy.
func TestDropAttributionEveryPolicy(t *testing.T) {
	for _, p := range Policies() {
		cfg := DefaultConfig(p)
		cfg.Nodes = 4
		cfg.Requests = 2000
		cfg.QueueCap = 2
		cfg.ArrivalRatePerS = 2 * float64(cfg.Nodes) / cfg.MeanWorkS // 2× overload
		m := mustSimulate(t, cfg)
		if m.Dropped == 0 {
			t.Fatalf("%s: 2× overload into 2-deep queues should drop requests", p)
		}
		sum := 0
		for _, n := range m.Nodes {
			sum += n.Dropped
		}
		if sum != m.Dropped {
			t.Errorf("%s: per-node drops %d != fleet drops %d", p, sum, m.Dropped)
		}
	}
}

// TestCoordinationRoundTrip mirrors the policy name round-trip.
func TestCoordinationRoundTrip(t *testing.T) {
	for _, c := range append([]Coordination{NoCoordination}, Coordinations()...) {
		got, err := ParseCoordination(c.String())
		if err != nil || got != c {
			t.Errorf("ParseCoordination(%q) = %v, %v", c.String(), got, err)
		}
	}
	if _, err := ParseCoordination("bogus"); err == nil {
		t.Error("bogus coordination should not parse")
	}
}

func TestRackValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Coordination = Coordination(99) },
		func(c *Config) { c.RackSize = -1 },
		func(c *Config) { c.RackPowerBudgetW = 0.5 * float64(c.RackSize) * c.Node.NominalPowerW },
		func(c *Config) { c.RackBufferJ = -1 },
		func(c *Config) { c.SprintPermits = -1 },
		func(c *Config) { c.BreakerRecoveryS = -1 },
	}
	for i, mutate := range bad {
		cfg := rackContrast(TokenPermit).withDefaults()
		mutate(&cfg)
		if (Spec{Config: cfg}).Validate() == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	for _, c := range Coordinations() {
		if err := (Spec{Config: rackContrast(c)}).Validate(); err != nil {
			t.Errorf("contrast %s config invalid: %v", c, err)
		}
	}
}
