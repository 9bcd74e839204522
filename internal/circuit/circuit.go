// Package circuit is a transient linear-circuit simulator built on modified
// nodal analysis (MNA) with trapezoidal integration — the SPICE-equivalent
// substrate for the paper's Section 5 power-delivery study.
//
// Supported elements: resistors, capacitors, inductors, independent voltage
// sources, and time-varying current sources. Reactive elements are replaced
// per timestep by their trapezoidal companion models (a conductance plus a
// history current source), so each step solves a constant linear system;
// the LU factorization is computed once per timestep size and reused, making
// a step O(n²) in the node count.
package circuit

import (
	"fmt"

	"sprinting/internal/linalg"
)

// Node identifies a circuit node. Ground is node 0 and is always present.
type Node int

// Ground is the reference node, fixed at zero volts.
const Ground Node = 0

// Waveform is a time-varying source value: f(t) in amperes (current
// sources) or volts (voltage sources).
type Waveform func(t float64) float64

// DC returns a constant waveform.
func DC(v float64) Waveform { return func(float64) float64 { return v } }

type resistor struct {
	a, b Node
	g    float64 // conductance, S
}

type capacitor struct {
	a, b Node
	c    float64
	// trapezoidal state
	vPrev, iPrev float64
}

type inductor struct {
	a, b Node
	l    float64
	// trapezoidal state
	vPrev, iPrev float64
}

type vsource struct {
	pos, neg Node
	v        Waveform
	branch   int // index of its branch-current unknown
}

type isource struct {
	from, to Node // conventional current flows from `from` through the source to `to`
	i        Waveform
}

// Circuit is a netlist under construction. Build elements first, then call
// Transient to obtain a stepper. Not safe for concurrent use.
type Circuit struct {
	names []string

	resistors  []resistor
	capacitors []capacitor
	inductors  []inductor
	vsources   []vsource
	isources   []isource
}

// New returns an empty circuit containing only the ground node.
func New() *Circuit {
	return &Circuit{names: []string{"gnd"}}
}

// Node adds a named node and returns its handle.
func (c *Circuit) Node(name string) Node {
	c.names = append(c.names, name)
	return Node(len(c.names) - 1)
}

func (c *Circuit) check(n Node) {
	if n < 0 || int(n) >= len(c.names) {
		panic(fmt.Sprintf("circuit: invalid node %d", n))
	}
}

// R adds a resistor of the given ohms between a and b.
func (c *Circuit) R(a, b Node, ohms float64) {
	c.check(a)
	c.check(b)
	if ohms <= 0 {
		panic(fmt.Sprintf("circuit: resistance must be positive, got %g", ohms))
	}
	c.resistors = append(c.resistors, resistor{a: a, b: b, g: 1 / ohms})
}

// C adds a capacitor of the given farads between a and b (initially
// uncharged).
func (c *Circuit) C(a, b Node, farads float64) {
	c.check(a)
	c.check(b)
	if farads <= 0 {
		panic(fmt.Sprintf("circuit: capacitance must be positive, got %g", farads))
	}
	c.capacitors = append(c.capacitors, capacitor{a: a, b: b, c: farads})
}

// L adds an inductor of the given henries between a and b (initial current
// zero).
func (c *Circuit) L(a, b Node, henries float64) {
	c.check(a)
	c.check(b)
	if henries <= 0 {
		panic(fmt.Sprintf("circuit: inductance must be positive, got %g", henries))
	}
	c.inductors = append(c.inductors, inductor{a: a, b: b, l: henries})
}

// V adds an independent voltage source: v(pos) − v(neg) = w(t).
func (c *Circuit) V(pos, neg Node, w Waveform) {
	c.check(pos)
	c.check(neg)
	if w == nil {
		panic("circuit: nil voltage waveform")
	}
	c.vsources = append(c.vsources, vsource{pos: pos, neg: neg, v: w})
}

// I adds an independent current source driving w(t) amperes from node
// `from` to node `to` (i.e. the source pulls current out of `from`'s
// external network and pushes it into `to`'s). A load drawing current from a
// supply rail P to a ground rail G is I(P, G, load).
func (c *Circuit) I(from, to Node, w Waveform) {
	c.check(from)
	c.check(to)
	if w == nil {
		panic("circuit: nil current waveform")
	}
	c.isources = append(c.isources, isource{from: from, to: to, i: w})
}

// Transient prepares a transient simulation with timestep dt starting at
// t = 0 with all capacitors discharged and inductors relaxed, then
// performing an operating-point-free trapezoidal march. Element state is
// owned by the returned Sim; the Circuit may not be modified afterwards.
func (c *Circuit) Transient(dt float64) (*Sim, error) {
	s := &Sim{
		ckt: c,
		n:   len(c.names),
		m:   len(c.vsources),
	}
	for i := range c.vsources {
		c.vsources[i].branch = i
	}
	s.x = make([]float64, s.n-1+s.m)
	s.rhs = make([]float64, s.n-1+s.m)
	if err := s.rebuild(dt); err != nil {
		return nil, err
	}
	return s, nil
}

// Sim is a running transient analysis.
type Sim struct {
	ckt *Circuit
	n   int // node count incl. ground
	m   int // voltage-source branch count

	dt   float64
	t    float64
	lu   *linalg.LU
	x    []float64 // solution: node voltages (1..n-1) then branch currents
	rhs  []float64
	caps []capacitor // simulation-owned copies with state
	inds []inductor
}

// unknown index of node voltage (ground excluded).
func (s *Sim) vi(n Node) int { return int(n) - 1 }

// rebuild assembles and factors the MNA matrix for timestep dt, preserving
// element history state across a timestep change.
func (s *Sim) rebuild(dt float64) error {
	if dt <= 0 {
		return fmt.Errorf("circuit: timestep must be positive, got %g", dt)
	}
	if s.caps == nil {
		s.caps = append([]capacitor(nil), s.ckt.capacitors...)
		s.inds = append([]inductor(nil), s.ckt.inductors...)
	}
	s.dt = dt
	dim := s.n - 1 + s.m
	if dim == 0 {
		return fmt.Errorf("circuit: empty circuit")
	}
	a := linalg.NewMatrix(dim)
	stampG := func(x, y Node, g float64) {
		if x != Ground {
			a.Add(s.vi(x), s.vi(x), g)
		}
		if y != Ground {
			a.Add(s.vi(y), s.vi(y), g)
		}
		if x != Ground && y != Ground {
			a.Add(s.vi(x), s.vi(y), -g)
			a.Add(s.vi(y), s.vi(x), -g)
		}
	}
	for _, r := range s.ckt.resistors {
		stampG(r.a, r.b, r.g)
	}
	for i := range s.caps {
		stampG(s.caps[i].a, s.caps[i].b, 2*s.caps[i].c/dt)
	}
	for i := range s.inds {
		stampG(s.inds[i].a, s.inds[i].b, dt/(2*s.inds[i].l))
	}
	for _, vs := range s.ckt.vsources {
		row := s.n - 1 + vs.branch
		if vs.pos != Ground {
			a.Add(s.vi(vs.pos), row, 1)
			a.Add(row, s.vi(vs.pos), 1)
		}
		if vs.neg != Ground {
			a.Add(s.vi(vs.neg), row, -1)
			a.Add(row, s.vi(vs.neg), -1)
		}
	}
	lu, err := linalg.Factor(a)
	if err != nil {
		return fmt.Errorf("circuit: MNA matrix singular (floating node?): %w", err)
	}
	s.lu = lu
	return nil
}

// SetDt changes the timestep mid-simulation (used for two-phase transients:
// fine steps through the activation edge, coarse steps to settling).
func (s *Sim) SetDt(dt float64) error { return s.rebuild(dt) }

// InitDC replaces the default cold start (all capacitors discharged) with
// the DC operating point at t = 0: capacitors open, inductors shorted, and
// sources at their t = 0 values. This lets transients begin from steady
// state — e.g. a power grid with rails already charged — instead of
// simulating the power-up.
func (s *Sim) InitDC() error {
	const shortOhms = 1e-6
	dim := s.n - 1 + s.m
	a := linalg.NewMatrix(dim)
	stampG := func(x, y Node, g float64) {
		if x != Ground {
			a.Add(s.vi(x), s.vi(x), g)
		}
		if y != Ground {
			a.Add(s.vi(y), s.vi(y), g)
		}
		if x != Ground && y != Ground {
			a.Add(s.vi(x), s.vi(y), -g)
			a.Add(s.vi(y), s.vi(x), -g)
		}
	}
	for _, r := range s.ckt.resistors {
		stampG(r.a, r.b, r.g)
	}
	for i := range s.inds {
		stampG(s.inds[i].a, s.inds[i].b, 1/shortOhms)
	}
	// Capacitors open: tie otherwise-floating cap terminals weakly to
	// ground so the matrix stays nonsingular; the leak is negligible
	// against real conductances.
	for i := range s.caps {
		stampG(s.caps[i].a, Ground, 1e-12)
		stampG(s.caps[i].b, Ground, 1e-12)
	}
	rhs := make([]float64, dim)
	for _, is := range s.ckt.isources {
		v := is.i(0)
		if is.from != Ground {
			rhs[s.vi(is.from)] -= v
		}
		if is.to != Ground {
			rhs[s.vi(is.to)] += v
		}
	}
	for _, vs := range s.ckt.vsources {
		row := s.n - 1 + vs.branch
		if vs.pos != Ground {
			a.Add(s.vi(vs.pos), row, 1)
			a.Add(row, s.vi(vs.pos), 1)
		}
		if vs.neg != Ground {
			a.Add(s.vi(vs.neg), row, -1)
			a.Add(row, s.vi(vs.neg), -1)
		}
		rhs[row] = vs.v(0)
	}
	lu, err := linalg.Factor(a)
	if err != nil {
		return fmt.Errorf("circuit: DC operating point singular: %w", err)
	}
	x := make([]float64, dim)
	lu.Solve(rhs, x)
	nodeV := func(n Node) float64 {
		if n == Ground {
			return 0
		}
		return x[s.vi(n)]
	}
	for i := range s.caps {
		cp := &s.caps[i]
		cp.vPrev = nodeV(cp.a) - nodeV(cp.b)
		cp.iPrev = 0
	}
	for i := range s.inds {
		in := &s.inds[i]
		in.iPrev = (nodeV(in.a) - nodeV(in.b)) / shortOhms
		in.vPrev = 0
	}
	copy(s.x, x)
	return nil
}

// Time returns the current simulation time in seconds.
func (s *Sim) Time() float64 { return s.t }

// V returns the voltage at a node for the most recent step.
func (s *Sim) V(n Node) float64 {
	s.ckt.check(n)
	if n == Ground {
		return 0
	}
	return s.x[s.vi(n)]
}

// Step advances the simulation by one timestep and returns the new time.
func (s *Sim) Step() float64 {
	tNext := s.t + s.dt
	for i := range s.rhs {
		s.rhs[i] = 0
	}
	// Capacitor companion: conductance G=2C/dt already stamped; history
	// current Ieq = G·v_prev + i_prev injected into node a (out of b).
	for i := range s.caps {
		cp := &s.caps[i]
		g := 2 * cp.c / s.dt
		ieq := g*cp.vPrev + cp.iPrev
		if cp.a != Ground {
			s.rhs[s.vi(cp.a)] += ieq
		}
		if cp.b != Ground {
			s.rhs[s.vi(cp.b)] -= ieq
		}
	}
	// Inductor companion: G=dt/2L; history Ieq = i_prev + G·v_prev flows
	// a→b, so it leaves node a.
	for i := range s.inds {
		in := &s.inds[i]
		g := s.dt / (2 * in.l)
		ieq := in.iPrev + g*in.vPrev
		if in.a != Ground {
			s.rhs[s.vi(in.a)] -= ieq
		}
		if in.b != Ground {
			s.rhs[s.vi(in.b)] += ieq
		}
	}
	// Independent sources evaluated at the new time.
	for _, is := range s.ckt.isources {
		v := is.i(tNext)
		if is.from != Ground {
			s.rhs[s.vi(is.from)] -= v
		}
		if is.to != Ground {
			s.rhs[s.vi(is.to)] += v
		}
	}
	for _, vs := range s.ckt.vsources {
		s.rhs[s.n-1+vs.branch] = vs.v(tNext)
	}
	s.lu.Solve(s.rhs, s.x)
	// Update companion histories from the new solution.
	nodeV := func(n Node) float64 {
		if n == Ground {
			return 0
		}
		return s.x[s.vi(n)]
	}
	for i := range s.caps {
		cp := &s.caps[i]
		g := 2 * cp.c / s.dt
		vNew := nodeV(cp.a) - nodeV(cp.b)
		iNew := g*vNew - (g*cp.vPrev + cp.iPrev)
		cp.vPrev, cp.iPrev = vNew, iNew
	}
	for i := range s.inds {
		in := &s.inds[i]
		g := s.dt / (2 * in.l)
		vNew := nodeV(in.a) - nodeV(in.b)
		iNew := g*vNew + in.iPrev + g*in.vPrev
		in.vPrev, in.iPrev = vNew, iNew
	}
	s.t = tNext
	return s.t
}

// RunUntil steps the simulation until time t, invoking observe (if non-nil)
// after every step.
func (s *Sim) RunUntil(t float64, observe func(*Sim)) {
	for s.t < t-s.dt/2 {
		s.Step()
		if observe != nil {
			observe(s)
		}
	}
}

// PulseRamp returns a waveform that is 0 before t0, ramps linearly to
// amplitude over rise seconds, and holds amplitude afterwards. A rise of 0
// is treated as an ideal step at t0.
func PulseRamp(t0, rise, amplitude float64) Waveform {
	return func(t float64) float64 {
		switch {
		case t < t0:
			return 0
		case rise <= 0 || t >= t0+rise:
			return amplitude
		default:
			return amplitude * (t - t0) / rise
		}
	}
}
