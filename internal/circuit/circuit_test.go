package circuit

import (
	"math"
	"testing"
)

// TestRCCharging checks the trapezoidal integrator against the analytic
// step response of an RC low-pass: v(t) = V·(1 − e^(−t/RC)).
func TestRCCharging(t *testing.T) {
	c := New()
	in := c.Node("in")
	out := c.Node("out")
	c.V(in, Ground, DC(1.0))
	c.R(in, out, 1000)     // 1 kΩ
	c.C(out, Ground, 1e-6) // 1 µF → τ = 1 ms
	sim, err := c.Transient(1e-6)
	if err != nil {
		t.Fatal(err)
	}
	tau := 1e-3
	for _, checkpoint := range []float64{0.5e-3, 1e-3, 2e-3, 5e-3} {
		sim.RunUntil(checkpoint, nil)
		want := 1 - math.Exp(-sim.Time()/tau)
		got := sim.V(out)
		if math.Abs(got-want) > 2e-3 {
			t.Errorf("t=%v: v = %.5f, want %.5f", sim.Time(), got, want)
		}
	}
}

// TestRLCurrentRise checks an RL circuit: i(t) = (V/R)(1 − e^(−tR/L)),
// observed via the resistor voltage drop.
func TestRLCurrentRise(t *testing.T) {
	c := New()
	in := c.Node("in")
	mid := c.Node("mid")
	c.V(in, Ground, DC(1.0))
	c.R(in, mid, 10)       // 10 Ω
	c.L(mid, Ground, 1e-3) // 1 mH → τ = 0.1 ms
	sim, err := c.Transient(1e-7)
	if err != nil {
		t.Fatal(err)
	}
	tau := 1e-4
	sim.RunUntil(2e-4, nil)
	wantI := 0.1 * (1 - math.Exp(-sim.Time()/tau))
	gotI := (1.0 - sim.V(mid)) / 10
	if math.Abs(gotI-wantI) > 1e-3 {
		t.Errorf("i = %.6f, want %.6f", gotI, wantI)
	}
}

// TestVoltageDivider checks the DC solution of a resistive divider after a
// settling run.
func TestVoltageDivider(t *testing.T) {
	c := New()
	in := c.Node("in")
	mid := c.Node("mid")
	c.V(in, Ground, DC(12))
	c.R(in, mid, 2000)
	c.R(mid, Ground, 1000)
	sim, err := c.Transient(1e-6)
	if err != nil {
		t.Fatal(err)
	}
	sim.Step()
	if got := sim.V(mid); math.Abs(got-4) > 1e-9 {
		t.Errorf("divider = %v, want 4", got)
	}
}

// TestCurrentSourceIntoRC: a DC current source into R ∥ C settles at I·R.
func TestCurrentSourceIntoRC(t *testing.T) {
	c := New()
	n := c.Node("n")
	c.I(Ground, n, DC(0.5))
	c.R(n, Ground, 100)
	c.C(n, Ground, 1e-9)
	sim, err := c.Transient(1e-8)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(2e-6, nil) // ≫ τ = 100 ns
	if got := sim.V(n); math.Abs(got-50) > 0.01 {
		t.Errorf("v = %v, want 50", got)
	}
}

// TestLCRingingFrequency: an underdamped series RLC rings at
// f ≈ 1/(2π√(LC)); verify the first trough location of the capacitor
// voltage (half a period after the step).
func TestLCRingingFrequency(t *testing.T) {
	c := New()
	in := c.Node("in")
	mid := c.Node("mid")
	out := c.Node("out")
	c.V(in, Ground, DC(1))
	c.R(in, mid, 0.5) // light damping
	c.L(mid, out, 1e-6)
	c.C(out, Ground, 1e-9) // f0 ≈ 5.03 MHz, period ≈ 199 ns
	sim, err := c.Transient(2e-10)
	if err != nil {
		t.Fatal(err)
	}
	period := 2 * math.Pi * math.Sqrt(1e-6*1e-9)
	// Find the first local maximum of v(out): at ~period/2 the voltage
	// overshoots to near 2 V.
	var bestT, bestV float64
	sim.RunUntil(1.2*period, func(s *Sim) {
		if v := s.V(out); v > bestV {
			bestV, bestT = v, s.Time()
		}
	})
	if math.Abs(bestT-period/2) > 0.1*period {
		t.Errorf("overshoot peak at %v s, want ≈ %v", bestT, period/2)
	}
	if bestV < 1.5 || bestV > 2.05 {
		t.Errorf("overshoot peak %v V, want ≈2 V (lightly damped)", bestV)
	}
}

// TestSourceCurrent: branch current through the source of a simple loop.
func TestSourceCurrent(t *testing.T) {
	c := New()
	in := c.Node("in")
	c.V(in, Ground, DC(10))
	c.R(in, Ground, 5)
	sim, err := c.Transient(1e-6)
	if err != nil {
		t.Fatal(err)
	}
	sim.Step()
	if got := sim.SourceCurrent(0); math.Abs(got-2) > 1e-9 {
		t.Errorf("source current = %v, want 2", got)
	}
}

// TestSetDtPreservesState: changing timestep mid-run must not discontinue
// capacitor state.
func TestSetDtPreservesState(t *testing.T) {
	build := func() (*Circuit, Node) {
		c := New()
		in := c.Node("in")
		out := c.Node("out")
		c.V(in, Ground, DC(1))
		c.R(in, out, 1000)
		c.C(out, Ground, 1e-6)
		return c, out
	}
	// Reference: uniform fine steps.
	cRef, outRef := build()
	simRef, err := cRef.Transient(1e-6)
	if err != nil {
		t.Fatal(err)
	}
	simRef.RunUntil(2e-3, nil)

	// Two-phase: fine then coarse.
	c2, out2 := build()
	sim2, err := c2.Transient(1e-6)
	if err != nil {
		t.Fatal(err)
	}
	sim2.RunUntil(0.5e-3, nil)
	if err := sim2.SetDt(1e-5); err != nil {
		t.Fatal(err)
	}
	sim2.RunUntil(2e-3, nil)

	if d := math.Abs(simRef.V(outRef) - sim2.V(out2)); d > 1e-3 {
		t.Errorf("two-phase result differs from uniform by %v", d)
	}
}

func TestPulseRamp(t *testing.T) {
	w := PulseRamp(1.0, 2.0, 10)
	cases := []struct{ t, want float64 }{
		{0.5, 0}, {1.0, 0}, {2.0, 5}, {3.0, 10}, {4.0, 10},
	}
	for _, tc := range cases {
		if got := w(tc.t); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("w(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
	step := PulseRamp(1.0, 0, 3)
	if step(0.999) != 0 || step(1.0) != 3 {
		t.Error("zero-rise ramp should be an ideal step")
	}
}

func TestInvalidElements(t *testing.T) {
	c := New()
	n := c.Node("n")
	mustPanic(t, func() { c.R(n, Ground, 0) })
	mustPanic(t, func() { c.C(n, Ground, -1) })
	mustPanic(t, func() { c.L(n, Ground, 0) })
	mustPanic(t, func() { c.V(n, Ground, nil) })
	mustPanic(t, func() { c.I(n, Ground, nil) })
	mustPanic(t, func() { c.R(Node(42), Ground, 1) })
}

func TestFloatingNodeRejected(t *testing.T) {
	c := New()
	a := c.Node("a")
	b := c.Node("b")
	c.R(a, Ground, 1)
	_ = b // floating node: no connection
	if _, err := c.Transient(1e-6); err == nil {
		t.Fatal("expected singular-matrix error for floating node")
	}
}

func TestBadTimestep(t *testing.T) {
	c := New()
	n := c.Node("n")
	c.R(n, Ground, 1)
	c.V(n, Ground, DC(1))
	if _, err := c.Transient(0); err == nil {
		t.Fatal("expected error for zero timestep")
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}
