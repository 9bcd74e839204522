package powergrid

import (
	"math"
	"testing"
)

// fastOptions trims the horizon for unit-test speed while keeping the
// activation window fully resolved.
func fastOptions(sched Schedule) SimOptions {
	opt := DefaultSimOptions(sched)
	opt.Horizon = opt.FineUntil + 60e-6
	return opt
}

// TestFig6aAbruptActivationViolatesTolerance encodes §5.2: activating all
// 16 cores within 1 ns bounces the supply below the 2% tolerance — the
// paper reports a dip to 1.171 V (97.5% of the 1.2 V nominal).
func TestFig6aAbruptActivationViolatesTolerance(t *testing.T) {
	cfg := DefaultConfig()
	sched := Abrupt(2e-6)
	res, err := Simulate(cfg, sched, fastOptions(sched))
	if err != nil {
		t.Fatal(err)
	}
	if res.WithinTolerance {
		t.Error("abrupt activation must violate the 2% tolerance")
	}
	if res.MinV > 1.18 || res.MinV < 1.15 {
		t.Errorf("abrupt min voltage = %.4f V, paper reports ≈1.171 V", res.MinV)
	}
}

// TestFig6bFastRampStillViolates encodes §5.3: a 1.28 µs uniform ramp is
// still too fast — the chip fails the 2% tolerance.
func TestFig6bFastRampStillViolates(t *testing.T) {
	cfg := DefaultConfig()
	sched := LinearRamp(2e-6, 1.28e-6)
	res, err := Simulate(cfg, sched, fastOptions(sched))
	if err != nil {
		t.Fatal(err)
	}
	if res.WithinTolerance {
		t.Errorf("1.28 µs ramp must violate tolerance (max deviation %.2f%%)", res.MaxDeviationFrac*100)
	}
}

// TestFig6cSlowRampWithinTolerance encodes §5.3: spreading activation over
// 128 µs keeps fluctuations within tolerance, with the supply settling
// ≈10 mV below nominal due to resistive droop.
func TestFig6cSlowRampWithinTolerance(t *testing.T) {
	cfg := DefaultConfig()
	sched := LinearRamp(2e-6, 128e-6)
	res, err := Simulate(cfg, sched, fastOptions(sched))
	if err != nil {
		t.Fatal(err)
	}
	if !res.WithinTolerance {
		t.Errorf("128 µs ramp must stay within tolerance (max deviation %.2f%%)", res.MaxDeviationFrac*100)
	}
	droop := cfg.SupplyV - res.FinalV
	if droop < 5e-3 || droop > 20e-3 {
		t.Errorf("settled droop = %.1f mV, paper reports ≈10 mV", droop*1e3)
	}
}

// TestRampMonotonicity: slower activation never worsens the worst-case
// deviation (the §5.3 design rule that some sufficiently slow ramp is
// always safe).
func TestRampMonotonicity(t *testing.T) {
	cfg := DefaultConfig()
	prev := math.Inf(1)
	for _, ramp := range []float64{0, 1.28e-6, 12.8e-6, 128e-6} {
		var sched Schedule
		if ramp == 0 {
			sched = Abrupt(2e-6)
		} else {
			sched = LinearRamp(2e-6, ramp)
		}
		res, err := Simulate(cfg, sched, fastOptions(sched))
		if err != nil {
			t.Fatal(err)
		}
		if res.MaxDeviationFrac > prev+0.002 {
			t.Errorf("ramp %.3g s: deviation %.3f%% exceeds faster schedule's %.3f%%",
				ramp, res.MaxDeviationFrac*100, prev*100)
		}
		prev = res.MaxDeviationFrac
	}
}

// TestDroopScalesWithCores: resistive droop grows with active core count.
func TestDroopScalesWithCores(t *testing.T) {
	base := DefaultConfig()
	prevDroop := -1.0
	for _, n := range []int{4, 8, 16} {
		cfg := base
		cfg.NumCores = n
		cfg.NumPackageTaps = min(4, n)
		sched := LinearRamp(2e-6, 32e-6)
		opt := fastOptions(sched)
		res, err := Simulate(cfg, sched, opt)
		if err != nil {
			t.Fatal(err)
		}
		droop := cfg.SupplyV - res.FinalV
		if droop <= prevDroop {
			t.Errorf("%d cores: droop %.2f mV not larger than previous %.2f mV", n, droop*1e3, prevDroop*1e3)
		}
		prevDroop = droop
	}
}

// TestEstimatedDroopTracksSimulation: the first-order droop estimate is
// within a factor of ~2 of the simulated settling droop (it omits grid
// drops).
func TestEstimatedDroopTracksSimulation(t *testing.T) {
	cfg := DefaultConfig()
	sched := LinearRamp(2e-6, 128e-6)
	res, err := Simulate(cfg, sched, fastOptions(sched))
	if err != nil {
		t.Fatal(err)
	}
	est := cfg.EstimatedDroopV()
	sim := cfg.SupplyV - res.FinalV
	if sim < est*0.7 || sim > est*2.5 {
		t.Errorf("simulated droop %.2f mV vs estimate %.2f mV: out of expected band", sim*1e3, est*1e3)
	}
}

func TestSettleTimeMicroseconds(t *testing.T) {
	cfg := DefaultConfig()
	sched := Abrupt(2e-6)
	res, err := Simulate(cfg, sched, fastOptions(sched))
	if err != nil {
		t.Fatal(err)
	}
	// §5.2 reports 2.53 µs to settle; accept the microsecond regime.
	if res.SettleS <= 0 || res.SettleS > 20e-6 {
		t.Errorf("settle time = %.3g s, want microseconds", res.SettleS)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.SupplyV = 0 },
		func(c *Config) { c.NumCores = 0 },
		func(c *Config) { c.NumPackageTaps = 0 },
		func(c *Config) { c.NumPackageTaps = c.NumCores + 1 },
		func(c *Config) { c.ToleranceFrac = 0 },
		func(c *Config) { c.AvgCoreCurrentA = -1 },
	}
	for i, mutate := range cases {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestSingleCoreGrid(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumCores = 1
	cfg.NumPackageTaps = 1
	sched := Abrupt(1e-6)
	opt := fastOptions(sched)
	res, err := Simulate(cfg, sched, opt)
	if err != nil {
		t.Fatal(err)
	}
	// One 0.5 A core barely disturbs the rail.
	if res.MaxDeviationFrac > 0.01 {
		t.Errorf("single-core deviation %.2f%% too large", res.MaxDeviationFrac*100)
	}
}

// TestSimulateRejectsBadRuns: a NaN, infinite, negative or huge ramp, a
// bad start and a non-positive timestep fail before any timestep runs,
// while Figure 6's three schedules at their default options stay under
// the step cap.
func TestSimulateRejectsBadRuns(t *testing.T) {
	cfg := DefaultConfig()
	ramp := LinearRamp(2e-6, 1.28e-6)
	with := func(edit func(*SimOptions)) SimOptions {
		opt := DefaultSimOptions(ramp)
		edit(&opt)
		return opt
	}
	cases := []struct {
		name  string
		sched Schedule
		opt   SimOptions
	}{
		{"NaN ramp", LinearRamp(2e-6, math.NaN()), DefaultSimOptions(LinearRamp(2e-6, math.NaN()))},
		{"infinite ramp", LinearRamp(2e-6, math.Inf(1)), DefaultSimOptions(LinearRamp(2e-6, math.Inf(1)))},
		{"negative ramp", LinearRamp(2e-6, -1e-6), DefaultSimOptions(LinearRamp(2e-6, -1e-6))},
		{"huge ramp", LinearRamp(2e-6, 1e6), DefaultSimOptions(LinearRamp(2e-6, 1e6))},
		{"NaN start", Abrupt(math.NaN()), fastOptions(Abrupt(2e-6))},
		{"negative start", Abrupt(-1e-6), fastOptions(Abrupt(2e-6))},
		{"zero fine step", ramp, with(func(o *SimOptions) { o.FineDt = 0 })},
		{"NaN coarse step", ramp, with(func(o *SimOptions) { o.CoarseDt = math.NaN() })},
		{"empty horizon", ramp, with(func(o *SimOptions) { o.FineUntil, o.Horizon = 0, 0 })},
	}
	for _, c := range cases {
		if res, err := Simulate(cfg, c.sched, c.opt); err == nil {
			t.Errorf("%s: want an error, got %+v", c.name, res)
		}
	}
	for _, sched := range []Schedule{Abrupt(2e-6), ramp, LinearRamp(2e-6, 128e-6)} {
		if err := checkRun(sched, DefaultSimOptions(sched)); err != nil {
			t.Errorf("%s: %v", sched.Name, err)
		}
	}
}

func TestNetlistSummaryComplete(t *testing.T) {
	rows := DefaultConfig().NetlistSummary()
	if len(rows) < 10 {
		t.Errorf("netlist summary has %d rows, want full element inventory", len(rows))
	}
	for _, r := range rows {
		if r[0] == "" || r[1] == "" {
			t.Errorf("empty netlist row: %v", r)
		}
	}
}

func TestScheduleNames(t *testing.T) {
	if Abrupt(0).Name == "" || LinearRamp(0, 1e-6).Name == "" {
		t.Error("schedules must be named for reporting")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
