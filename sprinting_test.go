package sprinting_test

import (
	"bytes"
	"context"
	"io"
	"math"
	"strings"
	"testing"

	"sprinting"
)

func TestPublicQuickRun(t *testing.T) {
	base, err := sprinting.RunKernel("sobel", sprinting.SizeA, sprinting.DefaultConfig(sprinting.Sustained))
	if err != nil {
		t.Fatal(err)
	}
	spr, err := sprinting.RunKernel("sobel", sprinting.SizeA, sprinting.DefaultConfig(sprinting.ParallelSprint))
	if err != nil {
		t.Fatal(err)
	}
	if sp := spr.Speedup(base); sp < 5 {
		t.Errorf("public API sprint speedup = %.1f, want substantial", sp)
	}
}

func TestPublicKernelRegistry(t *testing.T) {
	if got := len(sprinting.Kernels()); got != 6 {
		t.Errorf("Kernels() = %d entries, want 6", got)
	}
	if _, err := sprinting.RunKernel("nope", sprinting.SizeA, sprinting.DefaultConfig(sprinting.Sustained)); err == nil {
		t.Error("unknown kernel should error")
	}
}

func TestPublicThermals(t *testing.T) {
	d := sprinting.DefaultThermalDesign()
	res := sprinting.SimulateSprintThermals(d, 16)
	if res.SprintEndS < 1.0 || res.SprintEndS > 1.6 {
		t.Errorf("sprint duration = %.2f s, want a little over 1 s", res.SprintEndS)
	}
	cool := sprinting.SimulateCooldownThermals(d, 16)
	if !cool.NearOK {
		t.Error("cooldown should reach near-ambient")
	}
}

func TestPublicActivation(t *testing.T) {
	abrupt, err := sprinting.SimulateActivation(0)
	if err != nil {
		t.Fatal(err)
	}
	if abrupt.WithinTolerance {
		t.Error("abrupt activation should fail tolerance")
	}
	slow, err := sprinting.SimulateActivation(128e-6)
	if err != nil {
		t.Fatal(err)
	}
	if !slow.WithinTolerance {
		t.Error("128 µs ramp should pass tolerance")
	}
}

func TestPublicPowerSupply(t *testing.T) {
	s := sprinting.DefaultPowerSupply()
	r := s.Evaluate(sprinting.SprintDemand{PowerW: 16, DurationS: 1, RailV: 1})
	if !r.Feasible {
		t.Errorf("16 W × 1 s should be feasible: %s", r.Reason)
	}
}

func TestPublicExperimentList(t *testing.T) {
	ids := sprinting.ExperimentIDs()
	if len(ids) < 13 {
		t.Errorf("experiment registry too small: %v", ids)
	}
	var buf bytes.Buffer
	if err := sprinting.RunExperimentWithContext(context.Background(), &buf, "table1", sprinting.RunOptions{Scale: 1}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "sobel") {
		t.Error("table1 output missing kernels")
	}
	if err := sprinting.RunExperimentWithContext(context.Background(), &buf, "figX", sprinting.RunOptions{Scale: 1}); err == nil {
		t.Error("unknown experiment should error")
	}
}

// TestPublicExperimentNonFiniteScale: a NaN or infinite scale is an
// error that writes nothing; it used to print tables whose numbers were
// meaningless. Scale 0 keeps its documented calibrated default.
func TestPublicExperimentNonFiniteScale(t *testing.T) {
	for _, scale := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var buf bytes.Buffer
		err := sprinting.RunExperimentWithContext(context.Background(), &buf, "table1", sprinting.RunOptions{Scale: scale})
		if err == nil || !strings.Contains(err.Error(), "not finite") || buf.Len() != 0 {
			t.Errorf("scale %v: err %v, %d bytes written; want a not-finite error and no output", scale, err, buf.Len())
		}
	}
	if err := sprinting.RunExperimentWithContext(context.Background(), io.Discard, "table1", sprinting.RunOptions{}); err != nil {
		t.Errorf("scale 0 (calibrated default): %v", err)
	}
}

func TestPublicExperimentCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := sprinting.RunExperimentWithContext(context.Background(), &buf, "table1", sprinting.RunOptions{Scale: 1, CSV: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "kernel,description") {
		t.Errorf("CSV output missing header: %q", out)
	}
}

func TestPublicLimitedConfig(t *testing.T) {
	full := sprinting.DefaultConfig(sprinting.ParallelSprint)
	lim := sprinting.LimitedConfig(sprinting.ParallelSprint)
	if lim.Thermal.PCMMassG >= full.Thermal.PCMMassG {
		t.Error("limited config should carry 100× less PCM")
	}
	if ratio := full.Thermal.PCMMassG / lim.Thermal.PCMMassG; ratio < 99 || ratio > 101 {
		t.Errorf("PCM mass ratio = %.1f, want 100 (the paper's §8.3 design point)", ratio)
	}
}

func TestPublicGovernor(t *testing.T) {
	g := sprinting.NewGovernor()
	if !g.CanSprint(16, 1) {
		t.Error("fresh governor should allow the design-point sprint")
	}
	g.RecordSprint(16, 1)
	if g.TimeToFullS() <= 0 {
		t.Error("after a sprint the budget needs time to refill")
	}
}

func TestPublicFleet(t *testing.T) {
	cfg := sprinting.DefaultFleetConfig(sprinting.FleetSprintAware)
	cfg.Nodes = 4
	cfg.Requests = 300
	m, _, err := sprinting.RunFleet(context.Background(), sprinting.FleetSpec{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed != cfg.Requests || m.P99S <= 0 || m.TotalEnergyJ <= 0 {
		t.Errorf("degenerate fleet metrics: %+v", m)
	}
	// The same spec with the recorder on returns its recording, one
	// dispatch decision per request.
	cfg.Trace = sprinting.TraceConfig{Level: sprinting.TraceDecisions}
	m, tr, err := sprinting.RunFleet(context.Background(), sprinting.FleetSpec{Config: cfg})
	if err != nil || tr == nil || len(tr.Decisions()) != m.Requests {
		t.Fatalf("RunFleet on the traced spec: err %v, trace %v", err, tr != nil)
	}
}

// fleetMetrics is RunFleet without its trace, the function a fleet sweep
// hands to Map.
func fleetMetrics(ctx context.Context, spec sprinting.FleetSpec) (sprinting.FleetMetrics, error) {
	m, _, err := sprinting.RunFleet(ctx, spec)
	return m, err
}

func TestPublicFleetSweepDeterministic(t *testing.T) {
	var specs []sprinting.FleetSpec
	for _, p := range sprinting.FleetPolicies() {
		cfg := sprinting.DefaultFleetConfig(p)
		cfg.Nodes = 8
		cfg.Requests = 800
		specs = append(specs, sprinting.FleetSpec{Config: cfg})
	}
	serial, err := sprinting.Map(context.Background(), specs, fleetMetrics, 1)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := sprinting.Map(context.Background(), specs, fleetMetrics, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i].P99S != wide[i].P99S || serial[i].TotalEnergyJ != wide[i].TotalEnergyJ {
			t.Errorf("policy %s: workers=1 and workers=4 metrics differ", specs[i].Config.Policy)
		}
	}
	if _, err := sprinting.ParseFleetPolicy("sprint-aware"); err != nil {
		t.Errorf("ParseFleetPolicy: %v", err)
	}
}

// TestRunKernelRejectsUnrunnable: a finite config that would overshoot
// TJmax between trip checks, never step its thermal stack, or run for
// minutes is an error from RunKernel. RunKernel is reached only after
// Validate has refused the config.
func TestRunKernelRejectsUnrunnable(t *testing.T) {
	for _, c := range []struct {
		name string
		set  func(*sprinting.Config)
	}{
		{"ThermalTimeScale=1e5", func(c *sprinting.Config) { c.ThermalTimeScale = 1e5 }},
		{"ThermalTimeScale=1e8", func(c *sprinting.Config) { c.ThermalTimeScale = 1e8 }},
		{"ThermalTimeScale=1e30", func(c *sprinting.Config) { c.ThermalTimeScale = 1e30 }},
		{"limited stack at ThermalTimeScale=1e4", func(c *sprinting.Config) {
			*c = sprinting.LimitedConfig(sprinting.ParallelSprint)
			c.ThermalTimeScale = 1e4
		}},
		{"MemBandwidthMult=1e-4", func(c *sprinting.Config) { c.MemBandwidthMult = 1e-4 }},
		{"MemBandwidthMult=1e-300", func(c *sprinting.Config) { c.MemBandwidthMult = 1e-300 }},
	} {
		cfg := sprinting.DefaultConfig(sprinting.ParallelSprint)
		c.set(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("%s passes Validate", c.name)
			continue
		}
		if _, err := sprinting.RunKernel("sobel", sprinting.SizeA, cfg); err == nil {
			t.Errorf("%s: RunKernel returned no error", c.name)
		}
	}
}

// TestRunKernelRunsRepoScales: the time scales the repository runs at,
// and 1e4, still run, and the trip check holds the junction at TJmax.
func TestRunKernelRunsRepoScales(t *testing.T) {
	for _, s := range []float64{1, 70, 1000, 1500, 1e4} {
		cfg := sprinting.DefaultConfig(sprinting.ParallelSprint)
		cfg.ThermalTimeScale = s
		res, err := sprinting.RunKernel("sobel", sprinting.SizeA, cfg)
		if err != nil {
			t.Fatalf("time scale %g: %v", s, err)
		}
		if res.PeakJunctionC > cfg.Thermal.TJMaxC {
			t.Errorf("time scale %g: peak junction %.2f °C above TJmax %g °C", s, res.PeakJunctionC, cfg.Thermal.TJMaxC)
		}
	}
}

// TestRunKernelRejectsNonFinite: a non-finite float in the sprint config
// is an error from RunKernel, never a panic, a hang or an infinite time.
// RunKernel is reached only after Validate has refused the config, so a
// regression fails here instead of hanging in a NaN-bandwidth machine.
func TestRunKernelRejectsNonFinite(t *testing.T) {
	fields := []struct {
		name string
		set  func(*sprinting.Config, float64)
	}{
		{"ThermalTimeScale", func(c *sprinting.Config, v float64) { c.ThermalTimeScale = v }},
		{"MemBandwidthMult", func(c *sprinting.Config, v float64) { c.MemBandwidthMult = v }},
		{"TripMarginC", func(c *sprinting.Config, v float64) { c.TripMarginC = v }},
		{"ActivationDelayS", func(c *sprinting.Config, v float64) { c.ActivationDelayS = v }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := sprinting.DefaultConfig(sprinting.ParallelSprint)
			f.set(&cfg, v)
			if cfg.Validate() == nil {
				t.Errorf("%s = %v passes Validate", f.name, v)
				continue
			}
			if _, err := sprinting.RunKernel("sobel", sprinting.SizeA, cfg); err == nil {
				t.Errorf("%s = %v: RunKernel returned no error", f.name, v)
			}
		}
	}
}
