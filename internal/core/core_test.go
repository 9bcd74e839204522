package core

import (
	"math"
	"testing"

	"sprinting/internal/rt"
	"sprinting/internal/thermal"
	"sprinting/internal/workloads"
)

// buildKernel returns a fresh program for the named kernel at test scale.
func buildKernel(t *testing.T, name string, scale float64) rt.Program {
	t.Helper()
	k, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	inst := k.Build(workloads.Params{Size: workloads.SizeA, Scale: scale, Shards: 32, Seed: 5})
	return inst.Program
}

func run(t *testing.T, prog rt.Program, cfg Config) Result {
	t.Helper()
	res, err := Run(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSustainedStaysUnderMeltPoint(t *testing.T) {
	cfg := DefaultConfig(Sustained)
	cfg.RecordTrace = true
	res := run(t, buildKernel(t, "sobel", 0.5), cfg)
	if res.SprintExhausted || res.Migrated || res.Throttled {
		t.Error("sustained run must never trip the thermal budget")
	}
	if res.PeakJunctionC >= cfg.Thermal.PCM.MeltingPointC {
		t.Errorf("sustained junction peaked at %.1f °C, must stay below the %.0f °C melting point",
			res.PeakJunctionC, cfg.Thermal.PCM.MeltingPointC)
	}
	if res.ElapsedS <= 0 || res.EnergyJ <= 0 {
		t.Errorf("degenerate result: %+v", res)
	}
}

func TestParallelSprintSpeedsUpSobel(t *testing.T) {
	base := run(t, buildKernel(t, "sobel", 0.5), DefaultConfig(Sustained))
	spr := run(t, buildKernel(t, "sobel", 0.5), DefaultConfig(ParallelSprint))
	speedup := spr.Speedup(base)
	if speedup < 8 {
		t.Errorf("16-core sprint speedup = %.1f, want ≈10–15 on sobel", speedup)
	}
	if spr.SprintExhausted {
		t.Error("full 150 mg PCM should cover this run entirely")
	}
	// Peak power must have exceeded the sustainable budget by roughly the
	// core count (this is the whole point of sprinting).
	if spr.PeakJunctionC <= base.PeakJunctionC {
		t.Error("sprinting should heat the junction more than sustained operation")
	}
}

func TestParallelSprintEnergyParity(t *testing.T) {
	// §8.6: in the linear-speedup regime, parallel sprint dynamic energy
	// ≈ sequential energy (same work, more cores, less time).
	base := run(t, buildKernel(t, "sobel", 0.5), DefaultConfig(Sustained))
	spr := run(t, buildKernel(t, "sobel", 0.5), DefaultConfig(ParallelSprint))
	ratio := spr.NormalizedEnergy(base)
	if ratio < 0.9 || ratio > 1.25 {
		t.Errorf("parallel/sequential energy = %.2f, want ≈1 (≤ ~1.12 per Fig 11)", ratio)
	}
}

func TestDVFSSprintBoost(t *testing.T) {
	base := run(t, buildKernel(t, "sobel", 0.5), DefaultConfig(Sustained))
	dvfs := run(t, buildKernel(t, "sobel", 0.5), DefaultConfig(DVFSSprint))
	speedup := dvfs.Speedup(base)
	if math.Abs(speedup-2.52) > 0.4 {
		t.Errorf("DVFS speedup = %.2f, want ≈2.5 (∛16, §8.4)", speedup)
	}
	// §8.6: voltage boosting costs ≈6× the energy.
	ratio := dvfs.NormalizedEnergy(base)
	if ratio < 4 || ratio > 8 {
		t.Errorf("DVFS energy ratio = %.2f, want ≈6 (quadratic voltage cost)", ratio)
	}
}

// limitedConfig compresses the thermal time scale so the 1.5 mg budget
// exhausts within test-sized workloads.
func limitedConfig(policy Policy) Config {
	cfg := DefaultConfig(policy)
	cfg.Thermal = thermal.LimitedStackConfig()
	cfg.ThermalTimeScale = 1500
	return cfg
}

func TestLimitedPCMExhaustsAndMigrates(t *testing.T) {
	// Shrink the thermal budget so the sprint cannot cover the run: the
	// §7 software exit must migrate everything to core 0 and finish there.
	cfg := limitedConfig(ParallelSprint)
	cfg.RecordTrace = true
	prog := buildKernel(t, "sobel", 0.5)
	res := run(t, prog, cfg)
	if !res.SprintExhausted {
		t.Fatal("limited PCM should exhaust mid-run")
	}
	if !res.Migrated {
		t.Fatal("software path should migrate to core 0")
	}
	if res.Throttled {
		t.Error("software migration should preempt the hardware throttle")
	}
	// The junction must never have exceeded TJmax.
	if res.PeakJunctionC > cfg.Thermal.TJMaxC+0.5 {
		t.Errorf("junction peaked at %.1f °C beyond TJmax %.0f", res.PeakJunctionC, cfg.Thermal.TJMaxC)
	}
	// And the computation still completes correctly (work conservation).
	full := run(t, buildKernel(t, "sobel", 0.5), DefaultConfig(ParallelSprint))
	var wantOps, gotOps uint64
	for _, s := range full.Machine.PerCore {
		wantOps += s.ComputeOps
	}
	for _, s := range res.Machine.PerCore {
		gotOps += s.ComputeOps
	}
	if gotOps != wantOps {
		t.Errorf("migrated run executed %d ops, full sprint %d", gotOps, wantOps)
	}
}

func TestLimitedSlowerThanFull(t *testing.T) {
	full := run(t, buildKernel(t, "sobel", 0.5), DefaultConfig(ParallelSprint))
	limited := run(t, buildKernel(t, "sobel", 0.5), limitedConfig(ParallelSprint))
	if limited.ElapsedS <= full.ElapsedS {
		t.Errorf("limited PCM (%.4fs) should be slower than full (%.4fs)",
			limited.ElapsedS, full.ElapsedS)
	}
}

func TestHardwareThrottleFallback(t *testing.T) {
	cfg := limitedConfig(ParallelSprint)
	cfg.HardwareThrottleOnly = true
	res := run(t, buildKernel(t, "sobel", 0.5), cfg)
	if !res.Throttled {
		t.Fatal("hardware throttle should engage when migration is disabled")
	}
	if res.Migrated {
		t.Error("migration must not run in throttle-only mode")
	}
	// §7: post-throttle aggregate power falls under the sustainable TDP,
	// so the junction stops rising; allow a small overshoot.
	if res.PeakJunctionC > cfg.Thermal.TJMaxC+2 {
		t.Errorf("throttled junction peaked at %.1f °C", res.PeakJunctionC)
	}
}

func TestDVFSLimitedExhaustsEarlierThanItFinishes(t *testing.T) {
	cfg := limitedConfig(DVFSSprint)
	res := run(t, buildKernel(t, "sobel", 0.5), cfg)
	if !res.SprintExhausted {
		t.Fatal("limited PCM should end the DVFS boost early")
	}
	// After the boost drops, the run continues at nominal to completion.
	base := run(t, buildKernel(t, "sobel", 0.5), DefaultConfig(Sustained))
	if res.ElapsedS >= base.ElapsedS {
		t.Errorf("partial DVFS sprint (%.4fs) should still beat sustained (%.4fs)",
			res.ElapsedS, base.ElapsedS)
	}
}

func TestSprintWidthSweep(t *testing.T) {
	// More sprint cores → faster completion on a scalable kernel.
	prev := math.Inf(1)
	base := run(t, buildKernel(t, "sobel", 0.4), DefaultConfig(Sustained))
	for _, n := range []int{1, 4, 16} {
		cfg := DefaultConfig(ParallelSprint)
		cfg.SprintCores = n
		res := run(t, buildKernel(t, "sobel", 0.4), cfg)
		sp := res.Speedup(base)
		if n == 1 && (sp < 0.8 || sp > 1.2) {
			t.Errorf("1-core sprint speedup = %.2f, want ≈1", sp)
		}
		if res.ElapsedS >= prev {
			t.Errorf("%d cores (%.4fs) not faster than fewer cores (%.4fs)", n, res.ElapsedS, prev)
		}
		prev = res.ElapsedS
	}
}

func TestRecordTrace(t *testing.T) {
	cfg := DefaultConfig(ParallelSprint)
	cfg.RecordTrace = true
	res := run(t, buildKernel(t, "sobel", 0.3), cfg)
	if res.JunctionTrace == nil || len(res.JunctionTrace.Points()) == 0 {
		t.Fatal("trace not recorded")
	}
	_, maxT := res.JunctionTrace.Max()
	if maxT <= cfg.Thermal.AmbientC {
		t.Error("junction trace never rose above ambient")
	}
	if len(res.PowerTrace.Points()) != len(res.JunctionTrace.Points()) {
		t.Error("power and junction traces misaligned")
	}
}

func TestValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.SprintCores = 0 },
		func(c *Config) { c.SprintCores = 65 },
		func(c *Config) { c.ThermalTimeScale = 0 },
		func(c *Config) { c.MemBandwidthMult = 0 },
		func(c *Config) { c.TripMarginC = -1 },
		func(c *Config) { c.ActivationDelayS = -1 },
		func(c *Config) { c.Thermal.PCMMassG = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig(ParallelSprint)
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestDVFSBoostFormula(t *testing.T) {
	if got := DVFSBoost(16); math.Abs(got-2.5198) > 1e-3 {
		t.Errorf("DVFSBoost(16) = %v, want ∛16", got)
	}
	if DVFSBoost(0) != 1 || DVFSBoost(-3) != 1 {
		t.Error("non-positive headroom should mean no boost")
	}
}

func TestPolicyString(t *testing.T) {
	if Sustained.String() == "" || ParallelSprint.String() == "" || DVFSSprint.String() == "" {
		t.Error("policies must have names")
	}
}
