package core

import (
	"math"
	"testing"

	"sprinting/internal/workloads"
)

// TestMigratedRunStillComputesCorrectly is the end-to-end §7 correctness
// gate: a sprint that exhausts mid-kernel, migrates every in-flight task to
// core 0, and finishes there must still produce a bit-correct kernel
// output.
func TestMigratedRunStillComputesCorrectly(t *testing.T) {
	for _, name := range []string{"sobel", "kmeans", "texture"} {
		name := name
		t.Run(name, func(t *testing.T) {
			k, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			inst := k.Build(workloads.Params{Size: workloads.SizeA, Scale: 0.5, Shards: 32, Seed: 5})
			cfg := limitedConfig(ParallelSprint)
			res, err := Run(inst.Program, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Migrated {
				t.Skipf("%s did not exhaust at this scale; nothing to verify", name)
			}
			if err := inst.Verify(); err != nil {
				t.Fatalf("output corrupted by migration: %v", err)
			}
		})
	}
}

// TestThrottledRunStillComputesCorrectly: same gate for the hardware path.
func TestThrottledRunStillComputesCorrectly(t *testing.T) {
	k, err := workloads.ByName("sobel")
	if err != nil {
		t.Fatal(err)
	}
	inst := k.Build(workloads.Params{Size: workloads.SizeA, Scale: 0.5, Shards: 32, Seed: 5})
	cfg := limitedConfig(ParallelSprint)
	cfg.HardwareThrottleOnly = true
	res, err := Run(inst.Program, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Throttled {
		t.Skip("throttle did not engage at this scale")
	}
	if err := inst.Verify(); err != nil {
		t.Fatalf("output corrupted by throttling: %v", err)
	}
}

// TestRunDeterminism: identical configs and seeds give identical results.
func TestRunDeterminism(t *testing.T) {
	run := func() Result {
		return run2(t, "kmeans", 0.3, DefaultConfig(ParallelSprint))
	}
	a, b := run(), run()
	if a.ElapsedS != b.ElapsedS || a.EnergyJ != b.EnergyJ {
		t.Errorf("nondeterministic runs: (%v, %v) vs (%v, %v)",
			a.ElapsedS, a.EnergyJ, b.ElapsedS, b.EnergyJ)
	}
}

// TestDoubleBandwidthHelpsDisparity: the §8.5 bandwidth ablation at the
// core level.
func TestDoubleBandwidthHelpsDisparity(t *testing.T) {
	cfg := DefaultConfig(ParallelSprint)
	cfg.ThermalTimeScale = 1 // scaling study: no thermal cap
	base := run2(t, "disparity", 0.5, cfg)
	cfg2 := cfg
	cfg2.MemBandwidthMult = 2
	wide := run2(t, "disparity", 0.5, cfg2)
	if wide.ElapsedS >= base.ElapsedS {
		t.Errorf("2× bandwidth should speed up disparity: %.4fs vs %.4fs",
			wide.ElapsedS, base.ElapsedS)
	}
}

// TestSixtyFourCoreRun: the widest machine configuration works end to end.
func TestSixtyFourCoreRun(t *testing.T) {
	cfg := DefaultConfig(ParallelSprint)
	cfg.SprintCores = 64
	cfg.ThermalTimeScale = 1
	res := run2(t, "sobel", 0.5, cfg)
	base := run2(t, "sobel", 0.5, DefaultConfig(Sustained))
	if sp := res.Speedup(base); sp < 20 {
		t.Errorf("64-core sobel speedup = %.1f, want substantial scaling", sp)
	}
}

// TestTraceSampledAtThousandCycles: the recorded power trace has the §8.1
// 1000-cycle cadence.
func TestTraceSampledAtThousandCycles(t *testing.T) {
	cfg := DefaultConfig(ParallelSprint)
	cfg.RecordTrace = true
	res := run2(t, "sobel", 0.3, cfg)
	if len(res.PowerTrace.Points()) < 2 {
		t.Fatal("trace too short")
	}
	dt := res.PowerTrace.Points()[1].T - res.PowerTrace.Points()[0].T
	if math.Abs(dt-1e-6) > 1e-9 {
		t.Errorf("sample interval = %v s, want 1 µs (1000 cycles)", dt)
	}
}

// TestSprintPowerExceedsTDP: during a full-width sprint, average power is
// far beyond the 1 W sustainable budget — the defining property.
func TestSprintPowerExceedsTDP(t *testing.T) {
	res := run2(t, "sobel", 0.5, DefaultConfig(ParallelSprint))
	// Average power across the run (dominated by the 16-wide phase).
	p := res.EnergyJ / res.ElapsedS
	if p < 8 {
		t.Errorf("sprint average power = %.1f W, want ≫ 1 W TDP", p)
	}
}

// run2 builds and runs a kernel, failing the test on error.
func run2(t *testing.T, name string, scale float64, cfg Config) Result {
	t.Helper()
	k, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	inst := k.Build(workloads.Params{Size: workloads.SizeA, Scale: scale, Shards: 64, Seed: 5})
	res, err := Run(inst.Program, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
