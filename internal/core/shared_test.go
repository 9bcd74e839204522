package core

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"sprinting/internal/thermal"
)

// checkShared runs cfgs on one machine and requires every member that
// stays to equal its standalone Run, traces included, and exactly
// wantDropped to drop out.
func checkShared(t *testing.T, cfgs []Config, wantDropped []int) []Result {
	t.Helper()
	for i := range cfgs {
		cfgs[i].RecordTrace = true
	}
	res, dropped, err := RunShared(buildKernel(t, "sobel", 0.3), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(dropped, wantDropped) {
		t.Fatalf("dropped = %v, want %v", dropped, wantDropped)
	}
	solo := make([]Result, len(cfgs))
	for i, cfg := range cfgs {
		solo[i] = run(t, buildKernel(t, "sobel", 0.3), cfg)
		if slices.Contains(dropped, i) {
			if !reflect.DeepEqual(res[i], Result{}) {
				t.Errorf("member %d dropped out but has a result", i)
			}
			continue
		}
		if !reflect.DeepEqual(res[i], solo[i]) {
			t.Errorf("member %d: shared run differs from its standalone run:\n%+v\nvs\n%+v", i, res[i], solo[i])
		}
	}
	return solo
}

// TestSharedNoMemberTrips: every member only observes, so all of them keep
// their shared results.
func TestSharedNoMemberTrips(t *testing.T) {
	a := DefaultConfig(ParallelSprint)
	b := a
	b.TripMarginC = 3
	b.ActivationDelayS = 1e-3
	c := a
	c.Thermal = c.Thermal.WithPCMMass(0.3)
	res, _, err := RunShared(buildKernel(t, "sobel", 0.05), []Config{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if &res[0].Machine.PerCore[0] == &res[1].Machine.PerCore[0] {
		t.Error("members share one PerCore slice")
	}
	solo := checkShared(t, []Config{a, b, c}, nil)
	for i, r := range solo {
		if r.SprintExhausted {
			t.Fatalf("member %d tripped; the case needs members that never trip", i)
		}
	}
}

// TestSharedTripWhileOthersLive: the limited member would migrate while
// the full one is live, so it drops out and the full one runs on.
func TestSharedTripWhileOthersLive(t *testing.T) {
	solo := checkShared(t, []Config{limitedConfig(ParallelSprint), DefaultConfig(ParallelSprint)}, []int{0})
	if !solo[0].Migrated || solo[1].SprintExhausted {
		t.Fatal("the case needs a first member that migrates and a second that never trips")
	}
}

// TestSharedLastLiveMemberSteers: the earlier-tripping member drops out;
// the later one trips as the last live member and its migration applies.
func TestSharedLastLiveMemberSteers(t *testing.T) {
	early := limitedConfig(ParallelSprint)
	late := early
	late.ThermalTimeScale = 1000
	solo := checkShared(t, []Config{early, late}, []int{0})
	if !solo[1].Migrated || !(solo[0].SprintEndS < solo[1].SprintEndS) {
		t.Fatalf("the case needs two members that trip at different times: %v then %v",
			solo[0].SprintEndS, solo[1].SprintEndS)
	}
}

// TestSharedSimultaneousTrips: two members trip on the same sample; the
// first in order drops out and the second steers.
func TestSharedSimultaneousTrips(t *testing.T) {
	a := limitedConfig(ParallelSprint)
	b := a
	b.ActivationDelayS = 1e-3
	solo := checkShared(t, []Config{a, b}, []int{0})
	if !solo[1].Migrated || solo[0].SprintEndS != solo[1].SprintEndS {
		t.Fatal("the case needs two members that trip on the same sample")
	}
}

// TestSharedThrottleBesideSoftTrip: the soft trip fires below TJmax and
// drops out; the hardware-only member then throttles the machine.
func TestSharedThrottleBesideSoftTrip(t *testing.T) {
	hw := limitedConfig(ParallelSprint)
	hw.HardwareThrottleOnly = true
	solo := checkShared(t, []Config{hw, limitedConfig(ParallelSprint)}, []int{1})
	if !solo[0].Throttled || !solo[1].Migrated {
		t.Fatal("the case needs a throttling member and a migrating one")
	}
}

// TestSharedDVFS: a DVFS group, where the limited member's frequency drop
// would change the machine the full member observes.
func TestSharedDVFS(t *testing.T) {
	full := DefaultConfig(DVFSSprint)
	lim := limitedConfig(DVFSSprint)
	lim2 := lim
	lim2.TripMarginC = 0.5
	solo := checkShared(t, []Config{full, lim, lim2}, []int{1, 2})
	if !solo[1].SprintExhausted || !solo[2].SprintExhausted || solo[0].SprintExhausted {
		t.Fatal("the case needs two limited members that trip and a full one that does not")
	}
	checkShared(t, []Config{lim, lim2}, []int{0})
}

// TestSharedRejectsDifferentMachines: members must agree on Machine().
func TestSharedRejectsDifferentMachines(t *testing.T) {
	for _, mutate := range []func(*Config){
		func(c *Config) { c.Policy = DVFSSprint },
		func(c *Config) { c.SprintCores = 8 },
		func(c *Config) { c.MemBandwidthMult = 2 },
		func(c *Config) { c.Arch.ChunkInstrs = 64 },
	} {
		a := DefaultConfig(ParallelSprint)
		b := a
		mutate(&b)
		if _, _, err := RunShared(buildKernel(t, "sobel", 0.05), []Config{a, b}); err == nil {
			t.Errorf("configs %+v and %+v share a run", a.Machine(), b.Machine())
		}
	}
	if _, _, err := RunShared(buildKernel(t, "sobel", 0.05), nil); err == nil {
		t.Error("an empty group ran")
	}
}

// TestMachineZeroesControllerFields: the controller-only fields are
// exactly the ones Machine() drops.
func TestMachineZeroesControllerFields(t *testing.T) {
	a := DefaultConfig(ParallelSprint)
	b := limitedConfig(ParallelSprint)
	b.TripMarginC = 4
	b.HardwareThrottleOnly = true
	b.RecordTrace = true
	b.ActivationDelayS = 1
	if a.Machine() != b.Machine() {
		t.Error("configs that differ only in controller-only fields have different machines")
	}
	if a.Machine().Thermal != (thermal.StackConfig{}) {
		t.Error("Machine() kept the thermal design")
	}
}

// TestValidateRejectsNonFinite: every non-finite float field is an error
// from Validate and from Run. Run is reached only after Validate has
// refused the config, so a regression fails here instead of hanging in a
// NaN-bandwidth machine.
func TestValidateRejectsNonFinite(t *testing.T) {
	fields := []struct {
		name string
		set  func(*Config, float64)
	}{
		{"ThermalTimeScale", func(c *Config, v float64) { c.ThermalTimeScale = v }},
		{"MemBandwidthMult", func(c *Config, v float64) { c.MemBandwidthMult = v }},
		{"TripMarginC", func(c *Config, v float64) { c.TripMarginC = v }},
		{"ActivationDelayS", func(c *Config, v float64) { c.ActivationDelayS = v }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := DefaultConfig(ParallelSprint)
			f.set(&cfg, v)
			if cfg.Validate() == nil {
				t.Errorf("%s = %v passes Validate", f.name, v)
				continue
			}
			if _, err := Run(buildKernel(t, "sobel", 0.05), cfg); err == nil {
				t.Errorf("%s = %v: Run returned no error", f.name, v)
			}
		}
	}
}
