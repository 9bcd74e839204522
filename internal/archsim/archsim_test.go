package archsim

import (
	"math"
	"testing"

	"sprinting/internal/cpu"
	"sprinting/internal/isa"
)

// ControllerFunc adapts a function to Controller.
type ControllerFunc func(m *Machine, s Sample) Command

// OnSample implements Controller.
func (f ControllerFunc) OnSample(m *Machine, s Sample) Command { return f(m, s) }

// fixedSource hands each core its own slice stream.
type fixedSource struct {
	streams []*isa.SliceStream
}

func (f *fixedSource) Next(core int, buf []isa.Instr) (int, bool) {
	if core >= len(f.streams) || f.streams[core] == nil {
		return 0, true
	}
	n := f.streams[core].Next(buf)
	return n, n == 0
}

func computeStream(ops uint32) *isa.SliceStream {
	return &isa.SliceStream{Instrs: []isa.Instr{{Kind: isa.Compute, N: ops}}}
}

func TestSingleCoreComputeTiming(t *testing.T) {
	// 1e6 compute ops at CPI=1 and 1 GHz take exactly 1 ms.
	src := &fixedSource{streams: []*isa.SliceStream{computeStream(1_000_000)}}
	m, err := New(DefaultConfig(1), src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ElapsedPs != 1_000_000_000 {
		t.Errorf("elapsed = %d ps, want 1e9 (1 ms)", res.ElapsedPs)
	}
	if res.PerCore[0].ComputeOps != 1_000_000 {
		t.Errorf("compute ops = %d", res.PerCore[0].ComputeOps)
	}
}

func TestBusyCorePowerNearOneWatt(t *testing.T) {
	src := &fixedSource{streams: []*isa.SliceStream{computeStream(2_000_000)}}
	m, err := New(DefaultConfig(1), src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	p := res.EnergyJ / res.ElapsedSeconds()
	if p < 0.8 || p > 1.1 {
		t.Errorf("busy single-core power = %.3f W, want ≈1 W (§8.1 design point)", p)
	}
}

func TestDVFSBoostSpeedsUpAndCostsEnergy(t *testing.T) {
	run := func(freq, volt float64) Result {
		src := &fixedSource{streams: []*isa.SliceStream{computeStream(1_000_000)}}
		m, err := New(DefaultConfig(1), src)
		if err != nil {
			t.Fatal(err)
		}
		m.SetAllFrequency(freq, volt)
		res, err := m.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(1, 1)
	boost := run(2.52, 2.52) // §8.4: ∛16 ≈ 2.5× at 16× power
	speedup := float64(base.ElapsedPs) / float64(boost.ElapsedPs)
	if math.Abs(speedup-2.52) > 0.05 {
		t.Errorf("DVFS speedup = %.3f, want ≈2.52", speedup)
	}
	eRatio := boost.EnergyJ / base.EnergyJ
	if math.Abs(eRatio-2.52*2.52) > 0.2 {
		t.Errorf("DVFS energy ratio = %.2f, want ≈6.35 (V²)", eRatio)
	}
	pRatio := (boost.EnergyJ / boost.ElapsedSeconds()) / (base.EnergyJ / base.ElapsedSeconds())
	if math.Abs(pRatio-16) > 1.5 {
		t.Errorf("DVFS power ratio = %.1f, want ≈16 (V²f)", pRatio)
	}
}

func TestParallelSpeedupPerfect(t *testing.T) {
	// Embarrassingly parallel compute: n cores finish n× faster.
	mk := func(cores int) Result {
		streams := make([]*isa.SliceStream, cores)
		for i := range streams {
			streams[i] = computeStream(1_000_000)
		}
		m, err := New(DefaultConfig(cores), &fixedSource{streams: streams})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1 := mk(1)
	r16 := mk(16)
	// Same per-core work ⇒ same elapsed, but 16× the total work done.
	if r16.ElapsedPs != r1.ElapsedPs {
		t.Errorf("parallel compute skewed: %d vs %d", r16.ElapsedPs, r1.ElapsedPs)
	}
	var total uint64
	for _, s := range r16.PerCore {
		total += s.ComputeOps
	}
	if total != 16_000_000 {
		t.Errorf("total ops = %d", total)
	}
}

func TestPauseSleepsAndSipsEnergy(t *testing.T) {
	src := &fixedSource{streams: []*isa.SliceStream{{
		Instrs: []isa.Instr{{Kind: isa.Pause, N: 1}, {Kind: isa.Pause, N: 1}},
	}}}
	cfg := DefaultConfig(1)
	m, err := New(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	wantPs := 2 * cfg.PauseSleepCycles * cpu.NominalCyclePs
	if res.PerCore[0].SleepPs != wantPs {
		t.Errorf("sleep = %d ps, want %d", res.PerCore[0].SleepPs, wantPs)
	}
	p := res.EnergyJ / res.ElapsedSeconds()
	if p > 0.15 {
		t.Errorf("sleeping power = %.3f W, want ≈0.095 (10%% of active)", p)
	}
}

func TestMemoryBoundSlower(t *testing.T) {
	// A pointer-chase over a huge footprint (every access a DRAM miss) is
	// far slower than pure compute of the same instruction count.
	n := 20_000
	instrs := make([]isa.Instr, n)
	for i := range instrs {
		instrs[i] = isa.Instr{Kind: isa.Load, Addr: uint64(i) * 4096}
	}
	src := &fixedSource{streams: []*isa.SliceStream{{Instrs: instrs}}}
	m, err := New(DefaultConfig(1), src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	perOpPs := float64(res.ElapsedPs) / float64(n)
	if perOpPs < 60_000 {
		t.Errorf("DRAM-bound op = %.0f ps, want ≥ memory latency", perOpPs)
	}
	if res.Mem.LLCMisses == 0 {
		t.Error("expected LLC misses")
	}
}

func TestSamplesDelivered(t *testing.T) {
	src := &fixedSource{streams: []*isa.SliceStream{computeStream(5_000_000)}} // 5 ms
	m, err := New(DefaultConfig(1), src)
	if err != nil {
		t.Fatal(err)
	}
	var samples int
	var energySum float64
	res, err := m.Run(ControllerFunc(func(_ *Machine, s Sample) Command {
		samples++
		energySum += s.IntervalJ
		return Command{}
	}))
	if err != nil {
		t.Fatal(err)
	}
	// 5 ms at 1 µs sampling ⇒ ≈5000 samples.
	if samples < 4900 || samples > 5100 {
		t.Errorf("samples = %d, want ≈5000", samples)
	}
	if math.Abs(energySum-res.EnergyJ) > res.EnergyJ*0.01 {
		t.Errorf("sampled energy %.4g J vs total %.4g J", energySum, res.EnergyJ)
	}
}

func TestControllerStop(t *testing.T) {
	src := &fixedSource{streams: []*isa.SliceStream{computeStream(100_000_000)}}
	m, err := New(DefaultConfig(1), src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(ControllerFunc(func(_ *Machine, s Sample) Command {
		if s.TimePs >= 2_000_000 {
			return Command{Kind: CmdStop}
		}
		return Command{}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Error("run should report stopped")
	}
	if res.ElapsedPs > 10_000_000 {
		t.Errorf("stop did not abort promptly: %d ps", res.ElapsedPs)
	}
}

// migratingSource exercises CmdMigrateToCore0: an implementation of
// Migrator that moves all remaining work to core 0.
type migratingSource struct {
	perCore  []uint64 // remaining ops per core
	migrated bool
}

func (s *migratingSource) Next(core int, buf []isa.Instr) (int, bool) {
	if s.migrated && core != 0 {
		return 0, true
	}
	if s.perCore[core] == 0 {
		return 0, true
	}
	n := uint32(50_000)
	if uint64(n) > s.perCore[core] {
		n = uint32(s.perCore[core])
	}
	s.perCore[core] -= uint64(n)
	buf[0] = isa.Instr{Kind: isa.Compute, N: n}
	return 1, false
}

func (s *migratingSource) MigrateAll(target int) {
	for c := range s.perCore {
		if c != target {
			s.perCore[target] += s.perCore[c]
			s.perCore[c] = 0
		}
	}
	s.migrated = true
}

func TestMigrateToCore0(t *testing.T) {
	perCore := make([]uint64, 4)
	for i := range perCore {
		perCore[i] = 10_000_000 // 10 ms each at nominal
	}
	src := &migratingSource{perCore: perCore}
	m, err := New(DefaultConfig(4), src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(ControllerFunc(func(_ *Machine, s Sample) Command {
		if s.TimePs >= 2_000_000 && !src.migrated {
			return Command{Kind: CmdMigrateToCore0}
		}
		return Command{}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Migrated {
		t.Fatal("migration did not happen")
	}
	// All work completed (4×10 ms of ops, mostly serialized on core 0).
	var total uint64
	for _, s := range res.PerCore {
		total += s.ComputeOps
	}
	if total != 40_000_000 {
		t.Errorf("total ops = %d, want 4e7 (work lost in migration?)", total)
	}
	// Makespan far beyond the parallel 10 ms since core 0 ran ~38 ms alone.
	if res.ElapsedPs < 30_000_000_000 {
		t.Errorf("elapsed = %d ps; migration should serialize the remainder", res.ElapsedPs)
	}
}

func TestThrottleEmergency(t *testing.T) {
	streams := make([]*isa.SliceStream, 4)
	for i := range streams {
		streams[i] = computeStream(10_000_000)
	}
	src := &fixedSource{streams: streams}
	m, err := New(DefaultConfig(4), src)
	if err != nil {
		t.Fatal(err)
	}
	throttledOnce := false
	res, err := m.Run(ControllerFunc(func(_ *Machine, s Sample) Command {
		if !throttledOnce && s.TimePs >= 1_000_000 {
			throttledOnce = true
			return Command{Kind: CmdThrottleEmergency}
		}
		return Command{}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Throttled {
		t.Fatal("throttle did not engage")
	}
	// 4 cores at 1/4 frequency ⇒ run takes ≈4× the parallel time.
	if res.ElapsedPs < 30_000_000_000 {
		t.Errorf("elapsed = %d ps, want ≈40 ms under 4× throttle", res.ElapsedPs)
	}
	// Aggregate power after throttle ≈ single-core power.
	p := res.EnergyJ / res.ElapsedSeconds()
	if p > 1.5 {
		t.Errorf("throttled aggregate power = %.2f W, want ≈1 W", p)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Result {
		streams := make([]*isa.SliceStream, 4)
		for i := range streams {
			instrs := []isa.Instr{}
			for j := 0; j < 200; j++ {
				instrs = append(instrs,
					isa.Instr{Kind: isa.Compute, N: uint32(10 + i + j)},
					isa.Instr{Kind: isa.Load, Addr: uint64((i*1000 + j) * 64)},
					isa.Instr{Kind: isa.Store, Addr: uint64(j * 64)}, // shared, causes coherence
				)
			}
			streams[i] = &isa.SliceStream{Instrs: instrs}
		}
		m, err := New(DefaultConfig(4), &fixedSource{streams: streams})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.ElapsedPs != b.ElapsedPs || a.EnergyJ != b.EnergyJ || a.Mem != b.Mem {
		t.Errorf("simulator is nondeterministic:\n%+v\n%+v", a, b)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.Cores = 65 },
		func(c *Config) { c.SamplePeriodPs = 0 },
		func(c *Config) { c.ChunkInstrs = 0 },
		func(c *Config) { c.PauseSleepCycles = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig(4)
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if _, err := New(DefaultConfig(1), nil); err == nil {
		t.Error("nil work source should be rejected")
	}
}

func TestEmptySourceFinishesImmediately(t *testing.T) {
	src := &fixedSource{streams: []*isa.SliceStream{{}}}
	m, err := New(DefaultConfig(1), src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ElapsedPs != 0 || res.EnergyJ != 0 {
		t.Errorf("empty run: %+v", res)
	}
}
