package archsim

import (
	"testing"

	"sprinting/internal/isa"
)

// pauseSource emits pauses forever on core 1 while core 0 computes, then
// both finish — a stand-in for a barrier wait.
type pauseSource struct {
	computeLeft uint64
	pausesLeft  int
}

func (s *pauseSource) Next(core int, buf []isa.Instr) (int, bool) {
	if core == 0 {
		if s.computeLeft == 0 {
			return 0, true
		}
		n := uint32(100_000)
		if uint64(n) > s.computeLeft {
			n = uint32(s.computeLeft)
		}
		s.computeLeft -= uint64(n)
		buf[0] = isa.Instr{Kind: isa.Compute, N: n}
		return 1, false
	}
	if s.pausesLeft == 0 {
		return 0, true
	}
	s.pausesLeft--
	buf[0] = isa.Instr{Kind: isa.Pause, N: 1}
	return 1, false
}

// TestDeepSleepReducesWaitEnergy: a core parked on a long pause train costs
// less with deep sleep enabled than without.
func TestDeepSleepReducesWaitEnergy(t *testing.T) {
	run := func(deepAfter int) float64 {
		cfg := DefaultConfig(2)
		cfg.DeepSleepAfter = deepAfter
		src := &pauseSource{computeLeft: 10_000_000, pausesLeft: 5_000}
		m, err := New(cfg, src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.PerCore[1].EnergyJ
	}
	withDeep := run(8)
	without := run(0)
	if withDeep >= without {
		t.Errorf("deep sleep should reduce waiter energy: %.3g vs %.3g J", withDeep, without)
	}
	// Deep sleep at the default 0.2 factor should land near 0.2× + the
	// shallow prefix.
	if ratio := withDeep / without; ratio > 0.5 {
		t.Errorf("deep-sleep energy ratio = %.2f, want well under 1", ratio)
	}
}

// TestDeepSleepResetsOnWork: interleaving real work between pauses must
// reset the consecutive-pause counter (no deep-sleep discount while a core
// is making progress).
func TestDeepSleepResetsOnWork(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.DeepSleepAfter = 2
	// pause, pause, compute, pause, pause, … never 3 consecutive pauses.
	instrs := []isa.Instr{}
	for i := 0; i < 50; i++ {
		instrs = append(instrs,
			isa.Instr{Kind: isa.Pause, N: 1},
			isa.Instr{Kind: isa.Pause, N: 1},
			isa.Instr{Kind: isa.Compute, N: 10})
	}
	src := &fixedSource{streams: []*isa.SliceStream{{Instrs: instrs}}}
	m, err := New(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Expected energy: every pause at the full 10% rate (no deep sleep).
	e := cfg.Energy
	wantSleep := 100 * e.SleepJ(float64(cfg.PauseSleepCycles))
	wantCompute := 50 * e.ComputeJ(10)
	want := wantSleep + wantCompute
	if got := res.EnergyJ; got < want*0.999 || got > want*1.001 {
		t.Errorf("energy = %.4g J, want %.4g (deep sleep must not engage)", got, want)
	}
}

// TestSampleBoundaryChopping: a single enormous compute run still yields
// per-1000-cycle samples (the controller coupling must not starve).
func TestSampleBoundaryChopping(t *testing.T) {
	src := &fixedSource{streams: []*isa.SliceStream{computeStream(10_000_000)}}
	m, err := New(DefaultConfig(1), src)
	if err != nil {
		t.Fatal(err)
	}
	var samples int
	maxGap := uint64(0)
	var lastT uint64
	_, err = m.Run(ControllerFunc(func(_ *Machine, s Sample) Command {
		samples++
		if s.TimePs-lastT > maxGap {
			maxGap = s.TimePs - lastT
		}
		lastT = s.TimePs
		return Command{}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if samples < 9_900 {
		t.Errorf("samples = %d, want ≈10000 for a 10 ms run", samples)
	}
	if maxGap > 2*DefaultConfig(1).SamplePeriodPs {
		t.Errorf("sample gap %d ps exceeds twice the period", maxGap)
	}
}

// TestThrottleScalesWithCoreCount: after the emergency throttle the
// machine's power (energy/time over the throttled region) is near the
// single-core budget regardless of core count.
func TestThrottleScalesWithCoreCount(t *testing.T) {
	for _, n := range []int{2, 8} {
		streams := make([]*isa.SliceStream, n)
		for i := range streams {
			streams[i] = computeStream(5_000_000)
		}
		m, err := New(DefaultConfig(n), &fixedSource{streams: streams})
		if err != nil {
			t.Fatal(err)
		}
		throttled := false
		res, err := m.Run(ControllerFunc(func(_ *Machine, s Sample) Command {
			if !throttled {
				throttled = true
				return Command{Kind: CmdThrottleEmergency}
			}
			return Command{}
		}))
		if err != nil {
			t.Fatal(err)
		}
		p := res.EnergyJ / res.ElapsedSeconds()
		if p > 1.3 {
			t.Errorf("%d cores throttled: aggregate power %.2f W, want ≈1 W", n, p)
		}
	}
}
