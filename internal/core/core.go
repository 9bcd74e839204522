// Package core is the paper's primary contribution assembled into one
// system: computational sprinting. It couples the §8.1 architectural
// simulator to the §4 thermal model through the §7 runtime protocol —
// per-1000-cycle energy samples drive the RC/PCM network, and when the
// junction approaches its limit the controller terminates the sprint by
// migrating all threads to core 0 (software path) or throttling frequency
// (hardware fallback).
//
// Three execution policies cover the paper's comparisons:
//
//   - Sustained: one ≈1 W core, the non-sprinting baseline;
//   - ParallelSprint: up to 16 dark-silicon cores activated for the burst
//     (§3), terminated on thermal exhaustion;
//   - DVFSSprint: a single core boosted to ∛16 ≈ 2.5× frequency at 16×
//     power (§8.4's idealized voltage-boost comparison).
//
// RunShared runs one machine under several controllers whose configs
// differ only in the fields the controller alone reads (the thermal
// design, trip margin, …); Run is its one-member case.
package core

import (
	"fmt"
	"math"
	"slices"

	"sprinting/internal/archsim"
	"sprinting/internal/rt"
	"sprinting/internal/series"
	"sprinting/internal/thermal"
)

// Policy selects the execution mode.
type Policy int

// Policies.
const (
	// Sustained runs one core within the sustainable TDP — the baseline.
	Sustained Policy = iota
	// ParallelSprint activates SprintCores cores above TDP until the
	// thermal budget is exhausted, then returns to one core (§3, §7).
	ParallelSprint
	// DVFSSprint boosts a single core's frequency/voltage using the same
	// thermal headroom (§8.4).
	DVFSSprint
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Sustained:
		return "sustained"
	case ParallelSprint:
		return "parallel-sprint"
	case DVFSSprint:
		return "dvfs-sprint"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Config describes a sprint-system run.
type Config struct {
	// Policy is the execution mode.
	Policy Policy

	// SprintCores is the sprint width (the paper's design point is 16).
	SprintCores int

	// Thermal is the package/PCM design; the paper's default stack melts
	// 150 mg of 60 °C PCM.
	Thermal thermal.StackConfig

	// ThermalTimeScale divides every thermal capacitance so sprint
	// budgets match simulation-scale workloads (DESIGN.md §4 item 6).
	// 1 simulates the physical stack; the experiments use 150.
	ThermalTimeScale float64

	// Arch is the machine configuration; Cores is overridden per policy.
	Arch archsim.Config

	// MemBandwidthMult scales per-channel bandwidth (Figure 10's 2×
	// ablation).
	MemBandwidthMult float64

	// TripMarginC is how far below TJmax the software migration triggers
	// (the §7 "budget nearly exhausted" early warning).
	TripMarginC float64

	// HardwareThrottleOnly disables the software migration path so the §7
	// hardware frequency-throttle fallback engages instead (ablation).
	HardwareThrottleOnly bool

	// ActivationDelayS models the §5.3 safe power-on ramp before sprint
	// computation starts (128 µs; negligible against sprint lengths).
	ActivationDelayS float64

	// RecordTrace captures junction temperature and power time series.
	RecordTrace bool
}

// DefaultConfig returns the paper's 16-core sprint platform.
func DefaultConfig(policy Policy) Config {
	return Config{
		Policy:           policy,
		SprintCores:      16,
		Thermal:          thermal.DefaultStackConfig(),
		ThermalTimeScale: 70,
		Arch:             archsim.DefaultConfig(16),
		MemBandwidthMult: 1,
		TripMarginC:      1.0,
		ActivationDelayS: 128e-6,
	}
}

// maxSubstepsPerSample bounds the thermal substeps one machine sample
// may take: the sample period (Arch.SamplePeriodPs) over the time-scaled
// stack's stable step (thermal.Network.StableStep). Past it a transient
// of the stack is shorter than a sample, so the junction overshoots TJmax
// before the trip check at the sample's end sees it: the default stack
// needs 7.2 substeps at time scale 1e4 and peaks at 69.7 °C, but 71.6 at
// 1e5 and peaks at 74.5 °C. The substep count also grows with the scale
// without bound (7e26 at 1e30, where it overflows and the stack never
// steps). The most the repository uses is 28.9, the 1.5 mg stack at
// 1500.
const maxSubstepsPerSample = 64

// minMemBandwidthMult is the smallest MemBandwidthMult a config may
// take. A run's wall time grows as 1/MemBandwidthMult once memory bounds
// it (0.72 s for sobel at size A and 1e-4), so a tiny multiplier hangs
// the run rather than failing it.
const minMemBandwidthMult = 1e-3

// Validate reports configuration errors. Config's own float fields must
// be finite: a NaN passes every ordering check, and reaches the thermal
// stack (a NaN time scale), the memory channels (a NaN bandwidth hangs
// the machine), or the trip test (a NaN margin never trips). A finite
// time scale must keep the scaled stack within maxSubstepsPerSample, and
// the bandwidth multiplier must be at least minMemBandwidthMult.
func (c Config) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"thermal time scale", c.ThermalTimeScale}, {"bandwidth multiplier", c.MemBandwidthMult},
		{"trip margin", c.TripMarginC}, {"activation delay", c.ActivationDelayS},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("core: %s must be finite, got %g", f.name, f.v)
		}
	}
	switch {
	case c.SprintCores <= 0 || c.SprintCores > 64:
		return fmt.Errorf("core: sprint cores must be in [1,64], got %d", c.SprintCores)
	case c.ThermalTimeScale <= 0:
		return fmt.Errorf("core: thermal time scale must be positive")
	case c.MemBandwidthMult < minMemBandwidthMult:
		return fmt.Errorf("core: bandwidth multiplier must be at least %g, got %g", minMemBandwidthMult, c.MemBandwidthMult)
	case c.TripMarginC < 0:
		return fmt.Errorf("core: trip margin must be non-negative")
	case c.ActivationDelayS < 0:
		return fmt.Errorf("core: activation delay must be non-negative")
	}
	if err := c.Thermal.Validate(); err != nil {
		return err
	}
	scaled := c.Thermal.TimeScaled(c.ThermalTimeScale)
	if err := scaled.Validate(); err != nil {
		return fmt.Errorf("core: thermal time scale %g: %w", c.ThermalTimeScale, err)
	}
	if n := float64(c.Arch.SamplePeriodPs) * 1e-12 / scaled.Build().Net.StableStep(); n > maxSubstepsPerSample {
		return fmt.Errorf("core: thermal time scale %g needs %.3g thermal substeps per machine sample, more than %d", c.ThermalTimeScale, n, maxSubstepsPerSample)
	}
	return nil
}

// Machine returns c with its controller-only fields zeroed: Thermal,
// ThermalTimeScale, TripMarginC, HardwareThrottleOnly, RecordTrace and
// ActivationDelayS. Only the §7 controller reads those — it steps the
// thermal stack on each sample, checks the trip point, records traces
// and adds the activation ramp to the elapsed time — so configs with
// equal Machine() drive one machine through the same samples until a
// controller steers it. RunShared runs such configs on one machine.
func (c Config) Machine() Config {
	c.Thermal = thermal.StackConfig{}
	c.ThermalTimeScale = 0
	c.TripMarginC = 0
	c.HardwareThrottleOnly = false
	c.RecordTrace = false
	c.ActivationDelayS = 0
	return c
}

// DVFSBoost returns the paper's idealized voltage-boost multiplier for a
// given power headroom: ∛headroom (≈2.52 for 16×), since power scales as
// V²f ≈ f³ when voltage tracks frequency (§8.4).
func DVFSBoost(headroom float64) float64 {
	if headroom <= 0 {
		return 1
	}
	return math.Cbrt(headroom)
}

// Result summarizes a run.
type Result struct {
	Policy Policy

	// ElapsedS is the task response time in (simulated) seconds, including
	// the activation ramp.
	ElapsedS float64
	// EnergyJ is total dynamic energy.
	EnergyJ float64

	// SprintExhausted reports whether the thermal budget ran out before
	// the computation finished; SprintEndS is when (seconds).
	SprintExhausted bool
	SprintEndS      float64
	// Migrated / Throttled report which §7 exit path ran.
	Migrated  bool
	Throttled bool

	// PeakJunctionC is the maximum junction temperature reached.
	PeakJunctionC float64
	// MeltFraction is the final PCM melt state.
	MeltFraction float64

	// Machine carries the detailed architectural statistics.
	Machine archsim.Result

	// JunctionTrace and PowerTrace are captured when RecordTrace is set.
	JunctionTrace *series.Series
	PowerTrace    *series.Series
}

// Speedup returns baseline.ElapsedS / r.ElapsedS — the paper's
// responsiveness metric.
func (r Result) Speedup(baseline Result) float64 {
	if r.ElapsedS <= 0 {
		return math.Inf(1)
	}
	return baseline.ElapsedS / r.ElapsedS
}

// NormalizedEnergy returns r.EnergyJ / baseline.EnergyJ (Figure 11).
func (r Result) NormalizedEnergy(baseline Result) float64 {
	if baseline.EnergyJ <= 0 {
		return math.NaN()
	}
	return r.EnergyJ / baseline.EnergyJ
}

// Run executes a freshly built program under the configured policy.
// Programs are single-use (their streams advance as they execute), so
// callers build a new rt.Program per run. Run is RunShared with one
// member, which never drops out.
func Run(prog rt.Program, cfg Config) (Result, error) {
	res, _, err := RunShared(prog, []Config{cfg})
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// RunShared executes prog once on one machine for every config in cfgs,
// which must agree on Machine(). Each member's controller steps its own
// thermal stack on every sample. Until a controller would steer the
// machine, every member observes the same samples as it would alone. A
// member whose controller would issue a command while another member is
// still live drops out instead: its index is returned in dropped, its
// Result is left zero, and the caller reruns it alone on a fresh
// program. The last live member's command is applied, so its run, like
// every member's that never steers, equals a standalone Run.
func RunShared(prog rt.Program, cfgs []Config) (res []Result, dropped []int, err error) {
	if len(cfgs) == 0 {
		return nil, nil, fmt.Errorf("core: no configs to run")
	}
	for i, c := range cfgs {
		if err := c.Validate(); err != nil {
			return nil, nil, err
		}
		if c.Machine() != cfgs[0].Machine() {
			return nil, nil, fmt.Errorf("core: config %d drives a different machine than config 0", i)
		}
	}
	cfg := cfgs[0]

	machineCores := 1
	if cfg.Policy == ParallelSprint {
		machineCores = cfg.SprintCores
	}
	arch := cfg.Arch
	arch.Cores = machineCores
	arch.Mem.ChannelBytesPerSec *= cfg.MemBandwidthMult
	if cfg.Policy == DVFSSprint {
		// The paper's §8.4 comparison is an *idealized* DVFS: the whole
		// chip, uncore included, speeds up with the boost. Scale the
		// memory system accordingly (this slightly flatters the post-trip
		// phase of budget-limited runs; see EXPERIMENTS.md).
		boost := DVFSBoost(float64(cfg.SprintCores))
		arch.Mem.LLCHitPs = uint64(float64(arch.Mem.LLCHitPs) / boost)
		arch.Mem.CoherencePs = uint64(float64(arch.Mem.CoherencePs) / boost)
		arch.Mem.MemLatencyPs = uint64(float64(arch.Mem.MemLatencyPs) / boost)
		arch.Mem.ChannelBytesPerSec *= boost
	}

	sched := rt.NewScheduler(prog, machineCores)
	m, err := archsim.New(arch, sched)
	if err != nil {
		return nil, nil, err
	}

	g := &group{live: len(cfgs)}
	dtS := float64(arch.SamplePeriodPs) * 1e-12
	for _, c := range cfgs {
		ctl := &controller{
			cfg:    c,
			stack:  c.Thermal.TimeScaled(c.ThermalTimeScale).Build(),
			dtS:    dtS,
			result: Result{Policy: c.Policy},
		}
		if c.RecordTrace {
			ctl.result.JunctionTrace = series.New("junction", "C")
			ctl.result.PowerTrace = series.New("power", "W")
		}
		g.members = append(g.members, ctl)
	}

	switch cfg.Policy {
	case DVFSSprint:
		boost := DVFSBoost(float64(cfg.SprintCores))
		m.SetAllFrequency(boost, boost)
	case Sustained:
		// Nominal single-core operation; nothing to arm.
	case ParallelSprint:
		// All cores at nominal frequency; the width is the sprint.
	}

	mres, err := m.Run(g)
	if err != nil {
		return nil, nil, err
	}
	res = make([]Result, len(cfgs))
	for i, ctl := range g.members {
		if ctl.dropped {
			dropped = append(dropped, i)
			continue
		}
		r := ctl.result
		r.Machine = mres
		if i > 0 {
			// Members never share mutable state.
			r.Machine.PerCore = slices.Clone(mres.PerCore)
		}
		r.ElapsedS = mres.ElapsedSeconds()
		if ctl.cfg.Policy != Sustained {
			// The §5.3 activation ramp delays only sprint starts; the
			// sustained core is already powered.
			r.ElapsedS += ctl.cfg.ActivationDelayS
		}
		r.EnergyJ = mres.EnergyJ
		r.Migrated = mres.Migrated
		r.Throttled = mres.Throttled
		r.PeakJunctionC = ctl.peakC
		r.MeltFraction = ctl.stack.MeltFraction()
		res[i] = r
	}
	return res, dropped, nil
}

// group fans each machine sample out to the live members' controllers and
// lets only the last live member steer.
type group struct {
	members []*controller
	live    int
}

// OnSample implements archsim.Controller.
func (g *group) OnSample(m *archsim.Machine, s archsim.Sample) archsim.Command {
	var steer archsim.Command
	for _, c := range g.members {
		if c.dropped {
			continue
		}
		cmd := c.OnSample(m, s)
		if cmd.Kind == archsim.CmdNone {
			continue
		}
		if g.live > 1 {
			// Steering would change the machine the other members
			// observe: this member leaves the run and is rerun alone.
			c.dropped = true
			g.live--
			continue
		}
		steer = cmd
	}
	return steer
}

// controller couples machine samples to the thermal stack and issues the
// §7 sprint-exit commands.
type controller struct {
	cfg   Config
	stack *thermal.Stack
	dtS   float64

	tripped bool
	dropped bool
	peakC   float64

	result Result
}

// OnSample steps the member's stack over one sample and returns the §7
// command the member would issue.
func (c *controller) OnSample(m *archsim.Machine, s archsim.Sample) archsim.Command {
	powerW := s.IntervalJ / c.dtS
	c.stack.Step(c.dtS, powerW)
	tj := c.stack.JunctionC()
	if tj > c.peakC {
		c.peakC = tj
	}
	tS := float64(s.TimePs) * 1e-12
	if c.result.JunctionTrace != nil {
		c.result.JunctionTrace.Append(tS, tj)
		c.result.PowerTrace.Append(tS, powerW)
	}
	if c.tripped {
		return archsim.Command{}
	}

	sprinting := false
	switch c.cfg.Policy {
	case ParallelSprint:
		sprinting = s.ActiveCores > 1
	case DVFSSprint:
		sprinting = m.Core(0).FrequencyMult() > 1.01
	}
	if !sprinting {
		return archsim.Command{}
	}

	softTrip := c.cfg.Thermal.TJMaxC - c.cfg.TripMarginC
	switch {
	case c.cfg.HardwareThrottleOnly && tj >= c.cfg.Thermal.TJMaxC:
		c.trip(tS)
		return archsim.Command{Kind: archsim.CmdThrottleEmergency}
	case !c.cfg.HardwareThrottleOnly && tj >= softTrip:
		c.trip(tS)
		if c.cfg.Policy == DVFSSprint {
			return archsim.Command{Kind: archsim.CmdSetFrequency, Freq: 1, Voltage: 1}
		}
		return archsim.Command{Kind: archsim.CmdMigrateToCore0}
	}
	return archsim.Command{}
}

func (c *controller) trip(tS float64) {
	c.tripped = true
	c.result.SprintExhausted = true
	c.result.SprintEndS = tS
}
