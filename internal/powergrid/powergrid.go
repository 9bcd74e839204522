// Package powergrid models the paper's Section 5 power-delivery study: an
// RLC power-distribution network (PDN) from voltage regulator through board
// and package to an on-chip grid of power-gated cores (Figure 5), exercised
// by core-activation schedules to measure supply integrity (Figure 6).
//
// The question the model answers is the paper's: how quickly can the 16
// sprint cores be activated without bouncing the supply rails outside
// tolerance? Abrupt activation (all cores within 1 ns) violates a 2% bound;
// a 128 µs uniform linear activation schedule does not.
package powergrid

import (
	"fmt"
	"math"

	"sprinting/internal/circuit"
	"sprinting/internal/series"
)

// Config parameterizes the Figure 5 RLC network. Component values follow
// the figure (which draws on Popovich et al.'s PDN models).
type Config struct {
	// SupplyV is the regulator output (the paper uses 1.2 V, ideal).
	SupplyV float64

	// NumCores is the number of power-gated cores on the shared grid.
	NumCores int

	// AvgCoreCurrentA is the average current drawn by one active core
	// (Figure 5 labels the core model I(avg) = 0.5 A, I(peak) = 1 A; the
	// droop analysis uses the average).
	AvgCoreCurrentA float64

	// Board-level supply and ground line impedances.
	BoardSupplyR, BoardSupplyL float64
	BoardGroundR, BoardGroundL float64

	// Package-level line impedances (shared) and per-tap impedance into the
	// on-chip grid; the package is modeled as a distributed set of taps.
	PackageSupplyR, PackageSupplyL float64
	PackageGroundR, PackageGroundL float64
	PackageTapR, PackageTapL       float64
	NumPackageTaps                 int

	// On-chip grid segment impedances between adjacent cores (supply and
	// ground rails modeled separately, per §5.1).
	GridSupplyR, GridSupplyL float64
	GridGroundR, GridGroundL float64

	// Decoupling at the regulator/board interface and the board/package
	// interface, with effective series resistance.
	BoardDecapF, BoardDecapESR     float64
	PackageDecapF, PackageDecapESR float64

	// Per-core on-chip decap with series parasitics (Fig 5: 16 pF, 90 mΩ,
	// 64 fH).
	CoreDecapF, CoreDecapESR, CoreDecapESL float64

	// ToleranceFrac is the allowed supply fluctuation (the paper uses
	// "typically 1–2%"; its pass/fail judgments use 2%).
	ToleranceFrac float64
}

// DefaultConfig returns the Figure 5 model for a 16-core sprint chip.
func DefaultConfig() Config {
	return Config{
		SupplyV:         1.2,
		NumCores:        16,
		AvgCoreCurrentA: 0.5,

		BoardSupplyR: 0.5e-3, BoardSupplyL: 4e-9,
		BoardGroundR: 150e-6, BoardGroundL: 1e-9,

		PackageSupplyR: 0.3e-3, PackageSupplyL: 0.1e-9,
		PackageGroundR: 0.1e-3, PackageGroundL: 0.05e-9,
		PackageTapR: 0.5e-3, PackageTapL: 1e-12,
		NumPackageTaps: 4,

		GridSupplyR: 1.6e-3, GridSupplyL: 16e-12,
		GridGroundR: 0.8e-3, GridGroundL: 128e-15,

		BoardDecapF: 1e-3, BoardDecapESR: 0.2e-3,
		PackageDecapF: 30e-6, PackageDecapESR: 0.4e-3,

		CoreDecapF: 20e-9, CoreDecapESR: 90e-3, CoreDecapESL: 64e-15,

		ToleranceFrac: 0.02,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.SupplyV <= 0:
		return fmt.Errorf("powergrid: supply voltage must be positive")
	case c.NumCores <= 0:
		return fmt.Errorf("powergrid: need at least one core")
	case c.NumPackageTaps <= 0 || c.NumPackageTaps > c.NumCores:
		return fmt.Errorf("powergrid: package taps must be in [1, cores]")
	case c.ToleranceFrac <= 0 || c.ToleranceFrac >= 1:
		return fmt.Errorf("powergrid: tolerance fraction must be in (0,1)")
	case c.AvgCoreCurrentA <= 0:
		return fmt.Errorf("powergrid: core current must be positive")
	}
	return nil
}

// Schedule describes a core-activation schedule (§5.2–5.3).
type Schedule struct {
	// Name for reporting ("abrupt", "ramp 1.28us", ...).
	Name string
	// StartS is when activation begins.
	StartS float64
	// RampS is the total activation window: core k begins at
	// StartS + k·RampS/n. Zero means all cores start together.
	RampS float64
	// UnitRiseS is the local 0→full rise time of one core's current (the
	// paper's "within 1 ns" abrupt case uses 1 ns).
	UnitRiseS float64
}

// Abrupt is the §5.2 schedule: all cores activated within one nanosecond.
func Abrupt(startS float64) Schedule {
	return Schedule{Name: "abrupt (1ns)", StartS: startS, RampS: 0, UnitRiseS: 1e-9}
}

// LinearRamp is the §5.3 schedule: uniform staggered activation across
// rampS seconds.
func LinearRamp(startS, rampS float64) Schedule {
	return Schedule{
		Name:      fmt.Sprintf("linear ramp %.3gs", rampS),
		StartS:    startS,
		RampS:     rampS,
		UnitRiseS: 1e-9,
	}
}

// Grid is an instantiated PDN ready for transient simulation.
type Grid struct {
	Config Config

	ckt       *circuit.Circuit
	coreNodes []circuit.Node // per-core on-chip supply nodes
	gndNodes  []circuit.Node // per-core on-chip ground nodes
}

// Build constructs the Figure 5 netlist with per-core current loads
// following the given schedule.
func Build(cfg Config, sched Schedule) (*Grid, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ckt := circuit.New()
	g := &Grid{Config: cfg, ckt: ckt}

	reg := ckt.Node("regulator+")
	boardP := ckt.Node("board+")
	boardG := ckt.Node("board-")
	pkgP := ckt.Node("package+")
	pkgG := ckt.Node("package-")

	// Ideal regulator between the rails; its negative terminal is the
	// global reference.
	ckt.V(reg, circuit.Ground, circuit.DC(cfg.SupplyV))

	// Board-level supply and ground lines.
	rl(ckt, reg, boardP, cfg.BoardSupplyR, cfg.BoardSupplyL)
	rl(ckt, circuit.Ground, boardG, cfg.BoardGroundR, cfg.BoardGroundL)

	// Bulk decap at the board.
	decap(ckt, boardP, boardG, cfg.BoardDecapF, cfg.BoardDecapESR, 0)

	// Package-level lines.
	rl(ckt, boardP, pkgP, cfg.PackageSupplyR, cfg.PackageSupplyL)
	rl(ckt, boardG, pkgG, cfg.PackageGroundR, cfg.PackageGroundL)
	decap(ckt, pkgP, pkgG, cfg.PackageDecapF, cfg.PackageDecapESR, 0)

	// On-chip grid: a chain of per-core supply and ground nodes.
	g.coreNodes = make([]circuit.Node, cfg.NumCores)
	g.gndNodes = make([]circuit.Node, cfg.NumCores)
	for i := 0; i < cfg.NumCores; i++ {
		g.coreNodes[i] = ckt.Node(fmt.Sprintf("chip+%d", i))
		g.gndNodes[i] = ckt.Node(fmt.Sprintf("chip-%d", i))
		if i > 0 {
			rl(ckt, g.coreNodes[i-1], g.coreNodes[i], cfg.GridSupplyR, cfg.GridSupplyL)
			rl(ckt, g.gndNodes[i-1], g.gndNodes[i], cfg.GridGroundR, cfg.GridGroundL)
		}
		decap(ckt, g.coreNodes[i], g.gndNodes[i], cfg.CoreDecapF, cfg.CoreDecapESR, cfg.CoreDecapESL)
	}

	// Distributed package taps feed evenly spaced grid positions.
	for t := 0; t < cfg.NumPackageTaps; t++ {
		pos := t * (cfg.NumCores - 1) / max(1, cfg.NumPackageTaps-1)
		if cfg.NumPackageTaps == 1 {
			pos = 0
		}
		rl(ckt, pkgP, g.coreNodes[pos], cfg.PackageTapR, cfg.PackageTapL)
		rl(ckt, pkgG, g.gndNodes[pos], cfg.PackageTapR, cfg.PackageTapL)
	}

	// Per-core load currents per the activation schedule: core k activates
	// at StartS + k·RampS/n.
	for i := 0; i < cfg.NumCores; i++ {
		start := sched.StartS
		if sched.RampS > 0 {
			start += sched.RampS * float64(i) / float64(cfg.NumCores)
		}
		w := circuit.PulseRamp(start, sched.UnitRiseS, cfg.AvgCoreCurrentA)
		ckt.I(g.coreNodes[i], g.gndNodes[i], w)
	}
	return g, nil
}

func rl(ckt *circuit.Circuit, a, b circuit.Node, r, l float64) {
	if l <= 0 {
		ckt.R(a, b, r)
		return
	}
	mid := ckt.Node("rl")
	ckt.R(a, mid, r)
	ckt.L(mid, b, l)
}

func decap(ckt *circuit.Circuit, p, g circuit.Node, c, esr, esl float64) {
	if c <= 0 {
		return
	}
	n := p
	if esr > 0 {
		mid := ckt.Node("esr")
		ckt.R(n, mid, esr)
		n = mid
	}
	if esl > 0 {
		mid := ckt.Node("esl")
		ckt.L(n, mid, esl)
		n = mid
	}
	ckt.C(n, g, c)
}

// Result summarizes a supply-integrity transient (one Figure 6 panel).
type Result struct {
	Schedule Schedule

	// Supply is the differential supply voltage (worst core position) over
	// time.
	Supply *series.Series

	// MinV is the minimum differential supply voltage seen anywhere.
	MinV float64
	// FinalV is the settled voltage at the end of the run; the difference
	// from nominal is the resistive droop (§5.3 reports ≈10 mV).
	FinalV float64
	// MaxDeviationFrac is the largest |v − nominal|/nominal during or after
	// activation.
	MaxDeviationFrac float64
	// WithinTolerance is the paper's pass/fail: did the supply stay within
	// ToleranceFrac of nominal at all times?
	WithinTolerance bool
	// SettleS is the time from activation start until the supply remains
	// within ToleranceFrac of its settling value (§5.2 reports 2.53 µs for
	// abrupt activation).
	SettleS float64
}

// SimOptions control the transient run.
type SimOptions struct {
	// FineDt is the timestep through the activation window; CoarseDt is
	// used afterwards until Horizon.
	FineDt, CoarseDt float64
	// FineUntil is how long after activation start to keep the fine step.
	FineUntil float64
	// Horizon is the total simulated time.
	Horizon float64
	// SettleBandFrac is the band (fraction of the settling voltage) used
	// for the SettleS measurement. Zero selects 0.5%.
	SettleBandFrac float64
}

// DefaultSimOptions resolves the board-level resonances (period ≈ 2.4 µs)
// finely through the activation window and then coarsens to the settling
// horizon. Slow ramps use a coarser fine step: their per-core excitations
// are small and the dominant dynamics are microsecond-scale.
func DefaultSimOptions(sched Schedule) SimOptions {
	fineDt := 2e-9
	if sched.RampS > 5e-6 {
		fineDt = 20e-9
	}
	fineUntil := sched.StartS + sched.RampS + 10e-6
	return SimOptions{
		FineDt:    fineDt,
		CoarseDt:  100e-9,
		FineUntil: fineUntil,
		Horizon:   fineUntil + 290e-6,
	}
}

// maxSteps caps the timesteps one Simulate call takes, fine and coarse
// together. Figure 6's slowest schedule, the 128 µs ramp, takes about
// 10⁴, so the cap leaves a hundredfold margin, while a huge activation
// window fails at once instead of running for hours on an ever-growing
// trace.
const maxSteps = 1_000_000

// Simulate runs the supply-integrity transient for a schedule and returns
// the Figure 6 style result. A schedule whose start or ramp is negative or
// not finite, a timestep that is not positive and finite, and a run of
// more than maxSteps (10⁶) timesteps are errors.
func Simulate(cfg Config, sched Schedule, opt SimOptions) (*Result, error) {
	if err := checkRun(sched, opt); err != nil {
		return nil, err
	}
	grid, err := Build(cfg, sched)
	if err != nil {
		return nil, err
	}
	sim, err := grid.ckt.Transient(opt.FineDt)
	if err != nil {
		return nil, err
	}
	// Start from the charged-rail operating point so the transient isolates
	// the activation event rather than the power-up.
	if err := sim.InitDC(); err != nil {
		return nil, err
	}
	res := &Result{
		Schedule: sched,
		Supply:   series.New("supply", "V"),
		MinV:     math.Inf(1),
	}
	// The observed rail is the differential voltage at the grid position
	// farthest from the package taps... in practice the paper plots one
	// representative supply trace; we track the worst instantaneous core.
	observe := func(s *circuit.Sim) {
		worst := math.Inf(1)
		for i := range grid.coreNodes {
			v := s.V(grid.coreNodes[i]) - s.V(grid.gndNodes[i])
			if v < worst {
				worst = v
			}
		}
		res.Supply.Append(s.Time(), worst)
		if worst < res.MinV {
			res.MinV = worst
		}
	}
	// Let the rails charge up before activation (pre-charge phase): run
	// until the schedule start with the coarse step if there is room.
	sim.RunUntil(opt.FineUntil, observe)
	if err := sim.SetDt(opt.CoarseDt); err != nil {
		return nil, err
	}
	sim.RunUntil(opt.Horizon, observe)
	if len(res.Supply.Points()) == 0 {
		return nil, fmt.Errorf("powergrid: a %g s horizon ends before the first timestep", opt.Horizon)
	}

	res.FinalV = res.Supply.Last().V
	nominal := cfg.SupplyV
	maxDev := 0.0
	for _, p := range res.Supply.Points() {
		if p.T < sched.StartS {
			continue
		}
		if d := math.Abs(p.V-nominal) / nominal; d > maxDev {
			maxDev = d
		}
	}
	res.MaxDeviationFrac = maxDev
	res.WithinTolerance = maxDev <= cfg.ToleranceFrac
	band := opt.SettleBandFrac
	if band <= 0 {
		band = 0.005
	}
	if st, ok := res.Supply.SettleTime(band * res.FinalV); ok {
		res.SettleS = math.Max(0, st-sched.StartS)
	}
	return res, nil
}

// checkRun reports the first reason Simulate refuses a schedule and its
// options.
func checkRun(sched Schedule, opt SimOptions) error {
	switch {
	case !(sched.StartS >= 0) || math.IsInf(sched.StartS, 1):
		return fmt.Errorf("powergrid: activation start %g s must be finite and non-negative", sched.StartS)
	case !(sched.RampS >= 0) || math.IsInf(sched.RampS, 1):
		return fmt.Errorf("powergrid: activation ramp %g s must be finite and non-negative", sched.RampS)
	case !(opt.FineDt > 0) || math.IsInf(opt.FineDt, 1) || !(opt.CoarseDt > 0) || math.IsInf(opt.CoarseDt, 1):
		return fmt.Errorf("powergrid: timesteps must be positive and finite (fine %g s, coarse %g s)", opt.FineDt, opt.CoarseDt)
	}
	steps := math.Max(0, opt.FineUntil)/opt.FineDt + math.Max(0, opt.Horizon-opt.FineUntil)/opt.CoarseDt
	if !(steps <= maxSteps) {
		return fmt.Errorf("powergrid: a %g s horizon takes %.3g timesteps, over the %d-step cap", opt.Horizon, steps, maxSteps)
	}
	return nil
}

// NetlistSummary renders the Figure 5 model as human-readable rows
// (element, value) for the fig5 experiment driver.
func (c Config) NetlistSummary() [][2]string {
	f := func(format string, args ...any) string { return fmt.Sprintf(format, args...) }
	return [][2]string{
		{"regulator", f("ideal %.2f V", c.SupplyV)},
		{"board supply line", f("%.3g mΩ + %.3g nH", c.BoardSupplyR*1e3, c.BoardSupplyL*1e9)},
		{"board ground line", f("%.3g mΩ + %.3g nH", c.BoardGroundR*1e3, c.BoardGroundL*1e9)},
		{"board decap", f("%.3g mF (ESR %.3g mΩ)", c.BoardDecapF*1e3, c.BoardDecapESR*1e3)},
		{"package supply line", f("%.3g mΩ + %.3g nH", c.PackageSupplyR*1e3, c.PackageSupplyL*1e9)},
		{"package ground line", f("%.3g mΩ + %.3g nH", c.PackageGroundR*1e3, c.PackageGroundL*1e9)},
		{"package decap", f("%.3g µF (ESR %.3g mΩ)", c.PackageDecapF*1e6, c.PackageDecapESR*1e3)},
		{"package taps", f("%d × (%.3g mΩ + %.3g pH)", c.NumPackageTaps, c.PackageTapR*1e3, c.PackageTapL*1e12)},
		{"grid supply segment", f("%.3g mΩ + %.3g pH", c.GridSupplyR*1e3, c.GridSupplyL*1e12)},
		{"grid ground segment", f("%.3g mΩ + %.3g fH", c.GridGroundR*1e3, c.GridGroundL*1e15)},
		{"core decap", f("%.3g nF (ESR %.3g mΩ, ESL %.3g fH)", c.CoreDecapF*1e9, c.CoreDecapESR*1e3, c.CoreDecapESL*1e15)},
		{"core load", f("%d × %.3g A avg (power-gated)", c.NumCores, c.AvgCoreCurrentA)},
	}
}

// TotalSupplyCurrentA returns the steady per-core total current demand.
func (c Config) TotalSupplyCurrentA() float64 {
	return float64(c.NumCores) * c.AvgCoreCurrentA
}

// EstimatedDroopV returns the first-order resistive droop at full load:
// total current × (series supply + ground resistance including parallel
// taps). Used as a sanity anchor for the simulated FinalV.
func (c Config) EstimatedDroopV() float64 {
	i := c.TotalSupplyCurrentA()
	taps := float64(c.NumPackageTaps)
	r := c.BoardSupplyR + c.BoardGroundR + c.PackageSupplyR + c.PackageGroundR +
		2*c.PackageTapR/taps
	return i * r
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
