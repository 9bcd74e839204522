// Package governor implements the §7 activity-based sprint management the
// paper's runtime relies on between sprints: instead of waiting for a
// thermal emergency, the hardware monitors energy dissipated since sprint
// initiation against a model-derived budget, decides whether a requested
// sprint may start, at what intensity, and how long the system must cool
// before the next full-intensity sprint.
//
// The governor is the piece a product integration would sit on top of: the
// UI asks "can I sprint now, and for how long?" before launching a burst,
// and reports actual energy afterwards so the budget tracks reality (the
// paper's dynamic thermal management framing, cf. Brooks & Martonosi).
package governor

import (
	"fmt"
	"math"

	"sprinting/internal/thermal"
)

// Config parameterizes the governor.
type Config struct {
	// Design is the thermal stack whose budget is being managed.
	Design thermal.StackConfig
	// SprintPowerW is the full-intensity sprint power (16 W).
	SprintPowerW float64
	// NominalPowerW is the sustained power (≈1 W); the budget refills at
	// the rate the package drains heat beyond it.
	NominalPowerW float64
	// SafetyFrac holds back a fraction of the theoretical budget
	// (activity-based estimates are approximate; the §7 hardware throttle
	// remains the backstop).
	SafetyFrac float64
}

// DefaultConfig returns the paper's 16 W / 1 W platform with a 10% guard
// band.
func DefaultConfig() Config {
	return Config{
		Design:        thermal.DefaultStackConfig(),
		SprintPowerW:  16,
		NominalPowerW: 1,
		SafetyFrac:    0.10,
	}
}

// Validate reports configuration errors. Every float field must be
// finite: a NaN passes every range check below and would leave the
// budget arithmetic poisoned.
func (c Config) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"sprint power", c.SprintPowerW}, {"nominal power", c.NominalPowerW}, {"safety fraction", c.SafetyFrac},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("governor: %s must be finite, got %g", f.name, f.v)
		}
	}
	switch {
	case c.SprintPowerW <= 0:
		return fmt.Errorf("governor: sprint power must be positive")
	case c.NominalPowerW < 0 || c.NominalPowerW >= c.SprintPowerW:
		return fmt.Errorf("governor: nominal power must be in [0, sprint)")
	case c.SafetyFrac < 0 || c.SafetyFrac >= 1:
		return fmt.Errorf("governor: safety fraction must be in [0, 1)")
	}
	return c.Design.Validate()
}

// Governor tracks the remaining sprint energy budget over time.
type Governor struct {
	cfg Config

	// capacityJ is the usable (guard-banded) sprint energy budget.
	capacityJ float64
	// storedJ is the heat currently parked in the package above ambient
	// (0 = fully cooled, capacityJ = exhausted).
	storedJ float64
	// drainW is the rate heat leaves the package toward ambient while not
	// sprinting.
	drainW float64
	// nowS is the governor's clock.
	nowS float64
}

// New builds a governor; it panics on an invalid configuration (callers
// validate user-supplied configs first).
func New(cfg Config) *Governor {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cap := thermal.SprintEnergyBudgetJ(cfg.Design, cfg.SprintPowerW) * (1 - cfg.SafetyFrac)
	// While idle (or at nominal), the package sheds heat at roughly the
	// sustainable power; the §4.5 rule of thumb (cooldown = sprint ×
	// power ratio) follows from exactly this rate.
	drain := cfg.Design.SustainedPowerBudgetW()
	return &Governor{cfg: cfg, capacityJ: cap, drainW: drain}
}

// CapacityJ returns the usable sprint budget in joules.
func (g *Governor) CapacityJ() float64 { return g.capacityJ }

// DrainW returns the rate, in watts, at which the budget refills.
func (g *Governor) DrainW() float64 { return g.drainW }

// Retarget moves the governor to a new operating environment — a changed
// budget capacity and drain rate — while preserving the heat currently
// stored in the package. The fleet scenario engine uses it for ambient
// temperature swings (a hotter ambient shrinks both the usable budget and
// the drain toward it) and for heterogeneous node classes whose budgets
// are scaled relative to the design point. Stored heat above the new
// capacity is clamped: the package cannot hold more than the budget says,
// so a shrink lands the governor at exactly exhausted rather than in an
// unreachable negative-remaining state.
func (g *Governor) Retarget(capacityJ, drainW float64) {
	if capacityJ < 0 {
		capacityJ = 0
	}
	g.capacityJ = capacityJ
	g.drainW = drainW
	if g.storedJ > g.capacityJ {
		g.storedJ = g.capacityJ
	}
}

// RemainingJ returns the currently available sprint energy.
func (g *Governor) RemainingJ() float64 { return g.capacityJ - g.storedJ }

// Now returns the governor's clock in seconds.
func (g *Governor) Now() float64 { return g.nowS }

// MaxSprintS returns how long a sprint at powerW could run right now
// before exhausting the remaining budget (∞ if powerW is sustainable).
func (g *Governor) MaxSprintS(powerW float64) float64 {
	net := powerW - g.drainW
	if net <= 0 {
		return math.Inf(1)
	}
	return g.RemainingJ() / net
}

// CanSprint reports whether a sprint of the given power and duration fits
// the remaining budget.
func (g *Governor) CanSprint(powerW, durationS float64) bool {
	if powerW <= 0 || durationS <= 0 {
		return false
	}
	return durationS <= g.MaxSprintS(powerW)
}

// MaxIntensityW returns the highest sprint power that can run for
// durationS within the remaining budget (at least the nominal power).
func (g *Governor) MaxIntensityW(durationS float64) float64 {
	if durationS <= 0 {
		return g.cfg.SprintPowerW
	}
	p := g.RemainingJ()/durationS + g.drainW
	return math.Min(math.Max(p, g.cfg.NominalPowerW), g.cfg.SprintPowerW)
}

// RecordSprint charges an executed burst against the budget and advances
// the clock. It reports the net budget consumed; a burst below the drain
// rate recovers budget (the package sheds more heat than the burst adds)
// at the drain rate minus the burst power — slower than a pure Idle —
// and the result is negative by the amount recovered.
func (g *Governor) RecordSprint(powerW, durationS float64) float64 {
	if powerW <= 0 || durationS <= 0 {
		return 0
	}
	before := g.storedJ
	net := (powerW - g.drainW) * durationS
	g.storedJ = min(g.capacityJ, max(0, g.storedJ+net))
	g.nowS += durationS
	return g.storedJ - before
}

// Idle advances the clock with the system at or below nominal power,
// refilling the budget at the drain rate.
func (g *Governor) Idle(durationS float64) {
	if durationS <= 0 {
		return
	}
	g.storedJ = max(0, g.storedJ-g.drainW*durationS)
	g.nowS += durationS
}

// Sustain books durationS seconds of service at the nominal power and
// returns the energy billed: the one booking of every degraded tail,
// rack-denied or stalled service and sustained-only session.
//
//sprint:hotpath
func (g *Governor) Sustain(durationS float64) (energyJ float64) {
	g.Idle(durationS) // at nominal the thermal budget refills
	return g.cfg.NominalPowerW * durationS
}

// Serve runs the §7 governed service discipline on workS single-core
// seconds of work: full sprint width while the budget lasts, then the
// sustained core. It books the service against the budget, advances the
// clock by the service time, and reports the service time, the energy
// billed (sprintW while sprinting, the configured nominal power after),
// the sprint phase's duration, and whether the whole service ran at full
// width. The sprint phase is always a contiguous prefix of the service:
// the budget only drains while sprinting, so once degraded a service
// never sprints again. width and sprintW are the service's parallelism
// and full-width power.
//
//sprint:hotpath
func (g *Governor) Serve(workS, width, sprintW float64) (serviceS, energyJ, sprintS float64, full bool) {
	remaining := workS
	full = true
	for remaining > workFloorS {
		maxFullS, sprints := g.slice(remaining, width, sprintW)
		switch {
		case !sprints:
			// The budget is spent: the rest runs on the sustained core.
			serviceS += remaining
			energyJ += g.Sustain(remaining)
			remaining = 0
			full = false
		case maxFullS*width >= remaining:
			// The budget covers the rest at full width.
			dt := remaining / width
			g.RecordSprint(sprintW, dt)
			serviceS += dt
			energyJ += sprintW * dt
			sprintS += dt
			remaining = 0
		default:
			// Burn what is left of the budget at full width.
			g.RecordSprint(sprintW, maxFullS)
			serviceS += maxFullS
			energyJ += sprintW * maxFullS
			sprintS += maxFullS
			remaining -= maxFullS * width
			full = false
		}
	}
	return serviceS, energyJ, sprintS, full
}

// WillSprint reports whether Serve(workS, width, sprintW) would start
// with a full-width slice now, i.e. whether its sprint phase is non-empty.
// A caller that must approve a sprint before it starts (a rack admitting
// it onto a shared circuit) asks this first.
//
//sprint:hotpath
func (g *Governor) WillSprint(workS, width, sprintW float64) bool {
	_, sprints := g.slice(workS, width, sprintW)
	return workS > workFloorS && sprints
}

const (
	// workFloorS is the remaining work, in single-core seconds, at or
	// below which a service counts as finished.
	workFloorS = 1e-12
	// sliceFloorS is the shortest budget-limited full-width slice: a
	// budget that covers less than this, and not the whole remainder,
	// counts as spent.
	sliceFloorS = 1e-9
)

// slice reports the full-width time the budget allows now and whether
// the next slice of a service with remaining work sprints: the budget
// covers the remainder at full width, or it exceeds the slice floor.
//
//sprint:hotpath
func (g *Governor) slice(remaining, width, sprintW float64) (maxFullS float64, sprints bool) {
	maxFullS = g.MaxSprintS(sprintW)
	return maxFullS, maxFullS*width >= remaining || maxFullS > sliceFloorS
}

// ProjectS is Serve's service time in closed form, without the slice
// floor, for a service started at startS: the budget refills from the
// clock to startS, then the work runs at full width while it lasts and on
// the sustained core after. A 1-wide service takes workS either way. It
// changes nothing, and stays small enough to inline into dispatch scoring.
//
//sprint:hotpath
func (g *Governor) ProjectS(startS, workS, width, sprintW float64) float64 {
	netW := sprintW - g.drainW
	if netW <= 0 || width <= 1 {
		return workS / width
	}
	remJ := g.RemainingJ()
	if dt := startS - g.nowS; dt > 0 {
		remJ = min(g.capacityJ, remJ+g.drainW*dt)
	}
	fullS := remJ / netW
	if workS/width <= fullS {
		return workS / width
	}
	return fullS + (workS - fullS*width)
}

// EmptyAtS is the instant the refill line extrapolates back to an empty
// budget, so the budget at a later t is min(capacity, drainW·(t − EmptyAtS)).
// Among governors sharing capacity and drain, ascending EmptyAtS orders
// ProjectS for every request, and equal keys project identically. Without
// refill (drainW ≤ 0) the key is −RemainingJ, which orders the same way.
//
//sprint:hotpath
func (g *Governor) EmptyAtS() float64 {
	remJ := g.RemainingJ()
	if g.drainW <= 0 {
		return -remJ
	}
	return g.nowS - remJ/g.drainW
}

// CoverKeyS is the EmptyAtS at or below which a governor with this one's
// capacity and drain, idle since its clock, covers the service from nowS
// at full width (asking at most the capacity, which saturated governors
// hold alike). It is +Inf when sprinting is sustainable or the service is
// 1-wide: ProjectS ignores the budget there, so all such governors tie.
//
//sprint:hotpath
func (g *Governor) CoverKeyS(nowS, workS, width, sprintW float64) float64 {
	netW := sprintW - g.drainW
	if netW <= 0 || width <= 1 {
		return math.Inf(1)
	}
	needJ := min(netW*workS/width, g.capacityJ)
	if g.drainW <= 0 {
		return -needJ
	}
	return nowS - needJ/g.drainW
}

// TimeToFullS returns how long the system must idle before the full budget
// is available again (the user-facing "when can I sprint at full intensity
// for the full duration" question; §4.5's cooldown).
func (g *Governor) TimeToFullS() float64 {
	if g.drainW <= 0 {
		return math.Inf(1)
	}
	return g.storedJ / g.drainW
}

// TimeUntilSprintS returns the idle time needed before a sprint of the
// given power and duration fits the budget (0 if it fits now).
func (g *Governor) TimeUntilSprintS(powerW, durationS float64) float64 {
	if powerW <= 0 || durationS <= 0 {
		return 0
	}
	net := powerW - g.drainW
	if net <= 0 {
		return 0
	}
	needJ := net * durationS
	if needJ > g.capacityJ {
		return math.Inf(1) // never: the burst exceeds the whole budget
	}
	deficit := needJ - g.RemainingJ()
	if deficit <= 0 {
		return 0
	}
	return deficit / g.drainW
}

// DutyCycle returns the long-run sustainable fraction of time the system
// can spend sprinting at powerW: the §3 observation that sprinting shifts
// TDP budget rather than creating it.
func (g *Governor) DutyCycle(powerW float64) float64 {
	if powerW <= g.drainW {
		return 1
	}
	return g.drainW / powerW
}
