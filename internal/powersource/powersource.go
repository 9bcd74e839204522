// Package powersource models the paper's Section 6 analysis: can the
// off-chip power source deliver a 16 W burst for up to a second within
// smartphone form-factor constraints? It provides battery and
// ultracapacitor models, a hybrid supply that covers burst deficits from
// the ultracapacitor, and the package pin-count budget for peak current
// delivery.
package powersource

import (
	"fmt"
	"math"
)

// Battery is a simple rate-limited electrochemical source.
type Battery struct {
	Name string

	// NominalV is the pack voltage.
	NominalV float64

	// MaxContinuousA is the maximum continuous discharge current; phone
	// Li-Ion packs are limited by internal thermal constraints (§6).
	MaxContinuousA float64

	// CapacityWh is the stored energy.
	CapacityWh float64

	// MassG is the pack mass in grams (form-factor constraint).
	MassG float64
}

// MaxPowerW is the maximum continuous power the battery can deliver.
func (b Battery) MaxPowerW() float64 { return b.NominalV * b.MaxContinuousA }

// CanSupply reports whether the battery alone can continuously supply p
// watts.
func (b Battery) CanSupply(p float64) bool { return p <= b.MaxPowerW() }

// MaxSprintCores returns how many cores of coreW watts the battery alone
// can power (the paper: a representative Li-Ion limits sprinting to fewer
// than ten 1 W cores).
func (b Battery) MaxSprintCores(coreW float64) int {
	if coreW <= 0 {
		return 0
	}
	return int(b.MaxPowerW() / coreW)
}

// Ultracapacitor models a high-discharge-rate capacitor bank.
type Ultracapacitor struct {
	Name string

	// CapF is the capacitance in farads; RatedV the maximum voltage.
	CapF, RatedV float64

	// MinUsableV is the lowest voltage at which the downstream regulator
	// still operates; energy below it is stranded.
	MinUsableV float64

	// MaxPeakA is the peak discharge current.
	MaxPeakA float64

	// LeakageA is the standing leakage current (the paper notes <0.1 mA,
	// negligible energy loss between sprints).
	LeakageA float64

	// MassG is the capacitor mass in grams.
	MassG float64
}

// StoredEnergyJ is the total stored energy ½CV² at rated voltage.
//
// Note: the paper quotes 182 J for the 25 F, 2.7 V NESSCAP part, which is
// C·V²; the physically stored energy is ½CV² ≈ 91 J. We report the physical
// value and record the discrepancy in EXPERIMENTS.md.
func (u Ultracapacitor) StoredEnergyJ() float64 {
	return 0.5 * u.CapF * u.RatedV * u.RatedV
}

// UsableEnergyJ is the energy available down to MinUsableV.
func (u Ultracapacitor) UsableEnergyJ() float64 {
	return 0.5 * u.CapF * (u.RatedV*u.RatedV - u.MinUsableV*u.MinUsableV)
}

// MaxPowerW is the peak deliverable power at rated voltage.
func (u Ultracapacitor) MaxPowerW() float64 { return u.RatedV * u.MaxPeakA }

// LeakageEnergyJPerDay returns the standing loss per day, for the
// "negligible leakage" claim.
func (u Ultracapacitor) LeakageEnergyJPerDay() float64 {
	return u.LeakageA * u.RatedV * 86400
}

// Canonical parts from §6.
var (
	// PhoneLiIon is a representative phone battery: bursts of 10 W
	// (2.7 A at 3.7 V); higher currents are precluded by internal thermal
	// constraints.
	PhoneLiIon = Battery{
		Name:           "phone Li-Ion",
		NominalV:       3.7,
		MaxContinuousA: 2.7,
		CapacityWh:     5.5,
		MassG:          40,
	}

	// DualskyLiPo is the high-discharge Li-Polymer pack the paper cites
	// (Dualsky GT 850 2s): 43 A at 7 V, 51 g.
	DualskyLiPo = Battery{
		Name:           "Dualsky GT 850 2s Li-Po",
		NominalV:       7.0,
		MaxContinuousA: 43,
		CapacityWh:     6.0,
		MassG:          51,
	}

	// NesscapUltracap is the 25 F NESSCAP part: 20 A peak at 2.7 V, 6.5 g,
	// leakage below 0.1 mA.
	NesscapUltracap = Ultracapacitor{
		Name:       "NESSCAP 25F",
		CapF:       25,
		RatedV:     2.7,
		MinUsableV: 1.35,
		MaxPeakA:   20,
		LeakageA:   0.1e-3,
		MassG:      6.5,
	}
)

// HybridSupply pairs a battery with an ultracapacitor: the battery covers
// sustained draw, the ultracapacitor covers burst deficit during sprints
// (§6; cf. Pedram et al., Mirhoseini & Koushanfar).
type HybridSupply struct {
	Battery  Battery
	Ultracap Ultracapacitor
	// ConverterEff is the DC-DC conversion efficiency applied to energy
	// drawn from either source.
	ConverterEff float64
}

// NewHybridSupply returns the paper's §6 configuration: phone Li-Ion plus
// the NESSCAP ultracapacitor.
func NewHybridSupply() HybridSupply {
	return HybridSupply{Battery: PhoneLiIon, Ultracap: NesscapUltracap, ConverterEff: 0.9}
}

// SprintDemand describes a requested sprint burst.
type SprintDemand struct {
	PowerW    float64
	DurationS float64
	// RailV is the logic supply voltage used to compute peak current at
	// the chip pins.
	RailV float64
}

// Report is the feasibility verdict for a demand against a supply.
type Report struct {
	Demand SprintDemand

	// BatteryPowerW is the share served continuously by the battery.
	BatteryPowerW float64
	// DeficitW is the burst power the ultracapacitor must add.
	DeficitW float64
	// DeficitEnergyJ is the total burst energy drawn from the ultracap.
	DeficitEnergyJ float64
	// UltracapPeakA is the current the ultracap must source at its own
	// terminal voltage.
	UltracapPeakA float64

	// Feasible is the overall verdict; Reason explains a false verdict.
	Feasible bool
	Reason   string
}

// Evaluate checks whether the hybrid supply can deliver the demand.
func (h HybridSupply) Evaluate(d SprintDemand) Report {
	r := Report{Demand: d}
	if d.PowerW <= 0 || d.DurationS <= 0 {
		r.Feasible = false
		r.Reason = "demand must have positive power and duration"
		return r
	}
	eff := h.ConverterEff
	if eff <= 0 || eff > 1 {
		eff = 1
	}
	drawW := d.PowerW / eff
	r.BatteryPowerW = math.Min(drawW, h.Battery.MaxPowerW())
	r.DeficitW = drawW - r.BatteryPowerW
	r.DeficitEnergyJ = r.DeficitW * d.DurationS
	if r.DeficitW > 0 {
		r.UltracapPeakA = r.DeficitW / math.Max(h.Ultracap.MinUsableV, 1e-9)
	}
	switch {
	case r.DeficitW == 0:
		r.Feasible = true
	case r.DeficitW > h.Ultracap.MaxPowerW():
		r.Reason = fmt.Sprintf("ultracapacitor peak power %.1f W < deficit %.1f W",
			h.Ultracap.MaxPowerW(), r.DeficitW)
	case r.UltracapPeakA > h.Ultracap.MaxPeakA:
		r.Reason = fmt.Sprintf("ultracapacitor peak current %.1f A < required %.1f A",
			h.Ultracap.MaxPeakA, r.UltracapPeakA)
	case r.DeficitEnergyJ > h.Ultracap.UsableEnergyJ():
		r.Reason = fmt.Sprintf("ultracapacitor usable energy %.1f J < deficit %.1f J",
			h.Ultracap.UsableEnergyJ(), r.DeficitEnergyJ)
	default:
		r.Feasible = true
	}
	return r
}

// SprintsOnFullCharge returns how many back-to-back sprints of the given
// demand one full ultracapacitor charge supports (ignoring recharge between
// sprints).
func (h HybridSupply) SprintsOnFullCharge(d SprintDemand) int {
	r := h.Evaluate(d)
	if !r.Feasible {
		return 0
	}
	if r.DeficitEnergyJ <= 0 {
		return math.MaxInt32
	}
	return int(h.Ultracap.UsableEnergyJ() / r.DeficitEnergyJ)
}

// PinBudget computes the §6 package-pin argument: peak current at the chip
// pins, pins needed for power and ground at perPinA per pin, and whether
// that fits a given package.
type PinBudget struct {
	PeakA      float64
	PerPinA    float64
	PowerPins  int
	GroundPins int
	TotalPins  int
}

// PinsForSprint sizes the power/ground pin count for a sprint drawing
// powerW at railV volts with perPinA amperes per pin (the paper: 16 A at
// 1 V with 100 mA pins requires 320 pins).
func PinsForSprint(powerW, railV, perPinA float64) PinBudget {
	b := PinBudget{PerPinA: perPinA}
	if railV <= 0 || perPinA <= 0 {
		return b
	}
	b.PeakA = powerW / railV
	b.PowerPins = int(math.Ceil(b.PeakA / perPinA))
	b.GroundPins = b.PowerPins
	b.TotalPins = b.PowerPins + b.GroundPins
	return b
}

// PackagePins is the published pin capacity of representative mobile
// packages (§6): Apple A4 (531 pins, 0.5 mm pitch), Qualcomm MSM8660
// (976 pins, 0.4 mm pitch).
type PackagePins struct {
	Name    string
	Pins    int
	PitchMm float64
}

// Packages lists the §6 reference packages.
func Packages() []PackagePins {
	return []PackagePins{
		{Name: "Apple A4 (14mm)", Pins: 531, PitchMm: 0.5},
		{Name: "Qualcomm MSM8660 (14mm)", Pins: 976, PitchMm: 0.4},
	}
}
