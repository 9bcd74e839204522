// Package scaling implements the paper's Section 2 technology-scaling model
// behind Figure 1: normalized power density and percent dark silicon for a
// fixed-area, fixed-power-budget chip across process generations, under
// ITRS and Borkar scaling assumptions.
//
// The model follows the argument in the paper (and Borkar & Chien, CACM
// 2011): per generation, transistor density rises much faster than
// per-device capacitance falls, and supply-voltage scaling has essentially
// stalled. Dynamic power density scales as
//
//	density × capacitance × Vdd² × frequency,
//
// so under stalled Vdd scaling power density compounds each generation and
// the powered-on fraction of a fixed-area chip shrinks accordingly.
package scaling

import (
	"fmt"
	"math"
)

// Nodes is the process-node sequence of Figure 1, in nanometers.
var Nodes = []int{45, 32, 22, 16, 11, 8, 6}

// Scenario is one scaling-assumption curve of Figure 1.
type Scenario struct {
	Name string

	// DensityPerGen is the transistor-density multiplier per generation
	// (Borkar: ×1.75; ITRS ideal area scaling: ×2).
	DensityPerGen float64

	// CapPerGen is the per-device capacitance multiplier per generation
	// (Borkar: ×0.75, i.e. a 25% reduction).
	CapPerGen float64

	// FreqPerGen is the clock-frequency multiplier per generation; the
	// paper's projections hold frequency flat (×1).
	FreqPerGen float64

	// Vdd holds the supply voltage at each node in Nodes, normalized to
	// the 45 nm value.
	Vdd []float64
}

// ITRS is the optimistic ITRS 2010 roadmap: ideal density scaling with
// continued (if slowing) voltage scaling.
func ITRS() Scenario {
	return Scenario{
		Name:          "ITRS",
		DensityPerGen: 2.0,
		CapPerGen:     0.75,
		FreqPerGen:    1.0,
		Vdd:           []float64{1.00, 0.93, 0.84, 0.75, 0.68, 0.62, 0.56},
	}
}

// Borkar is Borkar's projection: slower density growth but nearly flat
// voltage.
func Borkar() Scenario {
	return Scenario{
		Name:          "Borkar",
		DensityPerGen: 1.75,
		CapPerGen:     0.75,
		FreqPerGen:    1.0,
		Vdd:           []float64{1.00, 0.97, 0.95, 0.93, 0.91, 0.89, 0.88},
	}
}

// ITRSBorkarVdd is the paper's third curve: ITRS density scaling combined
// with Borkar's more pessimistic voltage-scaling assumptions — the
// worst-case power-density trajectory.
func ITRSBorkarVdd() Scenario {
	return Scenario{
		Name:          "ITRS + Borkar Vdd",
		DensityPerGen: 2.0,
		CapPerGen:     0.75,
		FreqPerGen:    1.0,
		Vdd:           []float64{1.00, 0.97, 0.95, 0.93, 0.91, 0.89, 0.88},
	}
}

// Scenarios returns the three Figure 1 curves in plot order.
func Scenarios() []Scenario {
	return []Scenario{ITRS(), Borkar(), ITRSBorkarVdd()}
}

// Validate reports configuration errors.
func (s Scenario) Validate() error {
	switch {
	case len(s.Vdd) != len(Nodes):
		return fmt.Errorf("scaling: scenario %q has %d Vdd entries, want %d", s.Name, len(s.Vdd), len(Nodes))
	case s.DensityPerGen <= 0 || s.CapPerGen <= 0 || s.FreqPerGen <= 0:
		return fmt.Errorf("scaling: scenario %q multipliers must be positive", s.Name)
	}
	for i, v := range s.Vdd {
		if v <= 0 {
			return fmt.Errorf("scaling: scenario %q Vdd[%d] must be positive", s.Name, i)
		}
	}
	return nil
}

// PowerDensity returns the dynamic power density at each node, normalized
// to the first (45 nm) node. This is Figure 1(a).
func (s Scenario) PowerDensity() []float64 {
	out := make([]float64, len(Nodes))
	for i := range Nodes {
		gen := float64(i)
		density := math.Pow(s.DensityPerGen, gen)
		cap := math.Pow(s.CapPerGen, gen)
		freq := math.Pow(s.FreqPerGen, gen)
		v := s.Vdd[i] / s.Vdd[0]
		out[i] = density * cap * v * v * freq
	}
	return out
}

// DarkSiliconPct returns the percentage of a fixed-area chip that must stay
// powered off at each node, for a power budget fully used at the first
// node. This is Figure 1(b): dark% = 100·(1 − 1/powerDensity).
func (s Scenario) DarkSiliconPct() []float64 {
	pd := s.PowerDensity()
	out := make([]float64, len(pd))
	for i, p := range pd {
		if p <= 1 {
			out[i] = 0
			continue
		}
		out[i] = 100 * (1 - 1/p)
	}
	return out
}

// MobileChip captures the §2 die-area/TDP comparison points.
type MobileChip struct {
	Name    string
	AreaMm2 float64
	TDPW    float64
	Mobile  bool
}

// ReferenceChips returns the §2 comparison set: mobile SoCs have ~3× less
// area than a desktop part but an order of magnitude (or more) lower TDP —
// evidence of the mobile utilization wall.
func ReferenceChips() []MobileChip {
	return []MobileChip{
		{Name: "NVIDIA Tegra 2", AreaMm2: 49, TDPW: 2, Mobile: true},
		{Name: "Apple A4", AreaMm2: 53, TDPW: 2.5, Mobile: true},
		{Name: "Apple A5", AreaMm2: 122, TDPW: 4, Mobile: true},
		{Name: "Intel Core i7 dual (Sandy Bridge)", AreaMm2: 149, TDPW: 17, Mobile: false},
		{Name: "Intel Core i7 quad (Sandy Bridge)", AreaMm2: 216, TDPW: 65, Mobile: false},
	}
}
