package thermal

import (
	"fmt"
	"math"

	"sprinting/internal/materials"
)

// StackConfig parameterizes the Figure 3(c/d) mobile thermal stack: die
// junction → TIM → PCM block → spreader/case → passive convection to
// ambient, with a secondary board path from the junction directly to the
// case. Defaults reproduce the paper's anchors:
//
//   - 1 W sustained keeps the junction just below the 60 °C PCM melting
//     point at 25 °C ambient (§4.4: the sustained budget must be selected to
//     limit junction temperature to just below the melting point);
//   - a 16 W sprint melts 150 mg of 100 J/g PCM in ≈0.95 s and reaches the
//     70 °C junction limit shortly after (Fig 4a);
//   - cooldown back to near-ambient takes ≈ sprint-duration × power-ratio,
//     about 16–24 s (Fig 4b, §4.5).
type StackConfig struct {
	// AmbientC is the environment temperature (°C).
	AmbientC float64
	// TJMaxC is the maximum safe junction temperature (°C); the paper's
	// simulations use 70 °C.
	TJMaxC float64

	// PCM is the phase-change material; PCMMassG its mass in grams
	// (the paper's design point is 0.150 g, its "limited" point 0.0015 g).
	PCM      materials.PCM
	PCMMassG float64

	// RJunctionPCM is the TIM resistance from the die junction into the PCM
	// block (K/W). It bounds sprint intensity: plateau junction temperature
	// is Tmelt + P·RJunctionPCM (Fig 3 annotation ·).
	RJunctionPCM float64
	// RPCMCase is the spreading resistance from PCM block to the case (K/W).
	RPCMCase float64
	// RCaseAmbient is the passive-convection resistance (K/W); with RPCMCase
	// it forms the Fig 3 annotation ¸ that governs cooldown.
	RCaseAmbient float64
	// RBoardPath is the secondary junction→case path through package leads
	// and PCB (K/W).
	RBoardPath float64

	// CJunction lumps die + package heat capacity (J/K).
	CJunction float64
	// CCase lumps case/PCB/battery capacity near the heat path (J/K).
	CCase float64
}

// DefaultStackConfig returns the paper's fully provisioned design point
// (150 mg of the 100 J/g, 60 °C study PCM).
func DefaultStackConfig() StackConfig {
	return StackConfig{
		AmbientC:     25,
		TJMaxC:       70,
		PCM:          materials.StudyPCM,
		PCMMassG:     0.150,
		RJunctionPCM: 0.35,
		RPCMCase:     35,
		RCaseAmbient: 4,
		RBoardPath:   150,
		CJunction:    0.02,
		CCase:        25,
	}
}

// LimitedStackConfig returns the paper's artificially constrained design
// point: PCM reduced 100× (1.5 mg) to force sprint exhaustion within
// tractable simulation times (§8.3).
func LimitedStackConfig() StackConfig {
	c := DefaultStackConfig()
	c.PCMMassG = 0.0015
	return c
}

// WithPCMMass returns a copy of the config with a different PCM mass.
func (c StackConfig) WithPCMMass(massG float64) StackConfig {
	c.PCMMassG = massG
	return c
}

// TimeScaled returns a copy of the config with every heat capacity (and the
// PCM mass, hence its latent budget) divided by s. Resistances are
// unchanged, so all steady-state temperatures and power budgets are
// preserved while every thermal transient — sprint duration, melt plateau,
// cooldown — contracts by exactly s.
//
// The architectural experiments use this to couple simulation-scale
// workloads (tens of milliseconds instead of the paper's seconds) to
// proportionally scaled sprint budgets, preserving the paper's regime
// boundaries; see DESIGN.md §4 item 6.
func (c StackConfig) TimeScaled(s float64) StackConfig {
	if s <= 0 {
		panic(fmt.Sprintf("thermal: time scale must be positive, got %g", s))
	}
	c.PCMMassG /= s
	c.CJunction /= s
	c.CCase /= s
	return c
}

// absoluteZeroC bounds every temperature from below.
const absoluteZeroC = -273.15

// Validate reports configuration errors. Every float field must be
// finite: a NaN passes every ordering check below, and an infinite PCM
// mass would grant an infinite sprint budget.
func (c StackConfig) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"ambient temperature", c.AmbientC}, {"TJmax", c.TJMaxC}, {"PCM mass", c.PCMMassG},
		{"PCM melting point", c.PCM.MeltingPointC}, {"PCM latent heat", c.PCM.LatentHeatJPerG},
		{"PCM density", c.PCM.DensityGPerCm3}, {"PCM specific heat", c.PCM.SpecificHeatJPerGK},
		{"PCM conductivity", c.PCM.ConductivityWPerMK},
		{"junction-PCM resistance", c.RJunctionPCM}, {"PCM-case resistance", c.RPCMCase},
		{"case-ambient resistance", c.RCaseAmbient}, {"board-path resistance", c.RBoardPath},
		{"junction capacitance", c.CJunction}, {"case capacitance", c.CCase},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("thermal: %s must be finite, got %g", f.name, f.v)
		}
	}
	switch {
	case c.AmbientC < absoluteZeroC:
		return fmt.Errorf("thermal: ambient %g °C is below absolute zero", c.AmbientC)
	case c.PCMMassG <= 0:
		return fmt.Errorf("thermal: PCM mass must be positive, got %g", c.PCMMassG)
	case c.TJMaxC <= c.PCM.MeltingPointC:
		return fmt.Errorf("thermal: TJmax %g must exceed PCM melting point %g", c.TJMaxC, c.PCM.MeltingPointC)
	case c.PCM.MeltingPointC <= c.AmbientC:
		return fmt.Errorf("thermal: melting point %g must exceed ambient %g", c.PCM.MeltingPointC, c.AmbientC)
	case c.RJunctionPCM <= 0 || c.RPCMCase <= 0 || c.RCaseAmbient <= 0 || c.RBoardPath <= 0:
		return fmt.Errorf("thermal: all resistances must be positive")
	case c.CJunction <= 0 || c.CCase <= 0:
		return fmt.Errorf("thermal: all capacitances must be positive")
	}
	return nil
}

// TotalResistanceToAmbient returns the effective junction→ambient thermal
// resistance (K/W), accounting for the parallel board path.
func (c StackConfig) TotalResistanceToAmbient() float64 {
	series := c.RJunctionPCM + c.RPCMCase
	jc := series * c.RBoardPath / (series + c.RBoardPath)
	return jc + c.RCaseAmbient
}

// SustainedPowerBudgetW returns the maximum steady power (W) that keeps the
// junction below the PCM melting point — the paper's rule for selecting the
// sustainable TDP (§4.4). A small guard band keeps the PCM solid at steady
// state.
func (c StackConfig) SustainedPowerBudgetW() float64 {
	headroom := c.PCM.MeltingPointC - c.AmbientC
	return headroom / c.TotalResistanceToAmbient()
}

// LatentCapacityJ returns the latent sprint budget of the configured PCM
// block.
func (c StackConfig) LatentCapacityJ() float64 {
	return c.PCM.LatentCapacityJ(c.PCMMassG)
}

// Stack is an instantiated mobile thermal stack ready for transient
// simulation or co-simulation with the architectural model.
type Stack struct {
	Config   StackConfig
	Net      *Network
	Junction NodeID
	PCMNode  NodeID
	Case     NodeID

	inject []float64
}

// Build constructs the RC network for the configuration. It panics on an
// invalid configuration (callers validate user input with Validate first).
func (c StackConfig) Build() *Stack {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	net := NewNetwork(c.AmbientC)
	junction := net.AddNode("junction", c.CJunction, c.AmbientC)
	pcm := net.AddPCMNode("pcm", c.PCMMassG, c.PCM, c.AmbientC)
	cs := net.AddNode("case", c.CCase, c.AmbientC)
	net.Connect(junction, pcm, c.RJunctionPCM)
	net.Connect(pcm, cs, c.RPCMCase)
	net.Connect(junction, cs, c.RBoardPath)
	net.Connect(cs, AmbientNode, c.RCaseAmbient)
	return &Stack{
		Config:   c,
		Net:      net,
		Junction: junction,
		PCMNode:  pcm,
		Case:     cs,
		inject:   make([]float64, net.NumNodes()),
	}
}

// Step advances the stack by dt seconds with the given die power.
func (s *Stack) Step(dt, junctionPowerW float64) {
	s.inject[s.Junction] = junctionPowerW
	s.Net.Step(dt, s.inject)
}

// JunctionC returns the junction temperature in °C.
func (s *Stack) JunctionC() float64 { return s.Net.TempC(s.Junction) }

// PCMTempC returns the PCM block temperature in °C.
func (s *Stack) PCMTempC() float64 { return s.Net.TempC(s.PCMNode) }

// MeltFraction returns the melted PCM fraction in [0,1].
func (s *Stack) MeltFraction() float64 { return s.Net.MeltFraction(s.PCMNode) }

// OverLimit reports whether the junction has reached the maximum safe
// temperature; the sprint controller terminates the sprint on this signal.
func (s *Stack) OverLimit() bool { return s.JunctionC() >= s.Config.TJMaxC }

// Summary renders the Figure 3(d) thermal-equivalent circuit as
// (element, value) rows, including the figure's three annotated
// quantities: the PCM thermal capacity (¶), the resistance bounding sprint
// power (·), and the PCM→ambient path governing cooldown (¸).
func (c StackConfig) Summary() [][2]string {
	f := func(format string, args ...any) string { return fmt.Sprintf(format, args...) }
	latent := c.LatentCapacityJ()
	return [][2]string{
		{"ambient", f("%.1f °C", c.AmbientC)},
		{"junction capacitance (die+package)", f("%.3g J/K", c.CJunction)},
		{"junction → PCM resistance (TIM) (2)", f("%.3g K/W", c.RJunctionPCM)},
		{"PCM block (1)", f("%.0f mg %s", c.PCMMassG*1000, c.PCM.Name)},
		{"PCM latent capacity (1)", f("%.3g J (+%.3g J/K sensible)", latent, c.PCMMassG*c.PCM.SpecificHeatJPerGK)},
		{"PCM melting point", f("%.1f °C", c.PCM.MeltingPointC)},
		{"PCM → case resistance (3)", f("%.3g K/W", c.RPCMCase)},
		{"case capacitance", f("%.3g J/K", c.CCase)},
		{"case → ambient (passive convection) (3)", f("%.3g K/W", c.RCaseAmbient)},
		{"junction → case board path", f("%.3g K/W", c.RBoardPath)},
		{"junction temperature limit", f("%.1f °C", c.TJMaxC)},
		{"total junction → ambient resistance", f("%.3g K/W", c.TotalResistanceToAmbient())},
		{"sustained power budget (2+3)", f("%.3g W", c.SustainedPowerBudgetW())},
		{"max plateau sprint power (2)", f("%.3g W", (c.TJMaxC-c.PCM.MeltingPointC)/c.RJunctionPCM)},
	}
}

// SolidSinkStack builds the §4.1 alternative: a solid metal block (no phase
// change) of the given mass in place of the PCM, with otherwise identical
// geometry. Used by the solid-vs-PCM ablation.
func SolidSinkStack(c StackConfig, metal materials.Material, massG float64) *Stack {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	net := NewNetwork(c.AmbientC)
	junction := net.AddNode("junction", c.CJunction, c.AmbientC)
	block := net.AddNode("metal block", massG*metal.SpecificHeatJPerGK, c.AmbientC)
	cs := net.AddNode("case", c.CCase, c.AmbientC)
	net.Connect(junction, block, c.RJunctionPCM)
	net.Connect(block, cs, c.RPCMCase)
	net.Connect(junction, cs, c.RBoardPath)
	net.Connect(cs, AmbientNode, c.RCaseAmbient)
	return &Stack{
		Config:   c,
		Net:      net,
		Junction: junction,
		PCMNode:  block,
		Case:     cs,
		inject:   make([]float64, net.NumNodes()),
	}
}
