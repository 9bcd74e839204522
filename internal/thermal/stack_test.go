package thermal

import (
	"math"
	"testing"

	"sprinting/internal/materials"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultStackConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := LimitedStackConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSustainedBudgetNearOneWatt(t *testing.T) {
	// The platform is designed so one ≈1 W core is sustainable: the
	// junction stays just below the 60 °C PCM melting point (§4.4).
	cfg := DefaultStackConfig()
	budget := cfg.SustainedPowerBudgetW()
	if budget < 0.9 || budget > 1.15 {
		t.Errorf("sustained budget = %.3f W, want ≈1 W", budget)
	}
}

func TestSustainedSteadyStateBelowMelt(t *testing.T) {
	cfg := DefaultStackConfig()
	st := cfg.Build()
	inject := make([]float64, st.Net.NumNodes())
	inject[st.Junction] = 1.0
	temps := st.Net.SteadyStateTempC(inject)
	tj := temps[st.Junction]
	if tj >= cfg.PCM.MeltingPointC {
		t.Errorf("1 W steady junction = %.2f °C, must stay below melting point %v", tj, cfg.PCM.MeltingPointC)
	}
	if tj < cfg.PCM.MeltingPointC-5 {
		t.Errorf("1 W steady junction = %.2f °C, should be just below %v (design sized to the melting point)", tj, cfg.PCM.MeltingPointC)
	}
}

func TestLatentCapacityMatchesPaper(t *testing.T) {
	// 150 mg at 100 J/g = 15 J of latent sprint budget ("approximately
	// 16 J" including sensible heat, §4.2).
	cfg := DefaultStackConfig()
	if got := cfg.LatentCapacityJ(); math.Abs(got-15) > 1e-9 {
		t.Errorf("latent capacity = %v J, want 15", got)
	}
}

func TestStackStepHeats(t *testing.T) {
	st := DefaultStackConfig().Build()
	start := st.JunctionC()
	for i := 0; i < 1000; i++ {
		st.Step(1e-4, 16)
	}
	if st.JunctionC() <= start {
		t.Error("junction did not heat under 16 W")
	}
	if st.Net.TempC(st.Case) < st.Config.AmbientC-1e-9 {
		t.Error("case below ambient while heating")
	}
}

func TestOverLimit(t *testing.T) {
	st := DefaultStackConfig().Build()
	if st.OverLimit() {
		t.Fatal("fresh stack must not be over limit")
	}
	// Run a hard sprint until exhaustion.
	for i := 0; i < 5_000_000 && !st.OverLimit(); i++ {
		st.Step(1e-4, 32)
	}
	if !st.OverLimit() {
		t.Fatal("32 W sprint never reached TJmax")
	}
}

func TestTimeScaledPreservesSteadyState(t *testing.T) {
	base := DefaultStackConfig()
	scaled := base.TimeScaled(100)
	if math.Abs(base.SustainedPowerBudgetW()-scaled.SustainedPowerBudgetW()) > 1e-12 {
		t.Error("time scaling must not change the sustained power budget")
	}
	if math.Abs(base.TotalResistanceToAmbient()-scaled.TotalResistanceToAmbient()) > 1e-12 {
		t.Error("time scaling must not change resistances")
	}
}

func TestTimeScaledContractsSprint(t *testing.T) {
	base := DefaultStackConfig()
	scaled := base.TimeScaled(100)
	dBase := MaxSprintDurationS(base, 16)
	dScaled := MaxSprintDurationS(scaled, 16)
	ratio := dBase / dScaled
	if math.Abs(ratio-100) > 1 {
		t.Errorf("sprint duration ratio = %.2f, want ≈100", ratio)
	}
}

func TestTimeScaledPanicsOnBadScale(t *testing.T) {
	mustPanic(t, "zero scale", func() { DefaultStackConfig().TimeScaled(0) })
}

func TestValidateCatchesErrors(t *testing.T) {
	cases := []func(*StackConfig){
		func(c *StackConfig) { c.PCMMassG = 0 },
		func(c *StackConfig) { c.TJMaxC = 50 },
		func(c *StackConfig) { c.AmbientC = 65 },
		func(c *StackConfig) { c.RJunctionPCM = 0 },
		func(c *StackConfig) { c.CJunction = -1 },
	}
	for i, mutate := range cases {
		cfg := DefaultStackConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

// TestValidateRejectsNonFinite: a NaN passes every ordering check and an
// infinite PCM mass grants an infinite budget, so each float field is
// checked for finiteness on its own.
func TestValidateRejectsNonFinite(t *testing.T) {
	fields := []struct {
		name string
		set  func(*StackConfig, float64)
	}{
		{"AmbientC", func(c *StackConfig, v float64) { c.AmbientC = v }},
		{"TJMaxC", func(c *StackConfig, v float64) { c.TJMaxC = v }},
		{"PCMMassG", func(c *StackConfig, v float64) { c.PCMMassG = v }},
		{"PCM.MeltingPointC", func(c *StackConfig, v float64) { c.PCM.MeltingPointC = v }},
		{"PCM.LatentHeatJPerG", func(c *StackConfig, v float64) { c.PCM.LatentHeatJPerG = v }},
		{"PCM.DensityGPerCm3", func(c *StackConfig, v float64) { c.PCM.DensityGPerCm3 = v }},
		{"PCM.SpecificHeatJPerGK", func(c *StackConfig, v float64) { c.PCM.SpecificHeatJPerGK = v }},
		{"PCM.ConductivityWPerMK", func(c *StackConfig, v float64) { c.PCM.ConductivityWPerMK = v }},
		{"RJunctionPCM", func(c *StackConfig, v float64) { c.RJunctionPCM = v }},
		{"RPCMCase", func(c *StackConfig, v float64) { c.RPCMCase = v }},
		{"RCaseAmbient", func(c *StackConfig, v float64) { c.RCaseAmbient = v }},
		{"RBoardPath", func(c *StackConfig, v float64) { c.RBoardPath = v }},
		{"CJunction", func(c *StackConfig, v float64) { c.CJunction = v }},
		{"CCase", func(c *StackConfig, v float64) { c.CCase = v }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := DefaultStackConfig()
			f.set(&cfg, v)
			if cfg.Validate() == nil {
				t.Errorf("%s = %g: expected validation error", f.name, v)
			}
		}
	}
	cold := DefaultStackConfig()
	cold.AmbientC = -273.16
	if cold.Validate() == nil {
		t.Error("an ambient below absolute zero should fail validation")
	}
}

func TestSolidSinkStoresLessThanPCM(t *testing.T) {
	// §4.1/§4.2: gram for gram, the PCM's latent heat stores far more than
	// copper's sensible heat over the available headroom, so the PCM sprint
	// lasts longer at equal mass.
	cfg := DefaultStackConfig()
	pcmStack := cfg.Build()
	cuStack := SolidSinkStack(cfg, materials.Copper, cfg.PCMMassG)

	dur := func(st *Stack) float64 {
		t := 0.0
		for t < 10 && !st.OverLimit() {
			st.Step(1e-4, 16)
			t += 1e-4
		}
		return t
	}
	pcmDur := dur(pcmStack)
	cuDur := dur(cuStack)
	if pcmDur <= 2*cuDur {
		t.Errorf("PCM sprint %.3f s should be ≫ copper sprint %.3f s at equal mass", pcmDur, cuDur)
	}
}

func TestSprintEnergyBudget(t *testing.T) {
	cfg := DefaultStackConfig()
	budget := SprintEnergyBudgetJ(cfg, 16)
	// Must at least include the 15 J latent capacity, and stay physical
	// (well under latent + sensible + a couple seconds of leakage).
	if budget < 15 {
		t.Errorf("budget %v J below latent capacity", budget)
	}
	if budget > 30 {
		t.Errorf("budget %v J implausibly large", budget)
	}
	if d := MaxSprintDurationS(cfg, 16); d < 0.8 || d > 2.0 {
		t.Errorf("estimated 16 W sprint duration = %v s, want ≈1–1.5 s", d)
	}
	// Sustainable power → infinite budget.
	if !math.IsInf(MaxSprintDurationS(cfg, 0.5), 1) {
		t.Error("0.5 W should be sustainable indefinitely")
	}
}
