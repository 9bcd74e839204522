package thermal

import (
	"math"

	"sprinting/internal/series"
)

// SprintTransient is the result of a Figure 4(a) style simulation: a sprint
// at constant power from cold until the junction reaches TJmax (or the
// horizon expires).
type SprintTransient struct {
	// Junction and PCMTemp are the sampled temperature traces (°C).
	Junction *series.Series
	PCMTemp  *series.Series

	// MeltStartS is when the PCM first reaches its melting point (tmelt in
	// Fig 4a); MeltEndS when it is fully molten (tmelted). NaN if never: a
	// sprint intense enough reaches TJmax before the PCM starts or
	// finishes melting.
	MeltStartS float64
	MeltEndS   float64

	// PlateauS is the duration the junction spends in the melt plateau
	// (the paper reports ≈0.95 s for the 150 mg design at 16 W),
	// MeltEndS − MeltStartS: NaN unless the PCM fully melted.
	PlateauS float64

	// SprintEndS is when the junction reached TJmax (tone in Fig 4a); if the
	// junction never reached TJmax within the horizon, Truncated is true and
	// SprintEndS is the horizon.
	SprintEndS float64
	Truncated  bool

	// MaxJunctionC is the peak junction temperature observed.
	MaxJunctionC float64
}

// SimulateSprint runs a constant-power sprint on a fresh stack built from
// cfg, sampling every sampleDt seconds up to horizon seconds, stopping when
// the junction reaches TJmax. It reproduces Figure 4(a).
func SimulateSprint(cfg StackConfig, sprintPowerW, sampleDt, horizonS float64) SprintTransient {
	st := cfg.Build()
	res := SprintTransient{
		Junction:   series.New("junction", "C"),
		PCMTemp:    series.New("pcm", "C"),
		MeltStartS: math.NaN(),
		MeltEndS:   math.NaN(),
	}
	meltStarted, meltEnded := false, false
	res.Junction.Append(0, st.JunctionC())
	res.PCMTemp.Append(0, st.PCMTempC())
	t := 0.0
	for t < horizonS {
		st.Step(sampleDt, sprintPowerW)
		t += sampleDt
		res.Junction.Append(t, st.JunctionC())
		res.PCMTemp.Append(t, st.PCMTempC())
		if !meltStarted && st.MeltFraction() > 0 {
			meltStarted = true
			res.MeltStartS = t
		}
		if meltStarted && !meltEnded && st.MeltFraction() >= 1 {
			meltEnded = true
			res.MeltEndS = t
		}
		if st.OverLimit() {
			res.SprintEndS = t
			break
		}
	}
	if res.SprintEndS == 0 {
		res.SprintEndS = t
		res.Truncated = true
	}
	res.PlateauS = res.MeltEndS - res.MeltStartS
	_, res.MaxJunctionC = res.Junction.Max()
	return res
}

// CooldownTransient is the result of a Figure 4(b) style simulation:
// starting from the end state of a sprint, the chip idles and the system
// cools back toward ambient while the PCM refreezes.
type CooldownTransient struct {
	Junction *series.Series

	// FreezeStartS is when the PCM begins refreezing (tfreeze); FreezeEndS
	// when fully solid (tfrozen). NaN if never: a sprint that ends before
	// the PCM melts leaves nothing to refreeze, and a short horizon can
	// end before the PCM is solid.
	FreezeStartS float64
	FreezeEndS   float64

	// NearAmbientS is when the junction first comes within tolC of ambient
	// (the paper reports ≈24 s for ≈2 °C). Zero with OK=false if never.
	NearAmbientS float64
	NearOK       bool
}

// SimulateCooldown first runs a sprint (as SimulateSprint) and then lets the
// system idle at idlePowerW, sampling the junction trace until it comes
// within tolC of ambient or the horizon expires. Times in the result are
// measured from the start of cooldown.
func SimulateCooldown(cfg StackConfig, sprintPowerW, idlePowerW, sampleDt, sprintHorizonS, coolHorizonS, tolC float64) CooldownTransient {
	st := cfg.Build()
	// Sprint phase (not recorded).
	t := 0.0
	for t < sprintHorizonS && !st.OverLimit() {
		st.Step(sampleDt, sprintPowerW)
		t += sampleDt
	}
	res := CooldownTransient{Junction: series.New("junction", "C"), FreezeStartS: math.NaN(), FreezeEndS: math.NaN()}
	res.Junction.Append(0, st.JunctionC())
	wasFreezing := false
	frozen := st.MeltFraction() <= 0
	tc := 0.0
	prevMelt := st.MeltFraction()
	for tc < coolHorizonS {
		st.Step(sampleDt, idlePowerW)
		tc += sampleDt
		res.Junction.Append(tc, st.JunctionC())
		melt := st.MeltFraction()
		if !wasFreezing && melt < prevMelt {
			wasFreezing = true
			res.FreezeStartS = tc
		}
		if wasFreezing && !frozen && melt <= 0 {
			frozen = true
			res.FreezeEndS = tc
		}
		prevMelt = melt
		if !res.NearOK && st.JunctionC() <= cfg.AmbientC+tolC {
			res.NearAmbientS = tc
			res.NearOK = true
			break
		}
	}
	return res
}

// ApproxCooldownS implements the paper's §4.5 rule of thumb: cooldown
// duration ≈ sprint duration × (sprint power / nominal TDP).
func ApproxCooldownS(sprintDurationS, sprintPowerW, tdpW float64) float64 {
	if tdpW <= 0 {
		return math.Inf(1)
	}
	return sprintDurationS * sprintPowerW / tdpW
}

// SprintEnergyBudgetJ estimates the total heat (J) a sprint at the given
// power can dissipate before the junction reaches TJmax: latent capacity
// plus the sensible capacity of PCM and junction over the available
// temperature headroom, plus leakage to ambient over the estimated duration.
// This is the quantity the §7 runtime uses to budget sprints without a full
// thermal simulation.
func SprintEnergyBudgetJ(cfg StackConfig, sprintPowerW float64) float64 {
	plateauJunction := cfg.PCM.MeltingPointC + sprintPowerW*cfg.RJunctionPCM
	if plateauJunction >= cfg.TJMaxC {
		// The sprint is so intense the junction hits TJmax before the PCM
		// plateau can absorb the flow; only junction sensible heat helps.
		return cfg.CJunction * (cfg.TJMaxC - cfg.AmbientC)
	}
	sensiblePCM := cfg.PCMMassG * cfg.PCM.SpecificHeatJPerGK * (cfg.PCM.MeltingPointC - cfg.AmbientC)
	sensibleJ := cfg.CJunction * (cfg.TJMaxC - cfg.AmbientC)
	latent := cfg.LatentCapacityJ()
	stored := sensiblePCM + sensibleJ + latent
	// First-order leakage credit: while sprinting, roughly the sustained
	// budget keeps draining to ambient.
	leakW := cfg.SustainedPowerBudgetW()
	if sprintPowerW <= leakW {
		return math.Inf(1) // sustainable forever
	}
	durationS := stored / (sprintPowerW - leakW)
	return stored + leakW*durationS
}
