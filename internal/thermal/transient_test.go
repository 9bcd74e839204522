package thermal

import (
	"math"
	"testing"
)

// TestFig4aSprintInitiation encodes the paper's Figure 4(a) anchors for a
// 16 W sprint on the 1 W-TDP stack with 150 mg of PCM:
//   - the junction rises quickly, then plateaus during the phase change for
//     ≈0.95 s (we accept 0.7–1.2 s),
//   - the sprint lasts a little over 1 s before reaching TJmax = 70 °C
//     (we accept 1.0–1.6 s),
//   - the peak junction temperature is TJmax.
func TestFig4aSprintInitiation(t *testing.T) {
	cfg := DefaultStackConfig()
	res := SimulateSprint(cfg, 16, 1e-4, 5)
	if res.Truncated {
		t.Fatal("sprint never exhausted within horizon")
	}
	if !(res.MeltStartS > 0 && res.MeltStartS <= 0.5) { // NaN (never) fails too
		t.Errorf("melt start = %.3f s, want early (<0.5 s)", res.MeltStartS)
	}
	plateau := res.MeltEndS - res.MeltStartS
	if !(plateau >= 0.7 && plateau <= 1.2) {
		t.Errorf("melt plateau = %.3f s, paper reports ≈0.95 s", plateau)
	}
	if res.SprintEndS < 1.0 || res.SprintEndS > 1.6 {
		t.Errorf("sprint duration = %.3f s, paper reports a little over 1 s", res.SprintEndS)
	}
	if math.Abs(res.MaxJunctionC-cfg.TJMaxC) > 0.5 {
		t.Errorf("peak junction = %.2f °C, want ≈%v", res.MaxJunctionC, cfg.TJMaxC)
	}
	// During the plateau, the junction sits at Tmelt + P·Rjp, below TJmax.
	wantPlateauTj := cfg.PCM.MeltingPointC + 16*cfg.RJunctionPCM
	mid := (res.MeltStartS + res.MeltEndS) / 2
	gotTj := res.Junction.ValueAt(mid)
	if math.Abs(gotTj-wantPlateauTj) > 1.5 {
		t.Errorf("plateau junction = %.2f °C, want ≈%.2f", gotTj, wantPlateauTj)
	}
}

// TestFig4bCooldown encodes Figure 4(b): after the sprint, the junction
// temperature holds near the melting point while the PCM refreezes
// (≈ sprint duration × power ratio ≈ 16 s), then decays, coming close to
// ambient after about 24 s (we accept 15–35 s for within 3 °C).
func TestFig4bCooldown(t *testing.T) {
	cfg := DefaultStackConfig()
	res := SimulateCooldown(cfg, 16, 0, 1e-3, 5, 120, 3)
	if !res.NearOK {
		t.Fatal("junction never came near ambient within horizon")
	}
	if res.NearAmbientS < 12 || res.NearAmbientS > 40 {
		t.Errorf("near-ambient time = %.1f s, paper reports ≈24 s", res.NearAmbientS)
	}
	if !(res.FreezeEndS > res.FreezeStartS) {
		t.Errorf("refreeze interval invalid: [%v, %v]", res.FreezeStartS, res.FreezeEndS)
	}
	freezeDur := res.FreezeEndS - res.FreezeStartS
	// §4.5 rule of thumb: cooldown ≈ sprint × (P_sprint / TDP) ≈ 1.2 × 16.
	approx := ApproxCooldownS(1.2, 16, 1)
	if freezeDur < approx/2 || freezeDur > approx*1.8 {
		t.Errorf("refreeze duration %.1f s vs rule-of-thumb %.1f s: too far", freezeDur, approx)
	}
	// Monotonic-ish: junction must never exceed its cooldown starting value.
	_, maxV := res.Junction.Max()
	if maxV > res.Junction.Points()[0].V+0.5 {
		t.Errorf("junction rose during cooldown: start %.2f, max %.2f", res.Junction.Points()[0].V, maxV)
	}
}

// TestHigherMeltingPointCoolsFaster encodes the §4.5 observation: the higher
// the melting point, the larger the PCM→ambient gradient and the faster the
// post-sprint cooldown.
func TestHigherMeltingPointCoolsFaster(t *testing.T) {
	lo := DefaultStackConfig()
	lo.PCM.MeltingPointC = 45
	hi := DefaultStackConfig()
	hi.PCM.MeltingPointC = 60

	freeze := func(cfg StackConfig) float64 {
		res := SimulateCooldown(cfg, 16, 0, 1e-3, 5, 200, 3)
		if math.IsNaN(res.FreezeEndS) {
			t.Fatalf("PCM (melt %v) never refroze", cfg.PCM.MeltingPointC)
		}
		return res.FreezeEndS
	}
	fLo, fHi := freeze(lo), freeze(hi)
	if fHi >= fLo {
		t.Errorf("60 °C PCM refroze in %.1f s, 45 °C in %.1f s; higher melting point should cool faster", fHi, fLo)
	}
}

// TestLimitedPCMSprintsShorter: the 1.5 mg configuration exhausts roughly
// two orders of magnitude faster than the 150 mg one (§8.3).
func TestLimitedPCMSprintsShorter(t *testing.T) {
	full := SimulateSprint(DefaultStackConfig(), 16, 1e-4, 5)
	limited := SimulateSprint(LimitedStackConfig(), 16, 1e-5, 5)
	if limited.Truncated || full.Truncated {
		t.Fatal("sprints should exhaust within horizon")
	}
	ratio := full.SprintEndS / limited.SprintEndS
	if ratio < 4 {
		t.Errorf("full/limited sprint duration ratio = %.1f, want ≫1", ratio)
	}
}

// TestSprintIntensityTradeoff: more sprint power means shorter sprints but
// the total sprintable energy stays in the same ballpark (it is set by the
// thermal capacitance, §4).
func TestSprintIntensityTradeoff(t *testing.T) {
	cfg := DefaultStackConfig()
	var prevDur float64 = math.Inf(1)
	for _, p := range []float64{4, 8, 16, 32} {
		res := SimulateSprint(cfg, p, 1e-4, 60)
		if res.Truncated {
			t.Fatalf("%g W sprint did not exhaust", p)
		}
		if res.SprintEndS >= prevDur {
			t.Errorf("%g W sprint (%.2f s) should be shorter than the previous power level (%.2f s)", p, res.SprintEndS, prevDur)
		}
		prevDur = res.SprintEndS
	}
}

func TestApproxCooldown(t *testing.T) {
	if got := ApproxCooldownS(1, 16, 1); got != 16 {
		t.Errorf("ApproxCooldownS = %v, want 16", got)
	}
	if !math.IsInf(ApproxCooldownS(1, 16, 0), 1) {
		t.Error("zero TDP should give infinite cooldown")
	}
}
