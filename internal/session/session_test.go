package session

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func sparse() []Burst {
	// Well-separated 2 s bursts: the paper's target scenario (5 s task
	// compressed to half a second, then half a minute of idle).
	return []Burst{
		{ArrivalS: 0, WorkS: 2},
		{ArrivalS: 40, WorkS: 2},
		{ArrivalS: 80, WorkS: 2},
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := GenerateBursts(20, 10, 2, 7)
	b := GenerateBursts(20, 10, 2, 7)
	if len(a) != 20 || len(b) != 20 {
		t.Fatalf("lengths: %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give identical traces")
		}
	}
	c := GenerateBursts(20, 10, 2, 8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

// TestBurstsStream: GenerateBursts is Bursts collected, a range may stop
// early on a prefix of it, and every range starts the stream afresh.
func TestBurstsStream(t *testing.T) {
	want := GenerateBursts(40, 3, 1, 11)
	for pass := 0; pass < 2; pass++ {
		var got []Burst
		for b := range Bursts(40, 3, 1, 11) {
			got = append(got, b)
			if pass == 0 && len(got) == 15 {
				break
			}
		}
		n := len(want)
		if pass == 0 {
			n = 15
		}
		if !slices.Equal(got, want[:n]) {
			t.Fatalf("pass %d: ranging over Bursts gave %d bursts differing from GenerateBursts' first %d", pass, len(got), n)
		}
	}
	for range Bursts(0, 3, 1, 11) {
		t.Fatal("Bursts(0, ...) yielded a burst")
	}
}

func TestGenerateProperties(t *testing.T) {
	f := func(seed int64) bool {
		bs := GenerateBursts(50, 5, 1, seed)
		prev := -1.0
		for _, b := range bs {
			if b.ArrivalS < prev || b.WorkS <= 0 {
				return false
			}
			prev = b.ArrivalS
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
	if GenerateBursts(0, 1, 1, 1) != nil {
		t.Error("zero bursts should give nil")
	}
}

func TestGenerateBurstsExpressesFleetScaleRates(t *testing.T) {
	// The historical 0.1 s gap floor hard-capped traces at 10 bursts/s no
	// matter the requested mean; the clamp now scales with the mean so
	// fleet-scale arrival rates are expressible.
	const meanGapS = 0.01 // 100 bursts/s
	bs := GenerateBursts(2000, meanGapS, 1, 42)
	span := bs[len(bs)-1].ArrivalS - bs[0].ArrivalS
	gotMean := span / float64(len(bs)-1)
	if gotMean > 2*meanGapS {
		t.Errorf("mean gap %.4f s for requested %.4f s: still clamped", gotMean, meanGapS)
	}
	if rate := 1 / gotMean; rate <= 10 {
		t.Errorf("achieved %.1f bursts/s, want well above the old 10/s cap", rate)
	}
	// Interactive traces keep the historical floor: no gap below 0.1 s
	// when the mean is well above it.
	slow := GenerateBursts(500, 10, 1, 42)
	for i := 1; i < len(slow); i++ {
		if gap := slow[i].ArrivalS - slow[i-1].ArrivalS; gap < 0.1-1e-12 {
			t.Fatalf("gap %.4f s below the 0.1 s interactive floor", gap)
		}
	}
	// A degenerate (zero) mean must not collapse the trace onto t = 0.
	deg := GenerateBursts(5, 0, 1, 42)
	for i := 1; i < len(deg); i++ {
		if gap := deg[i].ArrivalS - deg[i-1].ArrivalS; gap < 0.1-1e-12 {
			t.Fatalf("degenerate mean: gap %.4f s, want the 0.1 s floor", gap)
		}
	}
}

func TestSprintBeatsSustainedOnSparseBursts(t *testing.T) {
	cfg := DefaultConfig()
	sus := Evaluate(sparse(), SustainedPolicy, cfg)
	gov := Evaluate(sparse(), GovernedSprint, cfg)
	// Paper's headline: order-of-magnitude responsiveness for isolated
	// bursts (2 s of work in ≈0.125 s at width 16).
	if gov.MeanResponseS >= sus.MeanResponseS/8 {
		t.Errorf("governed sprint mean %.3f s vs sustained %.3f s: want ≈16× better",
			gov.MeanResponseS, sus.MeanResponseS)
	}
	if gov.FullIntensityPct < 99 {
		t.Errorf("sparse bursts should all run at full intensity, got %.0f%%", gov.FullIntensityPct)
	}
	if gov.ViolationJ != 0 {
		t.Error("governed policy must never violate the budget")
	}
}

func TestDenseBurstsDegradeTowardSustained(t *testing.T) {
	cfg := DefaultConfig()
	// Back-to-back heavy bursts: the budget refills at ~1/16 duty cycle,
	// so sustained-rate service must dominate (each burst alone costs
	// ≈7.5 J of a ≈18 J budget).
	dense := []Burst{}
	for i := 0; i < 8; i++ {
		dense = append(dense, Burst{ArrivalS: float64(i) * 0.6, WorkS: 8})
	}
	gov := Evaluate(dense, GovernedSprint, cfg)
	if gov.FullIntensityPct > 50 {
		t.Errorf("dense bursts cannot mostly run at full intensity: %.0f%%", gov.FullIntensityPct)
	}
	// Still no violations, and still no slower than sustained.
	if gov.ViolationJ != 0 {
		t.Error("governed policy must never violate")
	}
	sus := Evaluate(dense, SustainedPolicy, cfg)
	if gov.MeanResponseS > sus.MeanResponseS*1.01 {
		t.Errorf("governed (%.2f s) should never lose to sustained (%.2f s)",
			gov.MeanResponseS, sus.MeanResponseS)
	}
}

func TestUnmanagedSprintViolates(t *testing.T) {
	cfg := DefaultConfig()
	dense := []Burst{}
	for i := 0; i < 6; i++ {
		dense = append(dense, Burst{ArrivalS: float64(i) * 0.2, WorkS: 6})
	}
	um := Evaluate(dense, UnmanagedSprint, cfg)
	if um.ViolationJ <= 0 {
		t.Error("unmanaged dense sprinting must exceed the thermal budget")
	}
	gov := Evaluate(dense, GovernedSprint, cfg)
	if gov.ViolationJ != 0 {
		t.Error("governor must prevent violations on the same trace")
	}
	// Unmanaged is faster on paper but only by pretending the violation is
	// free — the comparison the governor exists to forbid.
	if um.MeanResponseS > gov.MeanResponseS {
		t.Error("unmanaged (violating) should not be slower than governed")
	}
}

func TestFIFOQueueing(t *testing.T) {
	cfg := DefaultConfig()
	// Second burst arrives while the first is still being served
	// (sustained): it must queue.
	bursts := []Burst{{ArrivalS: 0, WorkS: 10}, {ArrivalS: 1, WorkS: 1}}
	m := Evaluate(bursts, SustainedPolicy, cfg)
	// First response 10 s; second waits 9 s then 1 s service = 10 s.
	if math.Abs(m.MaxResponseS-10) > 1e-9 {
		t.Errorf("max response = %v, want 10", m.MaxResponseS)
	}
	if math.Abs(m.MeanResponseS-10) > 1e-9 {
		t.Errorf("mean response = %v, want 10", m.MeanResponseS)
	}
}

func TestResponsePercentilesOrdered(t *testing.T) {
	f := func(seed int64) bool {
		bs := GenerateBursts(30, 8, 2, seed)
		for _, p := range []Policy{SustainedPolicy, GovernedSprint, UnmanagedSprint} {
			m := Evaluate(bs, p, DefaultConfig())
			if m.MeanResponseS <= 0 || m.P95ResponseS < m.MeanResponseS*0.5 ||
				m.MaxResponseS < m.P95ResponseS-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptySession(t *testing.T) {
	m := Evaluate(nil, GovernedSprint, DefaultConfig())
	if m.MeanResponseS != 0 || m.SessionS != 0 {
		t.Errorf("empty session should be zero: %+v", m)
	}
}

func TestPolicyNames(t *testing.T) {
	for _, p := range []Policy{SustainedPolicy, GovernedSprint, UnmanagedSprint} {
		if p.String() == "" {
			t.Error("unnamed policy")
		}
	}
}

// TestViolationEnergyUsesNominalPower is the regression test for the
// hardcoded "(powerW - 1)" violation accounting: at a non-1 W nominal
// configuration the energy executed above the budget is the excess over
// *nominal* power, so doubling nominal from 2 W to 4 W at fixed sprint
// power must shrink the per-second violation energy by exactly the
// nominal difference.
func TestViolationEnergyUsesNominalPower(t *testing.T) {
	dense := []Burst{}
	for i := 0; i < 6; i++ {
		dense = append(dense, Burst{ArrivalS: float64(i) * 0.2, WorkS: 6})
	}
	at := func(nominalW float64) Metrics {
		cfg := DefaultConfig()
		cfg.Governor.NominalPowerW = nominalW
		return Evaluate(dense, UnmanagedSprint, cfg)
	}
	lo, hi := at(2), at(4)
	if lo.ViolationJ <= 0 || hi.ViolationJ <= 0 {
		t.Fatalf("dense unmanaged sprinting must violate: %.3f J / %.3f J",
			lo.ViolationJ, hi.ViolationJ)
	}
	// Nominal power does not change service times or the budget model
	// (capacity and drain derive from the thermal design), so the
	// violation duration is identical and the energies differ by the
	// nominal delta per violating second.
	cfg := DefaultConfig()
	violS := lo.ViolationJ / (cfg.Governor.SprintPowerW - 2)
	wantHi := violS * (cfg.Governor.SprintPowerW - 4)
	if math.Abs(hi.ViolationJ-wantHi) > 1e-9 {
		t.Errorf("violation at 4 W nominal = %.6f J, want %.6f J (excess over nominal, not over 1 W)",
			hi.ViolationJ, wantHi)
	}
}
