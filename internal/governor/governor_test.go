package governor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sprinting/internal/thermal"
)

func newGov(t *testing.T) *Governor {
	t.Helper()
	return New(DefaultConfig())
}

func TestFreshBudgetCoversOneSecondSprint(t *testing.T) {
	g := newGov(t)
	// The design point: a 16 W sprint for ≈1 s from cold.
	if !g.CanSprint(16, 1.0) {
		t.Errorf("fresh governor should allow a 16 W × 1 s sprint (max %.2f s)", g.MaxSprintS(16))
	}
	if g.CanSprint(16, 3.0) {
		t.Error("a 3 s full sprint should exceed the budget")
	}
}

func TestSustainablePowerIsUnlimited(t *testing.T) {
	g := newGov(t)
	if !math.IsInf(g.MaxSprintS(0.5), 1) {
		t.Error("sub-TDP power should be sustainable indefinitely")
	}
	if g.DutyCycle(0.5) != 1 {
		t.Error("sub-TDP duty cycle should be 1")
	}
}

func TestRecordSprintDrainsBudget(t *testing.T) {
	g := newGov(t)
	before := g.RemainingJ()
	used := g.RecordSprint(16, 0.5)
	if used <= 0 {
		t.Fatal("sprint should consume budget")
	}
	if got := g.RemainingJ(); math.Abs(before-used-got) > 1e-9 {
		t.Errorf("budget accounting inconsistent: %v - %v != %v", before, used, got)
	}
	if g.Now() != 0.5 {
		t.Errorf("clock = %v, want 0.5", g.Now())
	}
}

func TestIdleRefills(t *testing.T) {
	g := newGov(t)
	g.RecordSprint(16, 1.0)
	low := g.RemainingJ()
	g.Idle(5)
	if g.RemainingJ() <= low {
		t.Error("idling should refill the budget")
	}
	g.Idle(1e6)
	if math.Abs(g.RemainingJ()-g.CapacityJ()) > 1e-9 {
		t.Error("long idle should fully refill")
	}
}

func TestCooldownMatchesRuleOfThumb(t *testing.T) {
	// §4.5: cooldown ≈ sprint duration × (sprint power / TDP).
	g := newGov(t)
	g.RecordSprint(16, 1.0)
	want := thermal.ApproxCooldownS(1.0, 16-1, 1) // net heat over drain rate
	got := g.TimeToFullS()
	if got < want*0.5 || got > want*1.5 {
		t.Errorf("time to full = %.1f s, rule of thumb ≈ %.1f s", got, want)
	}
}

func TestTimeUntilSprint(t *testing.T) {
	g := newGov(t)
	if got := g.TimeUntilSprintS(16, 0.5); got != 0 {
		t.Errorf("fresh budget should allow immediately, got %v s", got)
	}
	g.RecordSprint(16, 1.2) // drain most of it
	wait := g.TimeUntilSprintS(16, 1.0)
	if wait <= 0 {
		t.Fatal("depleted budget should require waiting")
	}
	g.Idle(wait + 1e-9)
	if !g.CanSprint(16, 1.0) {
		t.Error("after the computed wait the sprint should fit")
	}
	if !math.IsInf(g.TimeUntilSprintS(16, 100), 1) {
		t.Error("a burst larger than the whole budget can never fit")
	}
}

func TestMaxIntensityScalesWithDuration(t *testing.T) {
	g := newGov(t)
	short := g.MaxIntensityW(0.1)
	long := g.MaxIntensityW(10)
	if short < long {
		t.Errorf("shorter bursts should allow higher intensity: %.1f vs %.1f", short, long)
	}
	if short > g.cfg.SprintPowerW {
		t.Errorf("intensity must cap at the platform's %.0f W", g.cfg.SprintPowerW)
	}
	if long < g.cfg.NominalPowerW {
		t.Errorf("intensity floor is nominal power, got %.2f", long)
	}
}

func TestDutyCycle(t *testing.T) {
	g := newGov(t)
	dc := g.DutyCycle(16)
	// 1 W drain against 16 W sprint ⇒ ≈1/16 duty cycle (§3).
	if dc < 0.04 || dc > 0.09 {
		t.Errorf("duty cycle at 16 W = %.3f, want ≈1/16", dc)
	}
}

func TestSafetyFracHoldsBack(t *testing.T) {
	loose := DefaultConfig()
	loose.SafetyFrac = 0
	tight := DefaultConfig()
	tight.SafetyFrac = 0.5
	if New(tight).CapacityJ() >= New(loose).CapacityJ() {
		t.Error("larger guard band must shrink the usable budget")
	}
}

func TestValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.SprintPowerW = 0 },
		func(c *Config) { c.NominalPowerW = -1 },
		func(c *Config) { c.NominalPowerW = c.SprintPowerW },
		func(c *Config) { c.SafetyFrac = 1 },
		func(c *Config) { c.Design.PCMMassG = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

// TestValidateRejectsNonFinite: a NaN passes every range check, so each
// float field is checked for finiteness on its own.
func TestValidateRejectsNonFinite(t *testing.T) {
	fields := []struct {
		name string
		set  func(*Config, float64)
	}{
		{"SprintPowerW", func(c *Config, v float64) { c.SprintPowerW = v }},
		{"NominalPowerW", func(c *Config, v float64) { c.NominalPowerW = v }},
		{"SafetyFrac", func(c *Config, v float64) { c.SafetyFrac = v }},
		{"Design.AmbientC", func(c *Config, v float64) { c.Design.AmbientC = v }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := DefaultConfig()
			f.set(&cfg, v)
			if cfg.Validate() == nil {
				t.Errorf("%s = %g: expected validation error", f.name, v)
			}
		}
	}
}

// Property: the budget is conserved under any interleaving of sprints and
// idles — RemainingJ stays within [0, capacity].
func TestBudgetBoundsProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		g := New(DefaultConfig())
		for _, op := range ops {
			d := float64(op%50)/100 + 0.01
			if op%2 == 0 {
				g.RecordSprint(16, d)
			} else {
				g.Idle(d)
			}
			r := g.RemainingJ()
			if r < -1e-9 || r > g.CapacityJ()+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: CanSprint is consistent with MaxSprintS.
func TestCanSprintConsistency(t *testing.T) {
	f := func(powRaw, durRaw float64) bool {
		p := math.Mod(math.Abs(powRaw), 32) + 0.1
		d := math.Mod(math.Abs(durRaw), 5) + 0.001
		g := New(DefaultConfig())
		can := g.CanSprint(p, d)
		max := g.MaxSprintS(p)
		return can == (d <= max)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Serve conserves work, bills energy by phase, advances the
// clock by the service time, and WillSprint predicts its sprint phase,
// from any stored heat, at any width in [1, 16] and any sprint power in
// (drainW, SprintPowerW]. Each case draws its stored heat as a fraction of
// the budget, exactly exhausted one time in four, so every branch runs:
// a full-width service, a budget-limited sprint that degrades, and a
// service that never sprints.
func TestServeProperty(t *testing.T) {
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(1))
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-12*math.Abs(want) }
	var fullN, partN, noneN int
	for i := 0; i < 20000; i++ {
		g := New(cfg)
		heat := 1.0
		if i%4 != 0 {
			heat = rng.Float64()
		}
		g.RecordSprint(cfg.SprintPowerW, heat*g.MaxSprintS(cfg.SprintPowerW))
		workS := math.Exp(rng.Float64()*12 - 6) // 2.5 ms to 400 s
		width := 1 + 15*rng.Float64()
		sprintW := cfg.SprintPowerW - (cfg.SprintPowerW-g.drainW)*rng.Float64()
		if sprintW <= g.drainW {
			continue
		}
		will := g.WillSprint(workS, width, sprintW)
		before := g.Now()
		serviceS, energyJ, sprintS, full := g.Serve(workS, width, sprintW)
		degradedS := serviceS - sprintS
		switch {
		case !near(sprintS*width+degradedS, workS):
			t.Fatalf("case %d: %.17g s at width %g plus %.17g s degraded is not the work %.17g s", i, sprintS, width, degradedS, workS)
		case !near(energyJ, sprintW*sprintS+cfg.NominalPowerW*degradedS):
			t.Fatalf("case %d: billed %.17g J for %g s at %g W and %g s at %g W", i, energyJ, sprintS, sprintW, degradedS, cfg.NominalPowerW)
		case full != (serviceS == sprintS):
			t.Fatalf("case %d: full = %v with %.17g s of %.17g s at full width", i, full, sprintS, serviceS)
		case math.Abs(g.Now()-before-serviceS) > 1e-12*g.Now(): // the clock's own rounding
			t.Fatalf("case %d: clock advanced %.17g s for a %.17g s service", i, g.Now()-before, serviceS)
		case will != (sprintS > 0):
			t.Fatalf("case %d: WillSprint = %v with a %g s sprint phase", i, will, sprintS)
		}
		switch {
		case full:
			fullN++
		case sprintS > 0:
			partN++
		default:
			noneN++
		}
	}
	if fullN == 0 || partN == 0 || noneN == 0 {
		t.Errorf("branches ran %d full / %d partial / %d unsprinted times; want all three", fullN, partN, noneN)
	}
}

func TestDegenerateInputs(t *testing.T) {
	g := newGov(t)
	if g.RecordSprint(-1, 1) != 0 || g.RecordSprint(16, -1) != 0 {
		t.Error("invalid sprints should consume nothing")
	}
	g.Idle(-5)
	if g.Now() != 0 {
		t.Error("negative idle should not move the clock")
	}
	if g.CanSprint(0, 1) || g.CanSprint(16, 0) {
		t.Error("degenerate demands should be rejected")
	}
	if g.TimeUntilSprintS(0, 1) != 0 {
		t.Error("degenerate demand needs no wait")
	}
}

// TestSubDrainSprintRefills is the regression test for the asymmetric
// accounting bug: a long "sprint" below the drain rate used to clamp its
// negative net energy to 0 and never refill the budget, even though the
// physically identical Idle call would. Recording a sub-drain burst must
// recover budget exactly like idling for the same duration.
func TestSubDrainSprintRefills(t *testing.T) {
	cfg := DefaultConfig()
	subW := 0.5 * cfg.Design.SustainedPowerBudgetW() // below the drain rate

	recorded := New(cfg)
	recorded.RecordSprint(16, 1.0) // deplete some budget
	depleted := recorded.RemainingJ()
	used := recorded.RecordSprint(subW, 4.0)
	if recorded.RemainingJ() <= depleted {
		t.Errorf("sub-drain sprint should refill the budget: %.3f J -> %.3f J",
			depleted, recorded.RemainingJ())
	}
	if used >= 0 {
		t.Errorf("sub-drain sprint should report recovered budget, got %.3f J", used)
	}

	idled := New(cfg)
	idled.RecordSprint(16, 1.0)
	idled.Idle(4.0)
	// Idle drains at the full rate; the sub-drain sprint still adds subW of
	// heat, so it recovers less — but both clocks and bounds must agree.
	if recorded.Now() != idled.Now() {
		t.Errorf("clocks diverged: %.3f vs %.3f", recorded.Now(), idled.Now())
	}
	if recorded.RemainingJ() > idled.RemainingJ() {
		t.Errorf("a sub-drain burst cannot recover more than pure idle: %.3f J > %.3f J",
			recorded.RemainingJ(), idled.RemainingJ())
	}

	// At exactly the drain rate the budget is flat in either direction.
	flat := New(cfg)
	flat.RecordSprint(16, 1.0)
	before := flat.RemainingJ()
	if used := flat.RecordSprint(cfg.Design.SustainedPowerBudgetW(), 3.0); used != 0 {
		t.Errorf("at-drain burst should be budget-neutral, consumed %.3f J", used)
	}
	if flat.RemainingJ() != before {
		t.Errorf("at-drain burst moved the budget: %.3f J -> %.3f J", before, flat.RemainingJ())
	}
}

// TestRetarget moves a governor between operating environments: stored
// heat survives the move, a shrunken capacity clamps it at exhausted, and
// the new drain rate drives refill from then on.
func TestRetarget(t *testing.T) {
	cfg := DefaultConfig()
	g := New(cfg)
	cap0, drain0 := g.CapacityJ(), g.drainW
	if drain0 != cfg.Design.SustainedPowerBudgetW() {
		t.Fatalf("DrainW = %.3f, want the sustained budget %.3f", drain0, cfg.Design.SustainedPowerBudgetW())
	}
	g.RecordSprint(16, 0.5)
	stored := cap0 - g.RemainingJ()

	// A milder environment: more capacity, faster drain; stored heat keeps.
	g.Retarget(cap0*1.5, drain0*2)
	if g.CapacityJ() != cap0*1.5 || g.drainW != drain0*2 {
		t.Fatalf("retarget did not take: cap %.3f drain %.3f", g.CapacityJ(), g.drainW)
	}
	if got := g.CapacityJ() - g.RemainingJ(); math.Abs(got-stored) > 1e-9 {
		t.Errorf("stored heat changed across retarget: %.3f J -> %.3f J", stored, got)
	}

	// A hostile environment below the stored heat clamps to exhausted.
	g.Retarget(stored/2, drain0)
	if g.RemainingJ() != 0 {
		t.Errorf("shrinking capacity below stored heat should clamp remaining to 0, got %.3f J", g.RemainingJ())
	}
	if g.MaxSprintS(16) != 0 {
		t.Errorf("an exhausted retargeted governor should deny sprints, got %.3f s", g.MaxSprintS(16))
	}

	// Refill now runs at the retargeted drain rate.
	g.Retarget(cap0, drain0*2)
	g.Idle(1)
	if want := math.Min(cap0, cap0-stored/2+drain0*2); math.Abs(g.RemainingJ()-math.Min(want, cap0)) > 1e-9 {
		t.Errorf("refill after retarget = %.3f J, want %.3f J", g.RemainingJ(), math.Min(want, cap0))
	}
	// A negative capacity is clamped to zero rather than going negative.
	g.Retarget(-1, drain0)
	if g.CapacityJ() != 0 || g.RemainingJ() != 0 {
		t.Errorf("negative capacity should clamp to 0: cap %.3f rem %.3f", g.CapacityJ(), g.RemainingJ())
	}
}

// TestProjectSMatchesServe: ProjectS is Serve's closed form. From any
// stored heat, after any idle gap, at any width in [1, 16] and any sprint
// power up to SprintPowerW (sustainable ones included), projecting from
// now+dt agrees with a governor copy that idles dt and then serves, to
// 1e-12 relative, plus the ledger's own rounding: the projection adds
// the refill to the remaining budget while Idle subtracts it from the
// stored heat, so the two budgets differ by a few ulps of the capacity,
// which a nearly exhausted budget turns into width·ulp/net seconds. Where
// the full-width window is under Serve's slice floor, Serve rounds it
// down to no sprint and the projection keeps it: there they may differ by
// that window's width − 1 core-seconds, under width·1e-9 s. ProjectS must
// leave the ledger untouched.
func TestProjectSMatchesServe(t *testing.T) {
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(2))
	var floorN, oneWideN int
	for i := 0; i < 50000; i++ {
		g := New(cfg)
		heat := 1.0
		if i%4 != 0 {
			heat = rng.Float64()
		}
		g.RecordSprint(cfg.SprintPowerW, heat*g.MaxSprintS(cfg.SprintPowerW))
		dt := 0.0
		if i%3 != 0 {
			dt = math.Exp(rng.Float64()*16 - 12) // 6 µs to 55 s
		}
		workS := math.Exp(rng.Float64()*12 - 6) // 2.5 ms to 400 s
		width := 1 + 15*rng.Float64()
		if i%5 == 0 {
			width = 1
			oneWideN++
		}
		sprintW := cfg.SprintPowerW * (0.05 + 0.95*rng.Float64())

		before := *g
		got := g.ProjectS(g.Now()+dt, workS, width, sprintW)
		if *g != before {
			t.Fatalf("case %d: ProjectS changed the ledger", i)
		}
		served := *g
		served.Idle(dt)
		windowS := served.MaxSprintS(sprintW)
		want, _, _, _ := served.Serve(workS, width, sprintW)
		tol := 1e-12 * want
		if netW := sprintW - g.DrainW(); netW > 0 {
			tol += 4 * 0x1p-52 * g.CapacityJ() / netW * width
		}
		if windowS <= sliceFloorS && windowS*width < workS {
			tol += width * sliceFloorS
			floorN++
		}
		if math.Abs(got-want) > tol {
			t.Fatalf("case %d: ProjectS = %.17g s, idle %g s then Serve = %.17g s (work %g s, width %g, %g W)",
				i, got, dt, want, workS, width, sprintW)
		}
	}
	if floorN == 0 || oneWideN == 0 {
		t.Errorf("%d cases under the slice floor and %d 1-wide; want both", floorN, oneWideN)
	}
}

// TestCoverKeySProperty: an idle governor's EmptyAtS is at or below
// CoverKeyS exactly when its budget, refilled to the query time, covers
// the service at full width (capped at the capacity every saturated
// governor holds alike) — and CoverKeyS is +Inf, every governor tying,
// when sprinting is sustainable or the service is 1-wide.
func TestCoverKeySProperty(t *testing.T) {
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(3))
	var covered, short int
	for i := 0; i < 50000; i++ {
		g := New(cfg)
		heat := 1.0
		if i%4 != 0 {
			heat = rng.Float64()
		}
		g.RecordSprint(cfg.SprintPowerW, heat*g.MaxSprintS(cfg.SprintPowerW))
		dt := 0.0
		if i%3 != 0 {
			dt = math.Exp(rng.Float64()*12 - 8) // 0.3 ms to 55 s
		}
		workS := math.Exp(rng.Float64()*12 - 6)
		width := 1 + 15*rng.Float64()
		sprintW := cfg.SprintPowerW * (0.05 + 0.95*rng.Float64())
		nowS := g.Now() + dt

		key := g.CoverKeyS(nowS, workS, width, sprintW)
		netW := sprintW - g.DrainW()
		if netW <= 0 {
			if !math.IsInf(key, 1) {
				t.Fatalf("case %d: sustainable %g W gives cover key %g, want +Inf", i, sprintW, key)
			}
			continue
		}
		refilled := *g
		refilled.Idle(dt)
		needJ := math.Min(g.CapacityJ(), netW*workS/width)
		if got, want := g.EmptyAtS() <= key, refilled.RemainingJ() >= needJ; got != want {
			t.Fatalf("case %d: EmptyAtS %.17g ≤ cover key %.17g is %v, but %.17g J refilled against %.17g J needed is %v",
				i, g.EmptyAtS(), key, got, refilled.RemainingJ(), needJ, want)
		} else if want {
			covered++
		} else {
			short++
		}
		if !math.IsInf(g.CoverKeyS(nowS, workS, 1, sprintW), 1) {
			t.Fatalf("case %d: a 1-wide service gives a finite cover key", i)
		}
	}
	if covered == 0 || short == 0 {
		t.Errorf("%d covered and %d short cases; want both", covered, short)
	}
}

// TestSustainBooksLikeIdle: nominal-power service bills NominalPowerW per
// second and books the budget exactly as an idle interval does.
func TestSustainBooksLikeIdle(t *testing.T) {
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		g := New(cfg)
		g.RecordSprint(cfg.SprintPowerW, rng.Float64()*g.MaxSprintS(cfg.SprintPowerW))
		d := math.Exp(rng.Float64()*12 - 6)
		idled := *g
		idled.Idle(d)
		if e := g.Sustain(d); e != cfg.NominalPowerW*d {
			t.Fatalf("case %d: Sustain(%g) billed %.17g J, want %.17g J", i, d, e, cfg.NominalPowerW*d)
		}
		if *g != idled {
			t.Fatalf("case %d: Sustain(%g) left the ledger at %+v, Idle at %+v", i, d, *g, idled)
		}
	}
}

// benchWork is a fixed mix of request sizes around the paper's 1 s
// design-point sprint, so the benchmarks run every Serve branch.
func benchWork() []float64 {
	rng := rand.New(rand.NewSource(5))
	w := make([]float64, 1024)
	for i := range w {
		w[i] = rng.ExpFloat64() * 8
	}
	return w
}

// BenchmarkServe times one governed service after an idle gap: the
// per-service cost a fleet node pays in startService.
func BenchmarkServe(b *testing.B) {
	cfg := DefaultConfig()
	g := New(cfg)
	work := benchWork()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Idle(1)
		g.Serve(work[i%len(work)], 16, cfg.SprintPowerW)
	}
}

// BenchmarkProject times one service-time projection from a later start:
// the per-candidate cost of sprint-aware dispatch scoring.
func BenchmarkProject(b *testing.B) {
	cfg := DefaultConfig()
	g := New(cfg)
	g.RecordSprint(cfg.SprintPowerW, 0.6*g.MaxSprintS(cfg.SprintPowerW))
	work := benchWork()
	sum := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum += g.ProjectS(g.Now()+float64(i&7), work[i%len(work)], 16, cfg.SprintPowerW)
	}
	if sum < 0 {
		b.Fatal(sum)
	}
}
