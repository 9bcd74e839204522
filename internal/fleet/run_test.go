package fleet

import (
	"context"
	"io"
	"math"
	"strings"
	"testing"

	"sprinting/internal/trace"
)

// TestRunSizeCaps pins the size caps: each bad size is a validation
// error from Run, never a makeslice panic, an out-of-memory death in an
// arrival generator, a recorder emitting samples without end, or a mean
// work so long that latencies and energy overflow to Inf, and
// Spec.Validate reports the same error without running.
func TestRunSizeCaps(t *testing.T) {
	small := func() Config {
		cfg := DefaultConfig(SprintAware)
		cfg.Nodes, cfg.Requests = 8, 200
		return cfg
	}
	flat := &Scenario{Phases: []Phase{{Name: "flat", DurationS: 30}}}
	tenants := &WorkloadSpec{
		Classes: []SLOClass{{Name: "gold"}},
		Tenants: []TenantSpec{{Name: "a", Class: "gold", Arrival: ArrivalSpec{RatePerS: 2}, Work: WorkSpec{MeanS: 1}}},
	}
	cases := []struct {
		name string
		spec func() Spec
		want string
	}{
		{"nodes", func() Spec { c := small(); c.Nodes = 1 << 40; return Spec{Config: c} }, "node cap"},
		{"requests", func() Spec { c := small(); c.Requests = 1 << 40; return Spec{Config: c} }, "request cap"},
		{"trace window", func() Spec {
			c := small()
			c.Trace = TraceConfig{Level: trace.LevelDecisions, WindowS: 1e-9}
			return Spec{Config: c}
		}, "trace window"},
		{"scenario requests", func() Spec {
			sc := *flat
			sc.MaxRequests = requestCap + 1
			return Spec{Config: small(), Scenario: &sc}
		}, "request cap"},
		{"scenario class count", func() Spec {
			sc := *flat
			sc.Classes = []NodeClass{{Name: "huge", Count: 1 << 40}}
			return Spec{Config: small(), Scenario: &sc}
		}, "count"},
		{"workload requests", func() Spec {
			w := *tenants
			w.DurationS, w.MaxRequests = 30, requestCap+1
			return Spec{Config: small(), Workload: &w}
		}, "request cap"},
		{"mean work", func() Spec { c := small(); c.MeanWorkS = 1e308; return Spec{Config: c} }, "mean work must be at most"},
		{"tenant mean work", func() Spec {
			w := *tenants
			w.DurationS = 30
			w.Tenants = []TenantSpec{w.Tenants[0]}
			w.Tenants[0].Work.MeanS = maxReplayS * (1 + 1e-9)
			return Spec{Config: small(), Workload: &w}
		}, "mean work must be at most"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := Run(context.Background(), tc.spec())
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error mentioning %q", err, tc.want)
			}
			sameError(t, tc.spec().Validate(), err)
		})
	}
	// The smallest window the cap admits still runs.
	cfg := small()
	cfg.Trace = TraceConfig{Level: trace.LevelDecisions, WindowS: minTraceWindowS}
	spec := Spec{Config: cfg}
	if err := spec.Validate(); err != nil {
		t.Fatalf("Validate rejected a %g s window: %v", minTraceWindowS, err)
	}
	if _, _, err := Run(context.Background(), spec); err != nil {
		t.Fatalf("a %g s window was rejected: %v", minTraceWindowS, err)
	}
	// The longest mean work the cap admits runs to finite results.
	cfg = small()
	cfg.Requests, cfg.MeanWorkS = 10, maxReplayS
	m, _, err := Run(context.Background(), Spec{Config: cfg})
	if err != nil {
		t.Fatalf("a %g s mean work was rejected: %v", float64(maxReplayS), err)
	}
	if math.IsInf(m.MaxS, 0) || math.IsInf(m.EnergyPerRequestJ, 0) || math.IsNaN(m.MeanS) {
		t.Errorf("a %g s mean work overflowed: max %g s, %g J/req, mean %g s", float64(maxReplayS), m.MaxS, m.EnergyPerRequestJ, m.MeanS)
	}
}

// sameError fails unless Validate refused the spec with exactly the error
// text Run returned.
func sameError(t *testing.T, validateErr, runErr error) {
	t.Helper()
	if validateErr == nil || validateErr.Error() != runErr.Error() {
		t.Errorf("Validate returned %v, Run %q", validateErr, runErr)
	}
}

// TestRunSourceRules pins the source combinations Run refuses, each of
// which no entry point could express before there was one, and that
// Spec.Validate draws the same line: it refuses each with Run's error
// and accepts each legal spec.
func TestRunSourceRules(t *testing.T) {
	cfg := DefaultConfig(SprintAware)
	cfg.Nodes = 4
	tracedCfg := cfg
	tracedCfg.Trace = TraceConfig{Level: trace.LevelDecisions}
	rows := []TraceRequest{{ArrivalS: 0, WorkS: 1}, {ArrivalS: 1, WorkS: 2}}
	sc := &Scenario{Phases: []Phase{{Name: "flat", DurationS: 30}}}
	w := &WorkloadSpec{
		Classes:   []SLOClass{{Name: "gold"}},
		Tenants:   []TenantSpec{{Name: "a", Class: "gold", Arrival: ArrivalSpec{RatePerS: 1}, Work: WorkSpec{MeanS: 1}}},
		DurationS: 30,
	}
	noDuration := *w
	noDuration.DurationS = 0
	negDuration := *w
	negDuration.DurationS = -1
	classesOnly := &WorkloadSpec{Classes: w.Classes}
	unknownClass := []TraceRequest{{ArrivalS: 0, WorkS: 1, Class: "gold"}, {ArrivalS: 1, WorkS: 2, Class: "tin"}}
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"replay with scenario", Spec{Config: cfg, Replay: rows, Scenario: sc}, "cannot ride a scenario"},
		{"trace with workload", Spec{Config: tracedCfg, Workload: w}, "flight recorder"},
		{"trace with workload on a scenario", Spec{Config: tracedCfg, Scenario: sc, Workload: w}, "flight recorder"},
		{"trace with replay", Spec{Config: tracedCfg, Replay: rows}, "flight recorder"},
		{"empty replay", Spec{Config: cfg, Replay: []TraceRequest{}}, "no rows"},
		{"workload without duration", Spec{Config: cfg, Workload: &noDuration}, "positive duration"},
		{"workload with negative duration", Spec{Config: cfg, Workload: &negDuration}, "positive duration"},
		{"replay with tenants", Spec{Config: cfg, Replay: rows, Workload: w}, "declare classes only"},
		{"replay with an undeclared class", Spec{Config: cfg, Replay: unknownClass, Workload: classesOnly}, `unknown class "tin"`},
	}
	// Replay rows whose completion would overflow, and a traced load
	// spread over more timeline windows than the recorder may sample,
	// are refused with exactly these errors.
	sparse := tracedCfg
	sparse.Requests = 10
	sparse.ArrivalRatePerS = 1e-300
	for _, tc := range []struct {
		name string
		spec Spec
		want string
	}{
		{"replay near the float limit", Spec{Config: cfg, Replay: []TraceRequest{{ArrivalS: 1e300, WorkS: 1e300}, {ArrivalS: 1.7e308, WorkS: 1.7e308}}},
			"fleet: trace row 1: arrival_s and work_s must be at most 1e+09 s (got 1e+300 and 1e+300)"},
		{"replay work near the float limit", Spec{Config: cfg, Replay: []TraceRequest{{ArrivalS: 0, WorkS: 1}, {ArrivalS: 1.7e308, WorkS: 1.7e308}}},
			"fleet: trace row 2: arrival_s and work_s must be at most 1e+09 s (got 1.7e+308 and 1.7e+308)"},
		{"trace writer without a level", Spec{Config: Config{Nodes: 4, Trace: TraceConfig{Writer: io.Discard}}},
			"fleet: a trace writer needs a trace level other than off"},
		{"trace over too many windows", Spec{Config: sparse},
			"fleet: a traced load spanning 1e+301 s covers more than 1048576 timeline windows of 5 s; widen the trace window or shorten the load"},
	} {
		if err := tc.spec.Validate(); err == nil || err.Error() != tc.want {
			t.Errorf("%s: Validate = %v, want %q", tc.name, err, tc.want)
		}
		if _, _, err := Run(context.Background(), tc.spec); err == nil || err.Error() != tc.want {
			t.Errorf("%s: Run = %v, want %q", tc.name, err, tc.want)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, tr, err := Run(context.Background(), tc.spec)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v (%d completed), want an error mentioning %q", err, m.Completed, tc.want)
			}
			if tr != nil {
				t.Error("a refused run returned a trace")
			}
			sameError(t, tc.spec.Validate(), err)
		})
	}
	// A sparse traced load within the window cap runs: 10 requests at
	// 1e-5 req/s span 200,000 windows.
	sparseOK := sparse
	sparseOK.ArrivalRatePerS = 1e-5
	// The same sources run when combined legally; a workload's duration
	// is irrelevant once a scenario supplies the timeline. Validate
	// applies Run's defaults, so a config that leaves Requests and the
	// rest at zero is legal too.
	for name, spec := range map[string]Spec{
		"replay":            {Config: cfg, Replay: rows},
		"workload":          {Config: cfg, Workload: w},
		"scenario workload": {Config: cfg, Scenario: sc, Workload: &noDuration},
		"traced scenario":   {Config: tracedCfg, Scenario: sc},
		"sparse trace":      {Config: sparseOK},
		"zero fields":       {Config: Config{Nodes: 4, Policy: SprintAware}},
		"labeled replay":    {Config: cfg, Replay: unknownClass[:1], Workload: classesOnly},
	} {
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: Validate: %v", name, err)
		}
		if _, _, err := Run(context.Background(), spec); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
