package fleet

import (
	"context"
	"strings"
	"testing"

	"sprinting/internal/trace"
)

// TestRunSizeCaps pins the size caps: each bad size is a validation
// error from Run, never a makeslice panic, an out-of-memory death in an
// arrival generator, or a recorder emitting samples without end.
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := Run(context.Background(), tc.spec())
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error mentioning %q", err, tc.want)
			}
		})
	}
	// The smallest window the cap admits still runs.
	cfg := small()
	cfg.Trace = TraceConfig{Level: trace.LevelDecisions, WindowS: minTraceWindowS}
	if _, _, err := Run(context.Background(), Spec{Config: cfg}); err != nil {
		t.Fatalf("a %g s window was rejected: %v", minTraceWindowS, err)
	}
}

// TestRunSourceRules pins the source combinations Run refuses, each of
// which no entry point could express before there was one.
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
		})
	}
	// The same sources run when combined legally; a workload's duration
	// is irrelevant once a scenario supplies the timeline.
	for name, spec := range map[string]Spec{
		"replay":            {Config: cfg, Replay: rows},
		"workload":          {Config: cfg, Workload: w},
		"scenario workload": {Config: cfg, Scenario: sc, Workload: &noDuration},
		"traced scenario":   {Config: tracedCfg, Scenario: sc},
	} {
		if _, _, err := Run(context.Background(), spec); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
