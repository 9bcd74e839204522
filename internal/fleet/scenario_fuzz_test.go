package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"sprinting/internal/trace"
)

// FuzzScenarioJSON fuzzes the declarative scenario surface end to end:
// any byte string that strictly decodes (unknown fields rejected, as
// cmd/fleetsim decodes) must re-marshal and strictly re-decode to the
// same canonical form — marshaling is idempotent, so the JSON form is a
// faithful round-trip. (Canonical-form equality, not DeepEqual: an
// explicit empty list like {"classes":[]} decodes to an empty non-nil
// slice that omitempty then drops, which is the same scenario but not
// the same Go value — the fuzzer found exactly that.) And when its
// resource demands are bounded, actually running it must never panic:
// invalid scenarios fail loudly through Validate or the trace cap,
// never through a crash. A run that succeeds must also keep to the
// timeline (see checkTimeline), under the scenario generator and the
// workload generator riding the same phases.
func FuzzScenarioJSON(f *testing.F) {
	_, flash := flashCrowdChurn()
	if seed, err := json.Marshal(flash); err == nil {
		f.Add(seed)
	}
	f.Add([]byte(`{"phases":[{"name":"p","duration_s":10,"shape":"sine","period_s":3,"start_factor":0.5,"end_factor":2}],"classes":[{"name":"big","count":4,"sprint_width":32},{"name":"small","count":4}],"churn":{"mtbf_s":8,"mean_downtime_s":2}}`))
	f.Add([]byte(`{"phases":[{"duration_s":1e308}]}`))
	f.Add([]byte(`{"phases":[{"duration_s":-1}],"churn":{"mtbf_s":1e-300}}`))
	f.Add([]byte(`{"phases":null,"max_requests":-5}`))
	f.Add([]byte(`{"phases":[{"duration_s":5,"shape":"bogus"}],"base_rate_per_s":1e300}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"unknown_knob":1}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var sc Scenario
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&sc) != nil {
			return
		}
		out, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("decoded scenario failed to re-marshal: %v", err)
		}
		var rt Scenario
		dec = json.NewDecoder(bytes.NewReader(out))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rt); err != nil {
			t.Fatalf("re-marshaled scenario failed strict re-decode: %v\njson: %s", err, out)
		}
		out2, err := json.Marshal(rt)
		if err != nil {
			t.Fatalf("round-tripped scenario failed to re-marshal: %v", err)
		}
		if !bytes.Equal(out2, out) {
			t.Fatalf("round-trip changed the scenario's canonical form:\nbefore: %s\nafter:  %s", out, out2)
		}

		if !runnableUnderFuzz(sc) {
			return
		}
		sc.MaxRequests = 2000 // bound the arena; hitting the cap is a loud error, not a crash
		at := make([]float64, len(sc.Phases)+1)
		for i, p := range sc.Phases {
			at[i+1] = at[i] + p.DurationS
		}
		cfg := DefaultConfig(SprintAware)
		cfg.Coordination = TokenPermit
		if n := sc.Nodes(); n > 0 {
			cfg.Nodes = n
		}
		for _, workers := range []int{0, 3} {
			cfg.Workers = workers
			m, _, err := Run(context.Background(), Spec{Config: cfg, Scenario: &sc}) // errors fine; panics are findings
			if err == nil {
				checkTimeline(t, at, m.Phases, nil, nil)
			}
		}
		cfg.Workers = 0
		r, err := Spec{Config: cfg, Scenario: &sc}.resolve()
		if err != nil {
			return
		}
		reqs, _ := r.sc.generate(r.cfg, max(r.sc.BaseRatePerS, 1))
		checkTimeline(t, at, nil, reqs, nil)
		putArena(reqs)
		// Two tenants at a combined ~100 arrivals over the timeline.
		w := WorkloadSpec{Classes: []SLOClass{{Name: "c"}}, Tenants: []TenantSpec{
			{Name: "poisson", Class: "c", Arrival: ArrivalSpec{Process: "poisson", RatePerS: 50 / at[len(at)-1]}, Work: WorkSpec{Dist: "exp", MeanS: 1}},
			{Name: "gamma", Class: "c", Arrival: ArrivalSpec{Process: "gamma", RatePerS: 50 / at[len(at)-1], Shape: 0.5}, Work: WorkSpec{Dist: "exp", MeanS: 1}},
		}}
		if r, err = (Spec{Config: cfg, Scenario: &sc, Workload: &w}).resolve(); err != nil {
			t.Fatalf("the fixed workload over a valid scenario: %v", err)
		}
		reqs, _ = r.w.generate(r.cfg, *r.sc, r.cfg.Requests)
		checkTimeline(t, at, nil, reqs, nil)
		putArena(reqs)
		cfg.Trace.Level = trace.LevelFull
		if _, tr, err := Run(context.Background(), Spec{Config: cfg, Scenario: &sc}); err == nil {
			checkTimeline(t, at, nil, nil, tr)
		}
	})
}

// checkTimeline holds a run to the phase boundaries at, summed by the
// caller from the declared durations (phase i spans [at[i], at[i+1])):
// every generated request lies in the span of the phase it is charged
// to, PhaseMetrics i reports that span, and a full-level recording marks
// each later phase's start at its boundary, in order.
func checkTimeline(t *testing.T, at []float64, phases []PhaseMetrics, reqs []request, tr *trace.Trace) {
	t.Helper()
	for i, r := range reqs {
		if p := r.phase; !(at[p] <= r.arrivalS && r.arrivalS < at[p+1]) {
			t.Fatalf("request %d arrives at %v in phase %d, which spans [%v, %v)", i, r.arrivalS, p, at[p], at[p+1])
		}
	}
	for i, pm := range phases {
		if pm.StartS != at[i] || pm.EndS != at[i+1] {
			t.Fatalf("phase %d metrics span [%v, %v), timeline [%v, %v)", i, pm.StartS, pm.EndS, at[i], at[i+1])
		}
	}
	if tr == nil {
		return
	}
	starts := tr.Events("phase-start")
	if len(starts) != len(at)-2 {
		t.Fatalf("%d phase-start events for %d phases", len(starts), len(at)-1)
	}
	for i, ev := range starts {
		if ev.Phase != i+1 || ev.AtS != at[i+1] {
			t.Fatalf("phase-start event %d: phase %d at %v, want phase %d at %v", i, ev.Phase, ev.AtS, i+1, at[i+1])
		}
	}
}

// runnableUnderFuzz bounds the execution half of the fuzz target to
// scenarios whose event counts are finite and small. Validate rejects
// most hostile inputs loudly, but two demands scale with otherwise-valid
// field values rather than failing validation: node and rack churn each
// schedule one failure event per MTBF over the whole timeline, and class
// counts size the fleet. The decode round-trip above still covers every
// input.
func runnableUnderFuzz(sc Scenario) bool {
	totalS := 0.0
	for _, p := range sc.Phases {
		if !(p.DurationS > 0) || p.DurationS > 1e4 {
			return false
		}
		totalS += p.DurationS
	}
	if len(sc.Phases) == 0 || len(sc.Phases) > 16 {
		return false
	}
	if sc.BaseRatePerS < 0 || sc.BaseRatePerS > 100 {
		return false
	}
	if sc.Churn.MTBFS > 0 && totalS/sc.Churn.MTBFS > 1e4 {
		return false
	}
	if sc.Churn.RackMTBFS > 0 && totalS/sc.Churn.RackMTBFS > 1e4 {
		return false
	}
	nodes := 0
	for _, c := range sc.Classes {
		if c.Count < 0 || c.Count > 128 {
			return false
		}
		nodes += c.Count
	}
	return nodes <= 128
}
