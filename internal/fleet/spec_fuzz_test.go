package fleet

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"sprinting/internal/trace"
)

// fuzzSpec is the JSON form FuzzSpec decodes: Config's scalar knobs (the
// node governor stays at its default, and Workers is the fuzzer's) plus
// the optional load sources.
type fuzzSpec struct {
	Nodes, Requests, QueueCap, SprintWidth          int
	Policy                                          Policy
	ArrivalRatePerS, MeanWorkS, HedgeDelayS         float64
	Seed                                            int64
	ExactQuantiles                                  bool
	Coordination                                    Coordination
	RackSize, SprintPermits                         int
	RackPowerBudgetW, RackBufferJ, BreakerRecoveryS float64
	Reliability                                     Reliability
	Trace                                           TraceConfig
	Scenario                                        *Scenario
	Workload                                        *WorkloadSpec
	Replay                                          []TraceRequest
}

// fuzzMaxNodes and fuzzMaxRequests bound what one fuzz input may ask of
// the simulator; sizes past them are clamped, not rejected.
const (
	fuzzMaxNodes    = 64
	fuzzMaxRequests = 2000
)

// spec lowers the decoded form to a Spec, clamping every size: the node
// count, Config.Requests, the scenario and workload request caps (0 would
// select 4 Mi) and the replay rows. Negative sizes pass through, so the
// validation errors stay reachable.
func (f fuzzSpec) spec() Spec {
	clampCap := func(n int) int {
		if n == 0 || n > fuzzMaxRequests {
			return fuzzMaxRequests
		}
		return n
	}
	spec := Spec{
		Config: Config{
			Nodes: min(f.Nodes, fuzzMaxNodes), Policy: f.Policy, Requests: min(f.Requests, fuzzMaxRequests),
			ArrivalRatePerS: f.ArrivalRatePerS, MeanWorkS: f.MeanWorkS, Seed: f.Seed,
			QueueCap: f.QueueCap, HedgeDelayS: f.HedgeDelayS, SprintWidth: f.SprintWidth,
			ExactQuantiles: f.ExactQuantiles, Trace: f.Trace, Coordination: f.Coordination,
			RackSize: f.RackSize, RackPowerBudgetW: f.RackPowerBudgetW, RackBufferJ: f.RackBufferJ,
			SprintPermits: f.SprintPermits, BreakerRecoveryS: f.BreakerRecoveryS, Reliability: f.Reliability,
		},
		Scenario: f.Scenario,
		Workload: f.Workload,
		Replay:   f.Replay,
	}
	if sc := spec.Scenario; sc != nil {
		sc.MaxRequests = clampCap(sc.MaxRequests)
	}
	if w := spec.Workload; w != nil {
		w.MaxRequests = clampCap(w.MaxRequests)
	}
	if len(spec.Replay) > fuzzMaxRequests {
		spec.Replay = spec.Replay[:fuzzMaxRequests]
	}
	return spec
}

// FuzzSpec fuzzes whole specs through the one legality check. No input
// may panic. A spec Validate refuses, Run must refuse with the same error
// text; a spec Validate accepts, Run may fail only on a load-generation
// outcome; and an untraced run's Metrics must be identical at Workers 0
// and 3, and under the dispatch index and the linear-scan reference
// selector (refDispatch) — the index oracle over fuzzed node classes,
// churn, workloads and replays.
func FuzzSpec(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"Nodes":4,"Policy":2}`,
		`{"Nodes":8,"Policy":3,"Requests":300,"Coordination":2,"RackSize":4,"Reliability":{"TimeoutS":4,"MaxRetries":2,"RetryBudgetPerS":5,"GrayFrac":0.25,"FaultProb":0.05}}`,
		`{"Nodes":6,"Policy":0,"Requests":400,"Coordination":1,"RackSize":3,"ArrivalRatePerS":4}`,
		`{"Policy":2,"Coordination":3,"Scenario":{"base_rate_per_s":4,"phases":[{"name":"a","duration_s":20},{"name":"b","duration_s":10,"shape":"ramp","start_factor":2,"end_factor":0.5,"ambient_delta_c":5}],"classes":[{"name":"big","count":4,"sprint_width":32},{"name":"small","count":4}],"churn":{"mtbf_s":8,"mean_downtime_s":2,"rack_mtbf_s":15}}}`,
		`{"Policy":2,"Trace":{"Level":2,"TopK":2,"WindowS":5},"Scenario":{"phases":[{"duration_s":30}]}}`,
		`{"Nodes":4,"Policy":2,"Workload":{"classes":[{"name":"gold","admit_rate_per_s":2},{"name":"bronze"}],"tenants":[{"class":"gold","arrival":{"process":"gamma","rate_per_s":1,"shape":0.5},"work":{"mean_s":1},"width":{"cores":4}},{"class":"bronze","arrival":{"rate_per_s":2},"work":{"dist":"pareto","mean_s":2}}],"discipline":"priority","duration_s":60}}`,
		`{"Nodes":4,"Policy":3,"Scenario":{"phases":[{"duration_s":30}]},"Workload":{"classes":[{"name":"gold","hedge_delay_s":0.5}],"tenants":[{"arrival":{"rate_per_s":1},"work":{"mean_s":1}}]}}`,
		`{"Nodes":3,"Policy":1,"Replay":[{"arrival_s":0,"work_s":1},{"arrival_s":0.5,"work_s":2,"width":2,"tenant":"a","class":"gold"}]}`,
		`{"Nodes":3,"Replay":[{"arrival_s":0,"work_s":1,"class":"tin"}],"Workload":{"classes":[{"name":"gold"}]}}`,
		`{"Replay":[{"arrival_s":0,"work_s":1}],"Scenario":{"phases":[{"duration_s":1}]}}`,
		`{"Trace":{"Level":1},"Workload":{"classes":[{}],"tenants":[{"arrival":{"rate_per_s":1},"work":{"mean_s":1}}],"duration_s":10}}`,
		`{"Nodes":-3,"QueueCap":-1,"ArrivalRatePerS":-5}`,
		`{"Scenario":{"phases":[{"duration_s":1}],"classes":[{"count":0}]}}`,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var fs fuzzSpec
		if json.Unmarshal(data, &fs) != nil {
			return
		}
		spec := fs.spec()
		ctx := context.Background()
		if err := spec.Validate(); err != nil {
			if _, _, runErr := Run(ctx, spec); runErr == nil || runErr.Error() != err.Error() {
				t.Fatalf("Validate refused the spec with %q, but Run returned %v", err, runErr)
			}
			return
		}
		if !specRunnableUnderFuzz(spec) {
			return
		}
		m0, _, err := Run(ctx, spec)
		if err != nil {
			if !strings.Contains(err.Error(), "-request cap before the timeline ends") &&
				!strings.Contains(err.Error(), "generated no arrivals") {
				t.Fatalf("Validate accepted the spec, but Run failed: %v", err)
			}
			return
		}
		if spec.Config.Trace.Level != trace.LevelOff {
			return
		}
		spec.Config.Workers = 3
		m3, _, err := Run(ctx, spec)
		if err != nil {
			t.Fatalf("Workers 0 ran, Workers 3 failed: %v", err)
		}
		if !reflect.DeepEqual(m0, m3) {
			t.Fatalf("Metrics differ between Workers 0 and 3:\n%+v\n%+v", m0, m3)
		}
		refDispatch = true
		mRef, _, err := Run(ctx, spec)
		refDispatch = false
		if err != nil {
			t.Fatalf("the indexed run ran, the reference scan failed: %v", err)
		}
		if !reflect.DeepEqual(m0, mRef) {
			t.Fatalf("Metrics differ between the dispatch index and the reference scan:\nindexed:   %+v\nreference: %+v", m0, mRef)
		}
	})
}

// specRunnableUnderFuzz bounds the execution half of FuzzSpec to valid
// specs whose event counts stay small; the validation half covers every
// input. The request caps are clamped already, so what is left is the
// scenario's churn and fleet size, the workload's population, the replay
// rows' time scale and, for a traced run, everything that stretches the
// makespan: the recorder samples every window up to the last event.
func specRunnableUnderFuzz(spec Spec) bool {
	if sc := spec.Scenario; sc != nil && (!runnableUnderFuzz(*sc) || sc.Nodes() > fuzzMaxNodes) {
		return false
	}
	if w := spec.Workload; w != nil && (len(w.Tenants) > 8 || len(w.Classes) > 8) {
		return false
	}
	for _, r := range spec.Replay {
		if r.ArrivalS > 1e4 || r.WorkS > 1e3 {
			return false
		}
	}
	c, rl := spec.Config, spec.Config.Reliability
	if c.Trace.Level == trace.LevelOff {
		return true
	}
	if sc := spec.Scenario; sc != nil {
		totalS := 0.0
		for _, p := range sc.Phases {
			totalS += p.DurationS
		}
		if totalS > 2000 || sc.Churn.MeanDowntimeS > 100 || sc.Churn.RackMeanDowntimeS > 100 {
			return false
		}
	}
	return (c.ArrivalRatePerS == 0 || c.ArrivalRatePerS >= 1) && c.MeanWorkS <= 4 &&
		c.HedgeDelayS <= 10 && c.BreakerRecoveryS <= 10 &&
		(c.Trace.WindowS == 0 || c.Trace.WindowS >= 5) &&
		rl.TimeoutS <= 10 && rl.RetryBackoffS <= 1 && rl.MaxRetries <= 3 && rl.GraySlowdownX <= 8
}
