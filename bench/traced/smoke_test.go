package main

import (
	"context"
	"testing"

	"sprinting/bench/internal/spec"
)

// smallInputs shrinks every workload to about 100 nodes and 5k requests,
// and paper_fig9 to a hundredth of its inputs.
func smallInputs(t *testing.T) inputs {
	in, err := defaultInputs(1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []*spec.Fleet{&in.scaleSprint, &in.scaleRoundRobin, &in.flash, &in.record, &in.rep} {
		f.Nodes = 100
		if f.Requests > 0 {
			f.Requests = 5000
		}
	}
	for i := range in.flashScenario.Phases {
		in.flashScenario.Phases[i].DurationS /= 8
	}
	in.flashWorkload.DurationS /= 8
	for i := range in.flashWorkload.Tenants {
		in.flashWorkload.Tenants[i].Arrival.RatePerS /= 20
	}
	for i := range in.flashWorkload.Classes {
		in.flashWorkload.Classes[i].AdmitRatePerS /= 20
		in.flashWorkload.Classes[i].AdmitBurst /= 20
	}
	in.replayScenario.BaseRatePerS /= 10
	in.fig9Scale = 0.001
	return in
}

func TestTracedPassEmitsEveryLayer(t *testing.T) {
	tr := newTracer()
	results, err := tracePasses(context.Background(), tr, smallInputs(t), spec.Names)
	if err != nil {
		t.Fatal(err)
	}
	emitted := map[string]bool{}
	for _, name := range spec.Names {
		r := results[name]
		if r.RunS <= 0 {
			t.Errorf("%s: run span took %v s", name, r.RunS)
		}
		for m := range r.Metrics {
			emitted[m] = true
		}
	}
	for _, m := range spec.Layers {
		// The harness computes the gap from its own timing.
		if !emitted[m.Name] && m.Name != "bench.untraced_gap_s" {
			t.Errorf("no workload emitted %s", m.Name)
		}
	}
	for _, name := range []string{"scale_sprint", "flash_tenants", "trace_replay"} {
		if results[name].Metrics["fleet.engine_ns_per_dispatch"] <= 0 {
			t.Errorf("%s: fleet.engine_ns_per_dispatch = %v", name, results[name].Metrics["fleet.engine_ns_per_dispatch"])
		}
	}

	// Self times account for their parents: over every span they sum to
	// the roots' durations.
	var self, roots int64
	for _, s := range tr.Spans() {
		self += s.SelfNs
		if s.Parent < 0 {
			roots += s.EndNs - s.StartNs
		}
		if s.SelfNs < 0 {
			t.Errorf("span %s of %s has negative self time %d ns", s.Name, s.Workload, s.SelfNs)
		}
	}
	if self != roots {
		t.Errorf("self times sum to %d ns, roots to %d ns", self, roots)
	}
}
