package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

// FuzzWorkloadSpecJSON fuzzes the declarative workload surface the same
// way FuzzScenarioJSON fuzzes scenarios: any byte string that strictly
// decodes (unknown fields rejected, as cmd/fleetsim decodes) must
// re-marshal and strictly re-decode to the same canonical form, and when
// its resource demands are bounded, actually running it must fail loudly
// through Validate or succeed — never panic.
func FuzzWorkloadSpecJSON(f *testing.F) {
	_, w := tenantWorkload()
	if seed, err := json.Marshal(w); err == nil {
		f.Add(seed)
	}
	f.Add([]byte(`{"classes":[{"name":"gold","priority":0,"target_p99_s":1,"admit_rate_per_s":5,"admit_burst":10,"hedge_delay_s":0.5}],"tenants":[{"name":"t","class":"gold","arrival":{"process":"gamma","rate_per_s":2,"shape":0.5},"work":{"dist":"pareto","mean_s":3,"alpha":2.5},"width":{"dist":"uniform","min":1,"max":4}}],"discipline":"sjf","duration_s":60}`))
	f.Add([]byte(`{"tenants":[{"arrival":{"rate_per_s":1},"work":{"mean_s":1}}],"duration_s":30}`))
	f.Add([]byte(`{"classes":[{"name":"a"},{"name":"a"}],"duration_s":1}`))
	f.Add([]byte(`{"classes":null,"tenants":[{"arrival":{"rate_per_s":1e308},"work":{"mean_s":-1}}]}`))
	f.Add([]byte(`{"discipline":"lifo","max_requests":-3,"duration_s":1e308}`))
	f.Add([]byte(`{"unknown_knob":true}`))
	f.Add([]byte(`[]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var w WorkloadSpec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&w) != nil {
			return
		}
		out, err := json.Marshal(w)
		if err != nil {
			t.Fatalf("decoded workload failed to re-marshal: %v", err)
		}
		var rt WorkloadSpec
		dec = json.NewDecoder(bytes.NewReader(out))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rt); err != nil {
			t.Fatalf("re-marshaled workload failed strict re-decode: %v\njson: %s", err, out)
		}
		out2, err := json.Marshal(rt)
		if err != nil {
			t.Fatalf("round-tripped workload failed to re-marshal: %v", err)
		}
		if !bytes.Equal(out2, out) {
			t.Fatalf("round-trip changed the workload's canonical form:\nbefore: %s\nafter:  %s", out, out2)
		}

		if !workloadRunnableUnderFuzz(w) {
			return
		}
		w.MaxRequests = 2000 // bound the arena; hitting the cap is a loud error, not a crash
		for _, workers := range []int{0, 3} {
			cfg := DefaultConfig(SprintAware)
			cfg.Nodes = 8
			cfg.Coordination = TokenPermit
			cfg.Workers = workers
			_, _, _ = Run(context.Background(), Spec{Config: cfg, Workload: &w}) // errors fine; panics are findings
		}
	})
}

// workloadRunnableUnderFuzz bounds the execution half of the fuzz target
// to specs whose event counts are finite and small; Validate rejects
// hostile field values loudly, but total offered rate × duration scales
// the arena with otherwise-valid values. The decode round-trip above
// still covers every input.
func workloadRunnableUnderFuzz(w WorkloadSpec) bool {
	if !(w.DurationS > 0) || w.DurationS > 500 {
		return false
	}
	if len(w.Tenants) == 0 || len(w.Tenants) > 8 || len(w.Classes) > 8 {
		return false
	}
	totalRate := 0.0
	for _, tn := range w.Tenants {
		if !(tn.Arrival.RatePerS > 0) || tn.Arrival.RatePerS > 100 {
			return false
		}
		totalRate += tn.Arrival.RatePerS
	}
	return totalRate*w.DurationS <= 1e4
}

// FuzzTraceReplay fuzzes the replay decoder: any byte string ParseRequestTrace
// accepts must survive a CSV write → parse round trip bit-identically
// (the record→replay golden gate's contract), and when the rows are
// bounded and valid, replaying them must never panic at any Workers
// count.
func FuzzTraceReplay(f *testing.F) {
	f.Add([]byte("arrival_s,work_s,width,tenant,class\n0,3.3332073180025743,0,,\n0.5061392233756645,5.327541808715896,2,search,gold\n"))
	f.Add([]byte("arrival_s,work_s\n0,1\n0.5,2\n1.5,0.25\n"))
	f.Add([]byte("work_s,arrival_s\n1,0\n"))
	f.Add([]byte(`{"arrival_s":0,"work_s":1,"tenant":"a","class":"gold"}
{"arrival_s":0.25,"work_s":2,"width":3}`))
	f.Add([]byte(`{"arrival_s":1e308,"work_s":-1}`))
	f.Add([]byte("arrival_s,work_s\nnan,1\n"))
	f.Add([]byte(""))

	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := ParseRequestTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteRequestTraceCSV(&buf, rows); err != nil {
			t.Fatalf("parsed rows failed to re-encode: %v", err)
		}
		back, err := ParseRequestTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("written trace failed to re-parse: %v\ncsv: %s", err, buf.Bytes())
		}
		if len(back) != len(rows) {
			t.Fatalf("round trip changed row count: %d -> %d", len(rows), len(back))
		}
		for i := range rows {
			if rows[i] != back[i] {
				t.Fatalf("row %d changed across the round trip:\n%+v\n%+v", i, rows[i], back[i])
			}
		}

		if ValidateRequestTrace(rows) != nil || len(rows) > 2000 {
			return
		}
		if last := rows[len(rows)-1].ArrivalS; last > 1e4 {
			return
		}
		for _, r := range rows {
			if r.WorkS > 1e3 {
				return
			}
		}
		for _, workers := range []int{0, 3} {
			cfg := DefaultConfig(SprintAware)
			cfg.Nodes = 8
			cfg.Workers = workers
			_, _, _ = Run(context.Background(), Spec{Config: cfg, Replay: rows}) // errors fine; panics are findings
		}
	})
}
