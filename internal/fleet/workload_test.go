package fleet

import (
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"

	"sprinting/internal/trace"
)

// tenantWorkload is the contrast workload the multi-tenant tests share:
// an interactive class with a latency target and an admission budget
// over a best-effort batch class, three tenant populations covering all
// three arrival processes and three of the work distributions.
func tenantWorkload() (Config, WorkloadSpec) {
	cfg := DefaultConfig(SprintAware)
	cfg.Nodes = 8
	cfg.Seed = 21
	w := WorkloadSpec{
		Classes: []SLOClass{
			{Name: "interactive", Priority: 0, TargetP99S: 1.0, AdmitRatePerS: 6, AdmitBurst: 12, HedgeDelayS: 0.5},
			{Name: "batch", Priority: 1},
		},
		Tenants: []TenantSpec{
			{Name: "search", Class: "interactive",
				Arrival: ArrivalSpec{Process: "poisson", RatePerS: 2.4},
				Work:    WorkSpec{Dist: "exp", MeanS: 1.5}},
			{Name: "ads", Class: "interactive",
				Arrival: ArrivalSpec{Process: "gamma", RatePerS: 1.6, Shape: 0.5},
				Work:    WorkSpec{Dist: "lognormal", MeanS: 2, Sigma: 1.2},
				Width:   &WidthSpec{Dist: "choice", Choices: []int{1, 2}}},
			{Name: "analytics", Class: "batch",
				Arrival: ArrivalSpec{Process: "weibull", RatePerS: 0.8, Shape: 2},
				Work:    WorkSpec{Dist: "pareto", MeanS: 4, Alpha: 2.5}},
		},
		Discipline: "priority",
		DurationS:  300,
	}
	return cfg, w
}

func mustWorkload(t *testing.T, cfg Config, w WorkloadSpec) Metrics {
	t.Helper()
	m, _, err := Run(context.Background(), Spec{Config: cfg, Workload: &w})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestWorkloadDeterministicAcrossWorkers: a workload run is part of the
// engine's byte-identity contract — sharding the event loop must not
// move a single admission decision, dequeue choice, or per-class float.
func TestWorkloadDeterministicAcrossWorkers(t *testing.T) {
	for _, coord := range []Coordination{NoCoordination, TokenPermit} {
		cfg, w := tenantWorkload()
		cfg.Coordination = coord
		base := mustWorkload(t, cfg, w)
		if len(base.Classes) != 2 || len(base.Tenants) != 3 {
			t.Fatalf("%s: got %d classes, %d tenants", coord, len(base.Classes), len(base.Tenants))
		}
		for _, workers := range []int{1, 2, 4, 7} {
			cfg.Workers = workers
			m := mustWorkload(t, cfg, w)
			if !reflect.DeepEqual(base, m) {
				t.Errorf("%s: workers=%d diverged from the serial run:\n%+v\n%+v", coord, workers, base, m)
			}
		}
	}
}

// TestWorkloadGenerateMerge: generate counts the arrivals first and
// merges the tenant streams straight into an arena of that length. The
// arena must hold every tenant's whole stream, in (arrival, tenant)
// order, and the request cap must trip exactly when the streams hold at
// least that many arrivals.
func TestWorkloadGenerateMerge(t *testing.T) {
	_, sc := flashCrowdChurn()
	sc = sc.withDefaults()
	cfg, w := tenantWorkload()
	w = w.withDefaults()
	reqs, truncated := w.generate(cfg, sc, requestCap)
	if truncated || len(reqs) == 0 {
		t.Fatalf("generate: %d arrivals, truncated %v", len(reqs), truncated)
	}
	for i := 1; i < len(reqs); i++ {
		a, b := &reqs[i-1], &reqs[i]
		if a.arrivalS > b.arrivalS || (a.arrivalS == b.arrivalS && a.tenant >= b.tenant) {
			t.Fatalf("arena %d: (%v, tenant %d) after (%v, tenant %d)", i, b.arrivalS, b.tenant, a.arrivalS, a.tenant)
		}
	}
	for ti := range w.Tenants {
		slo := slices.IndexFunc(w.Classes, func(c SLOClass) bool { return c.Name == w.Tenants[ti].Class })
		st := w.stream(cfg, &sc, ti, int16(slo))
		var want []request
		for r, ok := st.next(); ok; r, ok = st.next() {
			want = append(want, r)
		}
		var got []request
		for _, r := range reqs {
			if int(r.tenant) == ti {
				got = append(got, r)
			}
		}
		if len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("tenant %d: arena holds %d of its %d arrivals or reorders them", ti, len(got), len(want))
		}
	}
	if _, truncated := w.generate(cfg, sc, len(reqs)); !truncated {
		t.Errorf("cap %d = arrival count: not truncated", len(reqs))
	}
	if again, truncated := w.generate(cfg, sc, len(reqs)+1); truncated || !reflect.DeepEqual(again, reqs) {
		t.Errorf("cap %d: truncated %v, or the arena differs from the first run", len(reqs)+1, truncated)
	}
}

// TestReplayReproducesRecordedRun closes the record→replay loop in
// process: record a plain run with the flight recorder, convert the
// recording to a replayable trace, and replay it under the same config —
// the metrics must be identical, drops and all.
func TestReplayReproducesRecordedRun(t *testing.T) {
	cfg := DefaultConfig(SprintAware)
	cfg.Nodes = 8
	cfg.Requests = 2000
	cfg.Seed = 9
	cfg.ArrivalRatePerS = 3 * float64(cfg.Nodes) / cfg.MeanWorkS
	cfg.QueueCap = 2 // force drops so replay must regenerate them too
	want := mustSimulate(t, cfg)
	if want.Dropped == 0 {
		t.Fatal("contrast config produced no drops; the test needs some to regenerate")
	}
	_, tr, err := Run(context.Background(), Spec{Config: traced(cfg)})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ReplayFromRecording(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != cfg.Requests {
		t.Fatalf("recording yielded %d replay rows, want %d", len(rows), cfg.Requests)
	}
	// The streaming converter reads the serialized recording to the same
	// rows.
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	streamed, err := ReplayFromJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, rows) {
		t.Fatal("ReplayFromJSONL and ReplayFromRecording disagree on the same recording")
	}
	got, _, err := Run(context.Background(), Spec{Config: cfg, Replay: rows})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("replay of the recording diverged from the recorded run:\n%+v\n%+v", want, got)
	}
}

// TestReplayShardWorkers: a labeled replay arms the workload layer, and
// the run must still be byte-identical at any Workers count.
func TestReplayShardWorkers(t *testing.T) {
	rows := make([]TraceRequest, 0, 600)
	at := 0.0
	for i := 0; i < 600; i++ {
		at += 0.1 + float64(i%7)*0.03
		rows = append(rows, TraceRequest{
			ArrivalS: at,
			WorkS:    0.5 + float64(i%5),
			Width:    1 + i%3,
			Tenant:   []string{"a", "b", "c"}[i%3],
			Class:    []string{"gold", "best-effort"}[i%2],
		})
	}
	cfg := DefaultConfig(SprintAware)
	cfg.Nodes = 8
	cfg.Seed = 5
	base, _, err := Run(context.Background(), Spec{Config: cfg, Replay: rows})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Classes) != 2 || len(base.Tenants) != 3 {
		t.Fatalf("labeled replay got %d classes, %d tenants", len(base.Classes), len(base.Tenants))
	}
	for _, workers := range []int{1, 2, 4, 7} {
		cfg.Workers = workers
		m, _, err := Run(context.Background(), Spec{Config: cfg, Replay: rows})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, m) {
			t.Errorf("workers=%d diverged from the serial replay:\n%+v\n%+v", workers, base, m)
		}
	}
}

// TestTraceRoundTrip: a written CSV trace parses back to bit-identical
// rows (the golden gate depends on it), and the JSONL encoding parses to
// the same rows as the CSV.
func TestTraceRoundTrip(t *testing.T) {
	rows := []TraceRequest{
		{ArrivalS: 0, WorkS: 0.30000000000000004},
		{ArrivalS: 1e-9, WorkS: 3.3332073180025743, Width: 1},
		{ArrivalS: 2.5, WorkS: 1e-6, Tenant: "search", Class: "gold"},
		{ArrivalS: 12345.6789, WorkS: 64, Width: 16383, Tenant: "a,b", Class: "c\"d"},
	}
	var buf bytes.Buffer
	if err := WriteRequestTraceCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	back, err := ParseRequestTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, back) {
		t.Errorf("CSV round trip changed the rows:\n%+v\n%+v", rows, back)
	}

	jsonl := `{"arrival_s":0,"work_s":0.30000000000000004}
{"arrival_s":1e-9,"work_s":3.3332073180025743,"width":1}
{"arrival_s":2.5,"work_s":1e-6,"tenant":"search","class":"gold"}
{"arrival_s":12345.6789,"work_s":64,"width":16383,"tenant":"a,b","class":"c\"d"}`
	fromJSON, err := ParseRequestTrace(strings.NewReader(jsonl))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, fromJSON) {
		t.Errorf("JSONL parse disagrees with the CSV rows:\n%+v\n%+v", rows, fromJSON)
	}
}

// TestTraceParseRejects pins the strict-decode surface: unknown columns,
// duplicate columns, missing required columns, unknown JSON fields, and
// unreplayable rows are loud errors.
func TestTraceParseRejects(t *testing.T) {
	cases := map[string]string{
		"unknown column":   "arrival_s,work_s,color\n0,1,red\n",
		"duplicate column": "arrival_s,work_s,work_s\n0,1,1\n",
		"missing work_s":   "arrival_s,width\n0,1\n",
		"unknown field":    `{"arrival_s":0,"work_s":1,"color":"red"}`,
		"bad float":        "arrival_s,work_s\nzero,1\n",
		"empty":            "",
	}
	for name, in := range cases {
		if _, err := ParseRequestTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: parse accepted %q", name, in)
		}
	}

	bad := [][]TraceRequest{
		{{ArrivalS: 1, WorkS: 1}, {ArrivalS: 0.5, WorkS: 1}}, // arrivals regress
		{{ArrivalS: 0, WorkS: 0}},                            // no work
		{{ArrivalS: -1, WorkS: 1}},                           // negative arrival
		{{ArrivalS: 0, WorkS: 1, Width: 1<<14 + 1}},          // width out of range
	}
	for i, rows := range bad {
		if err := (Spec{Replay: rows}).Validate(); err == nil {
			t.Errorf("case %d: validate accepted %+v", i, rows)
		}
	}
}

// TestTraceParseErrorTexts pins ParseRequestTrace's error texts, leading
// whitespace included: csv still counts the blank lines it skips, and a
// whitespace-only first line is still a header with one empty column.
func TestTraceParseErrorTexts(t *testing.T) {
	cases := map[string]string{
		"":                                    "fleet: empty request trace",
		" \n\t\r\n":                           "fleet: empty request trace",
		"arrival_s,work_s\n0,1\nzero,1\n":     `fleet: trace row 2: arrival_s: strconv.ParseFloat: parsing "zero": invalid syntax`,
		"\n\narrival_s,work_s\n0,1\n0,x\"y\n": `fleet: trace row 2: parse error on line 5, column 4: bare " in non-quoted-field`,
		"  \narrival_s,work_s\n0,1\n":         `fleet: trace header has unknown column "" (want a subset of [arrival_s work_s width tenant class])`,
		"\n{\"arrival_s\":0,\"work_s\":1}\n{\"arrival_s\":0,\"work_s\":1,\"color\":1}\n": `fleet: trace row 2: json: unknown field "color"`,
	}
	for in, want := range cases {
		if _, err := ParseRequestTrace(strings.NewReader(in)); err == nil || err.Error() != want {
			t.Errorf("%q: got %v, want %s", in, err, want)
		}
	}
}

// endlessRows is a CSV body that never ends: one valid row after another.
// A parser that reads its whole input before parsing trips its limit.
type endlessRows struct{ left int }

func (e *endlessRows) Read(p []byte) (int, error) {
	if e.left <= 0 {
		return 0, errors.New("read past the bad row")
	}
	n := 0
	for n+4 <= len(p) && e.left > 0 {
		n += copy(p[n:], "1,1\n")
		e.left -= 4
	}
	return n, nil
}

// TestTraceParseStreams: ParseRequestTrace parses as it reads, so a bad
// row early in a long input fails at that row without reading the rest.
func TestTraceParseStreams(t *testing.T) {
	for name, head := range map[string]string{
		"csv":   "arrival_s,work_s\n0,1\nzero,1\n",
		"jsonl": "{\"arrival_s\":0,\"work_s\":1}\n{\"arrival_s\":\"zero\"}\n",
	} {
		r := io.MultiReader(strings.NewReader(head), &endlessRows{left: 1 << 20})
		_, err := ParseRequestTrace(r)
		if err == nil || !strings.HasPrefix(err.Error(), "fleet: trace row 2: ") {
			t.Errorf("%s: got %v, want the row 2 error", name, err)
		}
	}
}

// TestClassSumsMatchFleetTotals is the per-class bookkeeping contract
// under the full stack — scenario phases, node churn, reliability faults
// and retries, every policy × coordination: class and tenant outcome
// counts partition the fleet totals exactly.
func TestClassSumsMatchFleetTotals(t *testing.T) {
	_, sc := flashCrowdChurn()
	_, w := tenantWorkload()
	for _, p := range Policies() {
		for _, coord := range Coordinations() {
			cfg := DefaultConfig(p)
			cfg.Nodes = 16
			cfg.Seed = 3
			cfg.Coordination = coord
			cfg.Reliability = Reliability{
				TimeoutS: 6, MaxRetries: 3, RetryBackoffS: 0.2,
				RetryBudgetPerS: 2, RetryBurst: 4,
				GrayFrac: 0.2, GraySlowdownX: 6, FaultProb: 0.02,
			}
			m, _, err := Run(context.Background(), Spec{Config: cfg, Scenario: &sc, Workload: &w})
			if err != nil {
				t.Fatalf("%s/%s: %v", p, coord, err)
			}
			var offered, completed, dropped, timedOut, shed, admShed, retries int
			for _, c := range m.Classes {
				offered += c.Offered
				completed += c.Completed
				dropped += c.Dropped
				timedOut += c.TimedOut
				shed += c.Shed
				admShed += c.AdmissionShed
				retries += c.Retries
				if got := c.Completed + c.Dropped + c.TimedOut + c.Shed; got+c.Offered != 2*c.Offered {
					t.Errorf("%s/%s: class %s outcomes %d != offered %d", p, coord, c.Name, got, c.Offered)
				}
			}
			if offered != m.Requests || completed != m.Completed || dropped != m.Dropped ||
				timedOut != m.TimedOut || shed != m.Shed || admShed != m.AdmissionShed || retries != m.Retries {
				t.Errorf("%s/%s: class sums (off %d, done %d, drop %d, t-out %d, shed %d, adm %d, retry %d) != fleet totals (%d, %d, %d, %d, %d, %d, %d)",
					p, coord, offered, completed, dropped, timedOut, shed, admShed, retries,
					m.Requests, m.Completed, m.Dropped, m.TimedOut, m.Shed, m.AdmissionShed, m.Retries)
			}
			tOffered, tCompleted := 0, 0
			for _, tn := range m.Tenants {
				tOffered += tn.Offered
				tCompleted += tn.Completed
			}
			if tOffered != m.Requests || tCompleted != m.Completed {
				t.Errorf("%s/%s: tenant sums (off %d, done %d) != fleet totals (%d, %d)",
					p, coord, tOffered, tCompleted, m.Requests, m.Completed)
			}
			if m.JainFairness < 0 || m.JainFairness > 1 {
				t.Errorf("%s/%s: Jain fairness %f outside [0,1]", p, coord, m.JainFairness)
			}
		}
	}
}

// TestAdmissionControlSheds: a class whose token bucket is far below its
// tenants' offered rate sheds at the door, the sheds are attributed to
// admission, and the books still balance.
func TestAdmissionControlSheds(t *testing.T) {
	cfg := DefaultConfig(SprintAware)
	cfg.Nodes = 8
	cfg.Seed = 2
	w := WorkloadSpec{
		Classes: []SLOClass{{Name: "capped", AdmitRatePerS: 0.5, AdmitBurst: 1}},
		Tenants: []TenantSpec{{Name: "greedy",
			Arrival: ArrivalSpec{RatePerS: 5},
			Work:    WorkSpec{MeanS: 0.5}}},
		DurationS: 200,
	}
	m := mustWorkload(t, cfg, w)
	c := m.Classes[0]
	if c.AdmissionShed == 0 {
		t.Fatal("10x over-budget class shed nothing at the door")
	}
	if c.AdmissionShed != m.AdmissionShed || m.AdmissionShed > m.Shed {
		t.Errorf("admission sheds inconsistent: class %d, fleet %d, total shed %d",
			c.AdmissionShed, m.AdmissionShed, m.Shed)
	}
	if c.Completed+c.Dropped+c.TimedOut+c.Shed != c.Offered {
		t.Errorf("outcomes %d+%d+%d+%d != offered %d", c.Completed, c.Dropped, c.TimedOut, c.Shed, c.Offered)
	}
	// Roughly rate*duration admissions should survive; the rest shed.
	if c.Completed > 150 {
		t.Errorf("bucket admitted %d completions, want ≈100", c.Completed)
	}
}

// contendedTwoClass overloads a small fleet with an urgent and a bulk
// population so the dequeue discipline decides who waits.
func contendedTwoClass(disc string) (Config, WorkloadSpec) {
	cfg := DefaultConfig(SprintAware)
	cfg.Nodes = 4
	cfg.Seed = 13
	w := WorkloadSpec{
		Classes: []SLOClass{
			{Name: "urgent", Priority: 0, TargetP99S: 2},
			{Name: "bulk", Priority: 5},
		},
		Tenants: []TenantSpec{
			{Name: "u", Class: "urgent", Arrival: ArrivalSpec{RatePerS: 2.4}, Work: WorkSpec{MeanS: 1}},
			{Name: "b", Class: "bulk", Arrival: ArrivalSpec{RatePerS: 1.6}, Work: WorkSpec{MeanS: 3}},
		},
		Discipline: disc,
		DurationS:  400,
	}
	return cfg, w
}

// TestPriorityDisciplineFavorsUrgentClass: under contention, priority
// dequeue must cut the urgent class's tail relative to FIFO — that
// contrast is the discipline's reason to exist (and the fleet_tenants
// experiment pins it end to end).
func TestPriorityDisciplineFavorsUrgentClass(t *testing.T) {
	cfgF, wF := contendedTwoClass("fifo")
	fifo := mustWorkload(t, cfgF, wF)
	cfgP, wP := contendedTwoClass("priority")
	prio := mustWorkload(t, cfgP, wP)
	if fifo.Classes[0].P99S <= prio.Classes[0].P99S {
		t.Errorf("priority did not cut the urgent tail: fifo p99 %.3f, priority p99 %.3f",
			fifo.Classes[0].P99S, prio.Classes[0].P99S)
	}
	if prio.Classes[0].SLOAttainment < fifo.Classes[0].SLOAttainment {
		t.Errorf("priority lowered urgent SLO attainment: fifo %.3f, priority %.3f",
			fifo.Classes[0].SLOAttainment, prio.Classes[0].SLOAttainment)
	}
}

// TestSJFCutsMeanLatency: shortest-job-first should beat FIFO on mean
// latency under the same contended mix — the classic SJF property.
func TestSJFCutsMeanLatency(t *testing.T) {
	cfgF, wF := contendedTwoClass("fifo")
	fifo := mustWorkload(t, cfgF, wF)
	cfgS, wS := contendedTwoClass("sjf")
	sjf := mustWorkload(t, cfgS, wS)
	if sjf.MeanS >= fifo.MeanS {
		t.Errorf("sjf mean %.3f not below fifo mean %.3f", sjf.MeanS, fifo.MeanS)
	}
}

// TestCancelPathIsShared drives one node's dequeue by hand under a FIFO
// and a priority workload. Request 0 is in service; behind it wait a
// moot copy of request 1 (its request finished elsewhere), then requests
// 2 and 3. A recorder probe on the node waits for the four copies ahead
// of a hypothetical fifth. complete must retire request 0, cancel the
// moot copy and start request 2 the same way under both disciplines: the
// same copies in flight, one cancelled copy, request 3's backlog left
// (subtracted in the same order, so bit-equal), and the probe two
// departures nearer — the completion's and the cancellation's.
func TestCancelPathIsShared(t *testing.T) {
	for _, disc := range []int{wlFIFO, wlPriority} {
		cfg := DefaultConfig(LeastLoaded)
		cfg.Nodes, cfg.Requests = 1, 4
		cfg.Trace.Level = trace.LevelDecisions
		cfg = cfg.withDefaults()
		s := newSim(cfg, nil, newRecorder(cfg), &workloadRun{disc: disc, classes: []wlClass{{}}})
		s.reqs = make([]request, cfg.Requests)
		n := &s.nodes[0]
		for ri, workS := range []float64{1, 2, 4, 8} {
			s.reqs[ri] = request{workS: workS, doneS: -1, firstNode: -1}
			s.enqueue(n, reqCopy{req: int32(ri)})
		}
		s.reqs[1].doneS = 0
		s.rec.probes = append(s.rec.probes, cfProbe{pending: int32(n.outstanding()), workS: 1})
		s.rec.watch[n.id] = append(s.rec.watch[n.id], 0)
		s.nowS = n.busyUntilS
		s.complete(n)

		var copies []int16
		for _, r := range s.reqs {
			copies = append(copies, r.copies)
		}
		if want := []int16{0, 0, 1, 1}; !slices.Equal(copies, want) {
			t.Errorf("discipline %d: copies %v, want %v", disc, copies, want)
		}
		if s.m.CancelledCopies != 1 {
			t.Errorf("discipline %d: CancelledCopies %d, want 1", disc, s.m.CancelledCopies)
		}
		if want := 8 / s.cl(n).width; n.queuedNaiveS != want {
			t.Errorf("discipline %d: backlog %v s, want request 3's %v s", disc, n.queuedNaiveS, want)
		}
		if got := s.rec.probes[0].pending; got != 2 {
			t.Errorf("discipline %d: the probe waits on %d departures, want 2", disc, got)
		}
		if n.cur.req != 2 {
			t.Errorf("discipline %d: serving request %d, want 2", disc, n.cur.req)
		}
	}
}

// TestRequestWidthStretchesService: replaying the same arrivals with
// every request capped at width 1 must stretch service (a narrow request
// can't use the node's full sprint width) relative to the uncapped
// replay.
func TestRequestWidthStretchesService(t *testing.T) {
	rows := make([]TraceRequest, 0, 400)
	for i := 0; i < 400; i++ {
		rows = append(rows, TraceRequest{ArrivalS: float64(i) * 0.5, WorkS: 2})
	}
	cfg := DefaultConfig(SprintAware)
	cfg.Nodes = 8
	cfg.Seed = 4
	wide, _, err := Run(context.Background(), Spec{Config: cfg, Replay: rows})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		rows[i].Width = 1
	}
	narrow, _, err := Run(context.Background(), Spec{Config: cfg, Replay: rows})
	if err != nil {
		t.Fatal(err)
	}
	if narrow.MeanS <= wide.MeanS {
		t.Errorf("width-1 replay mean %.3f not above full-width mean %.3f",
			narrow.MeanS, wide.MeanS)
	}
}

// TestReplayWithSpecClasses: an explicit spec attaches admission and
// priorities to a labeled trace; rows naming an undeclared class are a
// loud error, and a spec with tenants is rejected (the trace owns the
// population).
func TestReplayWithSpecClasses(t *testing.T) {
	rows := []TraceRequest{
		{ArrivalS: 0, WorkS: 1, Class: "gold"},
		{ArrivalS: 1, WorkS: 1, Class: "bronze"},
	}
	cfg := DefaultConfig(SprintAware)
	cfg.Nodes = 4
	spec := &WorkloadSpec{Classes: []SLOClass{
		{Name: "gold", Priority: 0, TargetP99S: 1},
		{Name: "bronze", Priority: 2},
	}}
	m, _, err := Run(context.Background(), Spec{Config: cfg, Replay: rows, Workload: spec})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Classes) != 2 || m.Classes[0].Name != "gold" || m.Classes[1].Name != "bronze" {
		t.Fatalf("spec classes not honored: %+v", m.Classes)
	}

	rows[1].Class = "platinum"
	if _, _, err := Run(context.Background(), Spec{Config: cfg, Replay: rows, Workload: spec}); err == nil {
		t.Error("row naming an undeclared class was accepted")
	}

	withTenants := &WorkloadSpec{
		Classes: []SLOClass{{Name: "gold"}},
		Tenants: []TenantSpec{{Arrival: ArrivalSpec{RatePerS: 1}, Work: WorkSpec{MeanS: 1}}},
	}
	rows[1].Class = "gold"
	if _, _, err := Run(context.Background(), Spec{Config: cfg, Replay: rows, Workload: withTenants}); err == nil {
		t.Error("replay spec with tenants was accepted")
	}
}

// TestWorkloadValidate pins the spec's loud-rejection surface.
func TestWorkloadValidate(t *testing.T) {
	valid, validW := tenantWorkload()
	if _, _, err := Run(context.Background(), Spec{Config: valid, Workload: &validW}); err != nil {
		t.Fatalf("contrast workload rejected: %v", err)
	}
	mut := func(f func(*WorkloadSpec)) WorkloadSpec {
		_, w := tenantWorkload()
		f(&w)
		return w
	}
	bad := map[string]WorkloadSpec{
		"no tenants":          mut(func(w *WorkloadSpec) { w.Tenants = nil }),
		"no duration":         mut(func(w *WorkloadSpec) { w.DurationS = 0 }),
		"unknown class":       mut(func(w *WorkloadSpec) { w.Tenants[0].Class = "nope" }),
		"unknown discipline":  mut(func(w *WorkloadSpec) { w.Discipline = "lifo" }),
		"unknown process":     mut(func(w *WorkloadSpec) { w.Tenants[0].Arrival.Process = "bursty" }),
		"shape on poisson":    mut(func(w *WorkloadSpec) { w.Tenants[0].Arrival.Shape = 2 }),
		"zero rate":           mut(func(w *WorkloadSpec) { w.Tenants[0].Arrival.RatePerS = 0 }),
		"unknown work dist":   mut(func(w *WorkloadSpec) { w.Tenants[0].Work.Dist = "zipf" }),
		"zero mean work":      mut(func(w *WorkloadSpec) { w.Tenants[0].Work.MeanS = 0 }),
		"sigma on exp":        mut(func(w *WorkloadSpec) { w.Tenants[0].Work.Sigma = 1 }),
		"alpha on exp":        mut(func(w *WorkloadSpec) { w.Tenants[0].Work.Alpha = 2 }),
		"duplicate class":     mut(func(w *WorkloadSpec) { w.Classes[1].Name = w.Classes[0].Name }),
		"empty width choices": mut(func(w *WorkloadSpec) { w.Tenants[1].Width = &WidthSpec{Dist: "choice"} }),
		"width out of range":  mut(func(w *WorkloadSpec) { w.Tenants[1].Width = &WidthSpec{Cores: 1<<14 + 1} }),
		"negative width min":  mut(func(w *WorkloadSpec) { w.Tenants[1].Width = &WidthSpec{Dist: "uniform", Min: -1, Max: 2} }),
	}
	for name, w := range bad {
		if _, _, err := Run(context.Background(), Spec{Config: valid, Workload: &w}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// replayShapedRecording records the trace_replay benchmark workload's
// flash crowd — sprint-aware token-permit dispatch at full trace level,
// a baseline, surge and decaying recovery with node churn — at a quarter
// of its fleet and arrival rate, streamed to JSONL as fleetsim -trace
// writes it: about 9 MB holding some 8k arrivals.
func replayShapedRecording(tb testing.TB) []byte {
	tb.Helper()
	cfg := DefaultConfig(SprintAware)
	cfg.Nodes = 250
	cfg.Seed = 1
	cfg.Coordination = TokenPermit
	sc := Scenario{
		BaseRatePerS: 112.5,
		Phases: []Phase{
			{Name: "baseline", DurationS: 30, StartFactor: 0.7},
			{Name: "surge", DurationS: 20, StartFactor: 1.4, AmbientDeltaC: 10},
			{Name: "recovery", DurationS: 30, Shape: ShapeDecay, StartFactor: 1.4, EndFactor: 0.5},
		},
		Churn: Churn{MTBFS: 8, MeanDowntimeS: 5},
	}
	var buf bytes.Buffer
	cfg.Trace = TraceConfig{Level: trace.LevelFull, Writer: &buf}
	if _, _, err := Run(context.Background(), Spec{Config: cfg, Scenario: &sc}); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkReplayFromJSONL is the convert step's per-layer benchmark:
// fleetsim -convert-trace's decoding of a recording the fleet recorder
// wrote, whose repeated instants and fixed line layout the reader's
// shortcuts are built for (genTrace's random floats in internal/trace's
// BenchmarkTraceReadJSONL under-represent both); bytes/op is the
// recording's size.
func BenchmarkReplayFromJSONL(b *testing.B) {
	data := replayShapedRecording(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReplayFromJSONL(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
