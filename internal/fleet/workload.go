// Multi-tenant workloads: trace replay and declarative client
// populations over the fleet simulator.
//
// Two load sources feed the event loop's request arena in place of the
// single-population synthesized cursor; Run lowers both (see Spec):
//
//   - Trace replay (Spec.Replay): a strict-decode JSON-lines or CSV
//     trace of (arrival_s, work_s, width, tenant, class) rows drives the
//     run verbatim — deterministic what-if replays of recorded demand.
//     ReplayFromRecording converts a flight-recorder Trace back into a
//     replayable trace, and ReplayFromJSONL does the same line by line
//     from its serialized recording, closing the record→replay loop:
//     replaying a recording of a plain run reproduces that run's
//     arrivals exactly.
//
//   - Workload specs (Spec.Workload, alone or riding Spec.Scenario): N
//     declared tenant populations, each with its own seeded arrival
//     process (Poisson/Gamma/Weibull), work distribution (exp, fixed,
//     lognormal, pareto), request-width distribution, and SLO class.
//     Tenant streams are independently seeded, merged under a total
//     (time, tenant) order, and — under a scenario — modulated by its
//     phase factors.
//
// The SLO classes bring per-class admission control (a token bucket per
// class, reusing the reliability layer's bucket), per-class hedge-delay
// overrides, and two optional dequeue disciplines at dispatch: priority
// (lower class priority value served first) and SJF (shortest work
// first), both falling back to FIFO order on ties.
//
// Per-class and per-tenant outcomes land in Metrics.Classes /
// Metrics.Tenants plus a Jain fairness index over per-tenant
// completions. The integration contract matches the recorder and
// reliability layers exactly: sim.wl is nil unless a workload is armed,
// every hot-path hook is a nil check, and a non-nil wl forces the
// single loop (parallelOK) because admission buckets and dequeue
// disciplines are fleet-global state consumed in event order — so runs
// stay byte-identical at any Workers count. Per-class floats follow the
// canonical-order contract: latency means reduce over the request arena
// in arena order, never in completion order.
package fleet

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"sprinting/internal/trace"
)

// workloadSeed decorrelates the tenant arrival streams from the
// scenario, churn, reliability, and rack-admission streams; each tenant
// additionally mixes its index in so populations are independent.
const workloadSeed = 0x3c6ef372fe94f82a

// Arena-field bounds: request.slo and request.tenant are int16 arena
// fields and request.width is uint16, so the spec and trace surfaces
// validate against these.
const (
	maxSLOClasses = 128
	maxTenants    = 4096
	maxReqWidth   = 1 << 14
)

// TraceRequest is one row of a replayable request trace. ArrivalS and
// WorkS are required; Width caps the request's service parallelism below
// the node's sprint width (0 = full class width), and Tenant/Class label
// the row for per-tenant/per-class accounting (empty = a single implicit
// population).
type TraceRequest struct {
	ArrivalS float64 `json:"arrival_s"`
	WorkS    float64 `json:"work_s"`
	Width    int     `json:"width,omitempty"`
	Tenant   string  `json:"tenant,omitempty"`
	Class    string  `json:"class,omitempty"`
}

// traceColumns is the full CSV column set, in the order WriteRequestTraceCSV
// emits and ParseRequestTrace accepts (any subset containing the two
// required columns, in any order).
var traceColumns = []string{"arrival_s", "work_s", "width", "tenant", "class"}

// ParseRequestTrace reads a request trace in either supported encoding,
// sniffed from the first non-space byte: '{' selects JSON lines (one
// TraceRequest object per line, unknown fields rejected), anything else
// CSV with a strict header (required arrival_s and work_s; optional
// width, tenant, class; unknown or duplicate columns are errors). Rows
// are returned in file order; Spec.Validate checks them for replay.
func ParseRequestTrace(r io.Reader) ([]TraceRequest, error) {
	br := bufio.NewReader(r)
	// The skipped whitespace goes back in front of a CSV body, so csv's
	// line numbers and blank-line rules see the file as written.
	var lead []byte
	for {
		c, err := br.ReadByte()
		if err == io.EOF {
			return nil, fmt.Errorf("fleet: empty request trace")
		}
		if err != nil {
			return nil, fmt.Errorf("fleet: reading trace: %w", err)
		}
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			_ = br.UnreadByte() // cannot fail straight after ReadByte
			if c == '{' {
				return parseTraceJSONL(br)
			}
			return parseTraceCSV(io.MultiReader(bytes.NewReader(lead), br))
		}
		lead = append(lead, c)
	}
}

func parseTraceJSONL(r io.Reader) ([]TraceRequest, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var rows []TraceRequest
	for {
		var tr TraceRequest
		if err := dec.Decode(&tr); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("fleet: trace row %d: %w", len(rows)+1, err)
		}
		if len(rows) >= requestCap {
			return nil, fmt.Errorf("fleet: request trace exceeds the %d-row cap", requestCap)
		}
		rows = append(rows, tr)
	}
	return rows, nil
}

func parseTraceCSV(r io.Reader) ([]TraceRequest, error) {
	rd := csv.NewReader(r)
	rd.TrimLeadingSpace = true
	header, err := rd.Read()
	if err != nil {
		return nil, fmt.Errorf("fleet: reading trace header: %w", err)
	}
	col := make([]int, len(traceColumns))
	for i := range col {
		col[i] = -1
	}
	for pos, name := range header {
		found := false
		for i, want := range traceColumns {
			if name != want {
				continue
			}
			if col[i] >= 0 {
				return nil, fmt.Errorf("fleet: trace header repeats column %q", name)
			}
			col[i] = pos
			found = true
		}
		if !found {
			return nil, fmt.Errorf("fleet: trace header has unknown column %q (want a subset of %v)", name, traceColumns)
		}
	}
	if col[0] < 0 || col[1] < 0 {
		return nil, fmt.Errorf("fleet: trace header must name arrival_s and work_s (got %v)", header)
	}
	// Non-nil even for a header-only file: a non-nil Spec.Replay selects
	// replay, which then rejects the empty trace.
	rows := []TraceRequest{}
	for {
		rec, err := rd.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("fleet: trace row %d: %w", len(rows)+1, err)
		}
		if len(rows) >= requestCap {
			return nil, fmt.Errorf("fleet: request trace exceeds the %d-row cap", requestCap)
		}
		var tr TraceRequest
		if tr.ArrivalS, err = strconv.ParseFloat(rec[col[0]], 64); err != nil {
			return nil, fmt.Errorf("fleet: trace row %d: arrival_s: %w", len(rows)+1, err)
		}
		if tr.WorkS, err = strconv.ParseFloat(rec[col[1]], 64); err != nil {
			return nil, fmt.Errorf("fleet: trace row %d: work_s: %w", len(rows)+1, err)
		}
		// ParseFloat accepts "nan" and "inf" spellings; a trace holding
		// them could never validate, and NaN breaks the write→parse
		// bit-identity the golden gate depends on — reject at the door.
		if math.IsNaN(tr.ArrivalS) || math.IsInf(tr.ArrivalS, 0) || math.IsNaN(tr.WorkS) || math.IsInf(tr.WorkS, 0) {
			return nil, fmt.Errorf("fleet: trace row %d: arrival_s and work_s must be finite", len(rows)+1)
		}
		if col[2] >= 0 && rec[col[2]] != "" {
			if tr.Width, err = strconv.Atoi(rec[col[2]]); err != nil {
				return nil, fmt.Errorf("fleet: trace row %d: width: %w", len(rows)+1, err)
			}
		}
		if col[3] >= 0 {
			tr.Tenant = rec[col[3]]
		}
		if col[4] >= 0 {
			tr.Class = rec[col[4]]
		}
		rows = append(rows, tr)
	}
	return rows, nil
}

// WriteRequestTraceCSV serializes the rows as CSV with the full column
// header. Floats use the shortest exact representation, so a written
// trace parses back to bit-identical rows — the record→replay golden
// gate depends on that round trip.
func WriteRequestTraceCSV(w io.Writer, rows []TraceRequest) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(traceColumns); err != nil {
		return err
	}
	for i := range rows {
		r := &rows[i]
		rec := []string{
			strconv.FormatFloat(r.ArrivalS, 'g', -1, 64),
			strconv.FormatFloat(r.WorkS, 'g', -1, 64),
			strconv.Itoa(r.Width),
			r.Tenant,
			r.Class,
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// maxReplayS bounds a replay row's arrival_s and work_s, and the mean
// work of every other load source (Config.MeanWorkS, WorkSpec.MeanS):
// about 32 years of simulated time, far past any recorded demand, and
// far enough below the float64 limit that no completion time, summed
// over every request the request cap admits, can overflow.
const maxReplayS = 1e9

// validateRequestTrace reports the first defect that would make the rows
// unreplayable: arrivals must be finite, non-negative, and
// non-decreasing; work positive and finite; both at most maxReplayS;
// width within the arena field's range.
func validateRequestTrace(rows []TraceRequest) error {
	if len(rows) == 0 {
		return fmt.Errorf("fleet: request trace has no rows")
	}
	if len(rows) > requestCap {
		return fmt.Errorf("fleet: request trace exceeds the %d-row cap", requestCap)
	}
	prev := 0.0
	for i := range rows {
		r := &rows[i]
		switch {
		case math.IsNaN(r.ArrivalS) || math.IsInf(r.ArrivalS, 0) || r.ArrivalS < 0:
			return fmt.Errorf("fleet: trace row %d: arrival_s must be finite and non-negative", i+1)
		case r.ArrivalS < prev:
			return fmt.Errorf("fleet: trace row %d: arrivals must be non-decreasing (%.9g after %.9g)", i+1, r.ArrivalS, prev)
		case !(r.WorkS > 0) || math.IsInf(r.WorkS, 0):
			return fmt.Errorf("fleet: trace row %d: work_s must be positive and finite", i+1)
		case r.ArrivalS > maxReplayS || r.WorkS > maxReplayS:
			return fmt.Errorf("fleet: trace row %d: arrival_s and work_s must be at most %g s (got %g and %g)", i+1, float64(maxReplayS), r.ArrivalS, r.WorkS)
		case r.Width < 0 || r.Width > maxReqWidth:
			return fmt.Errorf("fleet: trace row %d: width must be in [0, %d]", i+1, maxReqWidth)
		}
		prev = r.ArrivalS
	}
	return nil
}

// ReplayFromRecording converts a flight-recorder Trace back into a
// replayable request trace: every fresh-arrival dispatch decision
// (enqueued or dropped — replay regenerates the drops) contributes one
// row at its recorded instant with its recorded work. Hedges,
// redispatches, and retries are derived events the replay re-makes
// itself, so they are excluded. Replaying the result under the
// recording's Config reproduces the recorded run exactly.
func ReplayFromRecording(tr *trace.Trace) ([]TraceRequest, error) {
	var rows []TraceRequest
	for i := range tr.Records {
		rows = appendReplayRow(rows, &tr.Records[i])
	}
	return replayRows(rows)
}

// ReplayFromJSONL is ReplayFromRecording on a recording serialized by
// Trace.WriteJSONL, read line by line: it keeps only the rows, never the
// recording, so a conversion's memory is its output's. Decoding and its
// errors are trace.ReadJSONL's.
func ReplayFromJSONL(r io.Reader) ([]TraceRequest, error) {
	var rows []TraceRequest
	if _, err := trace.ScanJSONL(r, func(rec *trace.Record) error {
		rows = appendReplayRow(rows, rec)
		return nil
	}); err != nil {
		return nil, err
	}
	return replayRows(rows)
}

// appendReplayRow is the one per-record rule of both converters: a
// fresh-arrival dispatch decision appends its row, anything else nothing.
func appendReplayRow(rows []TraceRequest, rec *trace.Record) []TraceRequest {
	if rec.Decision == nil || rec.Decision.Kind != "dispatch" {
		return rows
	}
	return append(rows, TraceRequest{ArrivalS: rec.AtS, WorkS: rec.Decision.WorkS})
}

// replayRows rejects a conversion that found no arrivals.
func replayRows(rows []TraceRequest) ([]TraceRequest, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("fleet: recording holds no dispatch decisions (was it recorded at level off?)")
	}
	return rows, nil
}

// SLOClass declares one service class of a workload: its scheduling
// priority, latency objective, admission budget, and hedge override.
type SLOClass struct {
	// Name labels the class; trace rows and tenants reference it.
	Name string `json:"name,omitempty"`
	// Priority orders the priority dequeue discipline: lower values are
	// served first (0 is the most urgent).
	Priority int `json:"priority,omitempty"`
	// TargetP99S is the class's latency objective in seconds; per-class
	// SLOAttainment reports the fraction of completions within it
	// (0 = no objective declared).
	TargetP99S float64 `json:"target_p99_s,omitempty"`
	// AdmitRatePerS is the class's token-bucket admission budget in
	// requests per second; an arrival finding the bucket empty is shed at
	// the door (Metrics.AdmissionShed). 0 admits everything.
	AdmitRatePerS float64 `json:"admit_rate_per_s,omitempty"`
	// AdmitBurst is the bucket capacity and initial charge; 0 selects
	// max(1, AdmitRatePerS).
	AdmitBurst float64 `json:"admit_burst,omitempty"`
	// HedgeDelayS overrides Config.HedgeDelayS for this class's requests
	// under the Hedged policy (0 = the fleet-wide delay) — interactive
	// classes can hedge sooner than batch ones.
	HedgeDelayS float64 `json:"hedge_delay_s,omitempty"`
}

// ArrivalSpec is one tenant's arrival process. All three processes are
// renewal processes with mean interarrival 1/RatePerS; Gamma and Weibull
// shape the variance around it (shape 1 degenerates to Poisson,
// shape < 1 is burstier, shape > 1 smoother).
type ArrivalSpec struct {
	// Process is poisson (default), gamma, or weibull.
	Process string `json:"process,omitempty"`
	// RatePerS is the tenant's mean arrival rate.
	RatePerS float64 `json:"rate_per_s"`
	// Shape is the gamma/weibull shape parameter (0 selects 1; must be
	// unset for poisson).
	Shape float64 `json:"shape,omitempty"`
}

// WorkSpec is one tenant's per-request work distribution.
type WorkSpec struct {
	// Dist is exp (default), fixed, lognormal, or pareto.
	Dist string `json:"dist,omitempty"`
	// MeanS is the mean single-core work per request in seconds; every
	// distribution is mean-matched to it, and draws are clamped to
	// [MeanS/64, MeanS*64].
	MeanS float64 `json:"mean_s"`
	// Sigma is the lognormal log-space standard deviation (0 selects 1;
	// lognormal only).
	Sigma float64 `json:"sigma,omitempty"`
	// Alpha is the pareto tail exponent, > 1 so the mean exists (0
	// selects 2; pareto only).
	Alpha float64 `json:"alpha,omitempty"`
}

// WidthSpec is one tenant's request-width distribution; a request's
// width caps its service parallelism below the node's sprint width (a
// narrow request on a wide node serves at the narrow width and
// proportionally lower sprint power).
type WidthSpec struct {
	// Dist is fixed (default), uniform, or choice.
	Dist string `json:"dist,omitempty"`
	// Cores is the fixed width (fixed only).
	Cores int `json:"cores,omitempty"`
	// Min and Max bound the integer-uniform draw (uniform only).
	Min int `json:"min,omitempty"`
	Max int `json:"max,omitempty"`
	// Choices is the uniform-choice support (choice only).
	Choices []int `json:"choices,omitempty"`
}

// TenantSpec declares one client population.
type TenantSpec struct {
	// Name labels the tenant in Metrics.Tenants.
	Name string `json:"name,omitempty"`
	// Class names the tenant's SLO class (empty selects the first class).
	Class string `json:"class,omitempty"`
	// Arrival is the tenant's arrival process, drawn from its own seeded
	// stream so populations are independent.
	Arrival ArrivalSpec `json:"arrival"`
	// Work is the per-request work distribution.
	Work WorkSpec `json:"work"`
	// Width is the per-request width distribution (nil = full width).
	Width *WidthSpec `json:"width,omitempty"`
}

// WorkloadSpec declares a multi-tenant workload: the SLO classes, the
// tenant populations, and the dispatch dequeue discipline.
type WorkloadSpec struct {
	// Classes declares the SLO classes (1 to 128, required).
	Classes []SLOClass `json:"classes"`
	// Tenants declares the client populations (required unless the spec
	// rides a replay, where the trace supplies the population and this
	// must be empty).
	Tenants []TenantSpec `json:"tenants,omitempty"`
	// Discipline selects the dequeue order at a node: fifo (default),
	// priority (lowest class Priority first), or sjf (shortest work
	// first). Ties keep FIFO order.
	Discipline string `json:"discipline,omitempty"`
	// DurationS is the run length when no scenario is set (ignored under
	// a scenario, whose timeline governs).
	DurationS float64 `json:"duration_s,omitempty"`
	// MaxRequests caps the generated trace, overriding the scenario's cap
	// when positive (0 inherits it).
	MaxRequests int `json:"max_requests,omitempty"`
}

// Dequeue disciplines.
const (
	wlFIFO = iota
	wlPriority
	wlSJF
)

// withDefaults returns a deep-enough copy with every optional field
// resolved; the original is never mutated.
func (w WorkloadSpec) withDefaults() WorkloadSpec {
	classes := make([]SLOClass, len(w.Classes))
	copy(classes, w.Classes)
	for i := range classes {
		c := &classes[i]
		if c.Name == "" {
			c.Name = fmt.Sprintf("class%d", i)
		}
		if c.AdmitRatePerS > 0 && c.AdmitBurst == 0 {
			c.AdmitBurst = math.Max(1, c.AdmitRatePerS)
		}
	}
	w.Classes = classes
	tenants := make([]TenantSpec, len(w.Tenants))
	copy(tenants, w.Tenants)
	for i := range tenants {
		t := &tenants[i]
		if t.Name == "" {
			t.Name = fmt.Sprintf("tenant%d", i)
		}
		if t.Class == "" && len(classes) > 0 {
			t.Class = classes[0].Name
		}
		if t.Arrival.Process == "" {
			t.Arrival.Process = "poisson"
		}
		if t.Arrival.Shape == 0 && t.Arrival.Process != "poisson" {
			t.Arrival.Shape = 1
		}
		if t.Work.Dist == "" {
			t.Work.Dist = "exp"
		}
		if t.Work.Sigma == 0 && t.Work.Dist == "lognormal" {
			t.Work.Sigma = 1
		}
		if t.Work.Alpha == 0 && t.Work.Dist == "pareto" {
			t.Work.Alpha = 2
		}
		if t.Width != nil {
			width := *t.Width
			if width.Dist == "" {
				width.Dist = "fixed"
			}
			t.Width = &width
		}
	}
	w.Tenants = tenants
	if w.Discipline == "" {
		w.Discipline = "fifo"
	}
	return w
}

// discipline resolves the (already validated) discipline name.
func (w WorkloadSpec) discipline() int {
	switch w.Discipline {
	case "priority":
		return wlPriority
	case "sjf":
		return wlSJF
	default:
		return wlFIFO
	}
}

// validate reports spec errors; call on a defaulted spec.
func (w WorkloadSpec) validate() error {
	if len(w.Classes) == 0 {
		return fmt.Errorf("fleet: workload needs at least one SLO class")
	}
	if len(w.Classes) > maxSLOClasses {
		return fmt.Errorf("fleet: workload has %d classes (max %d)", len(w.Classes), maxSLOClasses)
	}
	if len(w.Tenants) > maxTenants {
		return fmt.Errorf("fleet: workload has %d tenants (max %d)", len(w.Tenants), maxTenants)
	}
	seen := map[string]bool{}
	for _, c := range w.Classes {
		if seen[c.Name] {
			return fmt.Errorf("fleet: workload class %q declared twice", c.Name)
		}
		seen[c.Name] = true
		switch {
		case c.TargetP99S < 0 || math.IsInf(c.TargetP99S, 0) || math.IsNaN(c.TargetP99S):
			return fmt.Errorf("fleet: class %q: target p99 must be finite and non-negative", c.Name)
		case c.AdmitRatePerS < 0 || math.IsInf(c.AdmitRatePerS, 0) || math.IsNaN(c.AdmitRatePerS):
			return fmt.Errorf("fleet: class %q: admission rate must be finite and non-negative", c.Name)
		case c.AdmitBurst < 0 || math.IsInf(c.AdmitBurst, 0) || math.IsNaN(c.AdmitBurst):
			return fmt.Errorf("fleet: class %q: admission burst must be finite and non-negative", c.Name)
		case c.HedgeDelayS < 0 || math.IsInf(c.HedgeDelayS, 0) || math.IsNaN(c.HedgeDelayS):
			return fmt.Errorf("fleet: class %q: hedge delay must be finite and non-negative", c.Name)
		}
	}
	for _, t := range w.Tenants {
		if !seen[t.Class] {
			return fmt.Errorf("fleet: tenant %q: unknown class %q", t.Name, t.Class)
		}
		a := t.Arrival
		switch {
		case a.Process != "poisson" && a.Process != "gamma" && a.Process != "weibull":
			return fmt.Errorf("fleet: tenant %q: unknown arrival process %q (want poisson|gamma|weibull)", t.Name, a.Process)
		case !(a.RatePerS > 0) || a.RatePerS > 1e6 || math.IsNaN(a.RatePerS):
			return fmt.Errorf("fleet: tenant %q: arrival rate must be in (0, 1e6] req/s", t.Name)
		case a.Process == "poisson" && a.Shape != 0:
			return fmt.Errorf("fleet: tenant %q: shape applies only to gamma/weibull arrivals", t.Name)
		case a.Process != "poisson" && (!(a.Shape > 0) || a.Shape > 64 || math.IsNaN(a.Shape)):
			return fmt.Errorf("fleet: tenant %q: arrival shape must be in (0, 64]", t.Name)
		}
		wk := t.Work
		switch {
		case wk.Dist != "exp" && wk.Dist != "fixed" && wk.Dist != "lognormal" && wk.Dist != "pareto":
			return fmt.Errorf("fleet: tenant %q: unknown work distribution %q (want exp|fixed|lognormal|pareto)", t.Name, wk.Dist)
		case !(wk.MeanS > 0) || math.IsInf(wk.MeanS, 0) || math.IsNaN(wk.MeanS):
			return fmt.Errorf("fleet: tenant %q: mean work must be positive and finite", t.Name)
		case wk.MeanS > maxReplayS:
			return fmt.Errorf("fleet: tenant %q: mean work must be at most %g s, got %g", t.Name, float64(maxReplayS), wk.MeanS)
		case wk.Dist != "lognormal" && wk.Sigma != 0:
			return fmt.Errorf("fleet: tenant %q: sigma applies only to lognormal work", t.Name)
		case wk.Dist == "lognormal" && (!(wk.Sigma > 0) || wk.Sigma > 4 || math.IsNaN(wk.Sigma)):
			return fmt.Errorf("fleet: tenant %q: lognormal sigma must be in (0, 4]", t.Name)
		case wk.Dist != "pareto" && wk.Alpha != 0:
			return fmt.Errorf("fleet: tenant %q: alpha applies only to pareto work", t.Name)
		case wk.Dist == "pareto" && (!(wk.Alpha > 1) || wk.Alpha > 64 || math.IsNaN(wk.Alpha)):
			return fmt.Errorf("fleet: tenant %q: pareto alpha must be in (1, 64]", t.Name)
		}
		if err := t.Width.validate(t.Name); err != nil {
			return err
		}
	}
	switch {
	case w.Discipline != "fifo" && w.Discipline != "priority" && w.Discipline != "sjf":
		return fmt.Errorf("fleet: unknown dequeue discipline %q (want fifo|priority|sjf)", w.Discipline)
	case w.DurationS < 0 || w.DurationS > 1e7 || math.IsNaN(w.DurationS):
		return fmt.Errorf("fleet: workload duration must be in [0, 1e7] seconds")
	case w.MaxRequests < 0 || w.MaxRequests > requestCap:
		return fmt.Errorf("fleet: workload request cap must be in [0, %d]", requestCap)
	}
	return nil
}

// validate checks one tenant's width distribution; nil means full width.
func (ws *WidthSpec) validate(tenant string) error {
	if ws == nil {
		return nil
	}
	switch ws.Dist {
	case "fixed":
		switch {
		case ws.Cores < 1 || ws.Cores > maxReqWidth:
			return fmt.Errorf("fleet: tenant %q: fixed width must be in [1, %d]", tenant, maxReqWidth)
		case ws.Min != 0 || ws.Max != 0 || len(ws.Choices) != 0:
			return fmt.Errorf("fleet: tenant %q: min/max/choices apply only to uniform/choice widths", tenant)
		}
	case "uniform":
		switch {
		case ws.Min < 1 || ws.Max < ws.Min || ws.Max > maxReqWidth:
			return fmt.Errorf("fleet: tenant %q: uniform width needs 1 <= min <= max <= %d", tenant, maxReqWidth)
		case ws.Cores != 0 || len(ws.Choices) != 0:
			return fmt.Errorf("fleet: tenant %q: cores/choices apply only to fixed/choice widths", tenant)
		}
	case "choice":
		switch {
		case len(ws.Choices) < 1 || len(ws.Choices) > 32:
			return fmt.Errorf("fleet: tenant %q: choice width needs 1 to 32 choices", tenant)
		case ws.Cores != 0 || ws.Min != 0 || ws.Max != 0:
			return fmt.Errorf("fleet: tenant %q: cores/min/max apply only to fixed/uniform widths", tenant)
		}
		for _, c := range ws.Choices {
			if c < 1 || c > maxReqWidth {
				return fmt.Errorf("fleet: tenant %q: width choices must be in [1, %d]", tenant, maxReqWidth)
			}
		}
	default:
		return fmt.Errorf("fleet: tenant %q: unknown width distribution %q (want fixed|uniform|choice)", tenant, ws.Dist)
	}
	return nil
}

// gammaDraw samples Gamma(shape, 1) by Marsaglia–Tsang, with the
// standard boost for shape < 1; draws come from the tenant's dedicated
// stream, so rejection loops stay deterministic.
func gammaDraw(rng *rand.Rand, shape float64) float64 {
	if shape < 1 {
		u := 1 - rng.Float64() // (0, 1]: the boost exponentiates, so 0 is excluded
		return gammaDraw(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := 1 - rng.Float64()
		if math.Log(u) < 0.5*x*x+d-d*v+d*math.Log(v) {
			return d * v
		}
	}
}

// gap samples one interarrival gap with the given mean. Every process
// is mean-matched: gamma uses scale mean/shape, weibull the scale
// mean/Γ(1+1/shape).
func (st *wlStream) gap(mean float64) float64 {
	a := &st.tn.Arrival
	switch a.Process {
	case "gamma":
		return gammaDraw(st.rng, a.Shape) * mean / a.Shape
	case "weibull":
		lam := mean / st.weibullG
		return lam * math.Pow(st.rng.ExpFloat64(), st.weibullK)
	default: // poisson
		return st.rng.ExpFloat64() * mean
	}
}

// work samples one request's work; the caller clamps.
func (st *wlStream) work() float64 {
	wk := &st.tn.Work
	switch wk.Dist {
	case "fixed":
		return wk.MeanS
	case "lognormal":
		return math.Exp(st.logMu + wk.Sigma*st.rng.NormFloat64())
	case "pareto":
		u := 1 - st.rng.Float64()
		return st.paretoXm * math.Pow(u, st.paretoK)
	default: // exp
		return st.rng.ExpFloat64() * wk.MeanS
	}
}

// drawWidth samples one request's width (0 = full class width).
func drawWidth(rng *rand.Rand, ws *WidthSpec) uint16 {
	if ws == nil {
		return 0
	}
	switch ws.Dist {
	case "uniform":
		return uint16(ws.Min + rng.Intn(ws.Max-ws.Min+1))
	case "choice":
		return uint16(ws.Choices[rng.Intn(len(ws.Choices))])
	default: // fixed
		return uint16(ws.Cores)
	}
}

// wlStream is one tenant's arrival process: a renewal process drawn
// from the tenant's own seeded stream, its rate modulated by the
// scenario's phase factors with the same gap-start convention as
// Scenario.generate.
type wlStream struct {
	tn      *TenantSpec
	rng     *rand.Rand
	ti, slo int16
	t       float64
	pi      int
	sc      *Scenario
	// The draws' per-tenant constants, computed once in stream: the
	// Weibull divisor Γ(1+1/shape) and exponent 1/shape, the lognormal
	// μ, and the Pareto scale x_m and exponent −1/α.
	weibullG, weibullK float64
	logMu              float64
	paretoXm, paretoK  float64
}

// stream starts tenant ti's arrival process at time 0; every call with
// the same arguments replays the same arrivals.
func (w *WorkloadSpec) stream(cfg Config, sc *Scenario, ti int, slo int16) wlStream {
	// The golden-ratio multiply decorrelates tenant streams; the mix runs
	// in uint64 (the constant overflows int64) and ti+1 keeps tenant 0 off
	// the plain workloadSeed stream.
	mix := int64((uint64(ti) + 1) * 0x9e3779b97f4a7c15)
	tn := &w.Tenants[ti]
	a, wk := &tn.Arrival, &tn.Work
	return wlStream{tn: tn, rng: rand.New(rand.NewSource(cfg.Seed ^ workloadSeed ^ mix)),
		ti: int16(ti), slo: slo, sc: sc,
		weibullG: math.Gamma(1 + 1/a.Shape), weibullK: 1 / a.Shape,
		// Both mean-matched: E = exp(μ + σ²/2) and E = α·x_m/(α−1).
		logMu:    math.Log(wk.MeanS) - wk.Sigma*wk.Sigma/2,
		paretoXm: wk.MeanS * (wk.Alpha - 1) / wk.Alpha, paretoK: -1 / wk.Alpha}
}

// next draws the tenant's next arrival; ok is false once the stream has
// passed the end of the timeline.
func (st *wlStream) next() (r request, ok bool) {
	tn, ph, at := st.tn, st.sc.Phases, st.sc.at
	mean := 1 / (tn.Arrival.RatePerS * ph[st.pi].factor(st.t-at[st.pi]))
	st.t += clampF(st.gap(mean), 1e-9, mean*64)
	for st.pi < len(ph)-1 && st.t >= at[st.pi+1] {
		st.pi++
	}
	if st.t >= st.sc.endS() {
		return request{}, false
	}
	work := clampF(st.work(), tn.Work.MeanS/64, tn.Work.MeanS*64)
	return request{
		arrivalS: st.t, workS: work, doneS: -1, firstNode: -1,
		phase: int16(st.pi), slo: st.slo, tenant: st.ti, width: drawWidth(st.rng, tn.Width),
	}, true
}

// generate produces the workload's merged arrival arena over the
// scenario timeline: each tenant's stream is independent, and the
// streams merge under the total (time, tenant) order — within one tenant
// arrivals are strictly increasing, so the order is unambiguous. A first
// pass counts the arrivals, so the arena is allocated once at its final
// length and the second pass merges the replayed streams straight into
// it: the run's largest allocation leaves no growth copies or staging
// rows behind, and its peak memory does not hinge on when the collector
// runs.
func (w WorkloadSpec) generate(cfg Config, sc Scenario, maxReqs int) (reqs []request, truncated bool) {
	classIdx := map[string]int16{}
	for i, c := range w.Classes {
		classIdx[c.Name] = int16(i)
	}
	streams := make([]wlStream, len(w.Tenants))
	heads := make([]request, len(w.Tenants))
	live := make([]bool, len(w.Tenants))
	restart := func() {
		for ti := range streams {
			streams[ti] = w.stream(cfg, &sc, ti, classIdx[w.Tenants[ti].Class])
		}
	}
	restart()
	n := 0
	for ti := range streams {
		for ; ; n++ {
			if n >= maxReqs {
				return getArena(0), true
			}
			if _, ok := streams[ti].next(); !ok {
				break
			}
		}
	}
	restart()
	for ti := range streams {
		heads[ti], live[ti] = streams[ti].next()
	}
	reqs = getArena(n)
	for i := range reqs {
		// The strict < hands a time tie to the lower tenant.
		best := -1
		for ti := range heads {
			if live[ti] && (best < 0 || heads[ti].arrivalS < heads[best].arrivalS) {
				best = ti
			}
		}
		reqs[i] = heads[best]
		heads[best], live[best] = streams[best].next()
	}
	return reqs, false
}

// wlClass is one SLO class's live state: the resolved declaration plus
// its admission bucket.
type wlClass struct {
	name     string
	priority int
	hedgeS   float64
	bucket   tokenBucket
}

// wlTenant is one tenant's live state.
type wlTenant struct {
	name  string
	class int16
}

// workloadRun is the live multi-tenant state hanging off a sim; nil when
// no workload is armed, and every hook in the simulator is guarded by
// that nil check and nothing else.
type workloadRun struct {
	classes []wlClass
	tenants []wlTenant
	disc    int
	// tallies holds one outcome record per class: the loop counts its
	// retries, finish's arena walk everything else.
	tallies []tally
}

// newWorkloadRun lowers a defaulted, validated spec.
func newWorkloadRun(w WorkloadSpec) *workloadRun {
	wl := &workloadRun{disc: w.discipline()}
	classIdx := map[string]int16{}
	for i, c := range w.Classes {
		wl.classes = append(wl.classes, wlClass{
			name: c.Name, priority: c.Priority, hedgeS: c.HedgeDelayS,
			bucket: tokenBucket{ratePerS: c.AdmitRatePerS, burst: c.AdmitBurst, tokens: c.AdmitBurst},
		})
		wl.tallies = append(wl.tallies, tally{targetS: c.TargetP99S})
		classIdx[c.Name] = int16(i)
	}
	for _, t := range w.Tenants {
		wl.tenants = append(wl.tenants, wlTenant{name: t.Name, class: classIdx[t.Class]})
	}
	return wl
}

// admit draws one admission token from the class's bucket; a refusal
// sheds the arrival at the door.
//
//sprint:hotpath
func (w *workloadRun) admit(slo int16, nowS float64) bool {
	return w.classes[slo].bucket.take(nowS)
}

// before orders two queued requests under the non-FIFO disciplines; the
// strict inequality keeps ties in FIFO (queue) order.
//
//sprint:hotpath
func (w *workloadRun) before(s *sim, a, b int32) bool {
	if w.disc == wlPriority {
		return w.classes[s.reqs[a].slo].priority < w.classes[s.reqs[b].slo].priority
	}
	return s.reqs[a].workS < s.reqs[b].workS // SJF
}

// dequeueDisciplined starts the best queued copy under the workload's
// dequeue discipline — the non-FIFO arm of complete()'s dequeue. It
// first compacts stale copies (request already done elsewhere, or the
// client abandoned the attempt) out of the live region, exactly the
// copies the FIFO loop would have cancelled, then scans the survivors
// for the first strict minimum under before() and serves it. The
// [0, n.head) garbage region is left intact; complete()'s shared reset
// reclaims it when the queue drains.
//
//sprint:hotpath
func (s *sim) dequeueDisciplined(n *node) {
	w := n.head
	for i := n.head; i < len(n.queue); i++ {
		c := n.queue[i]
		if s.moot(c) {
			s.cancel(n, c)
			continue
		}
		n.queue[w] = c
		w++
	}
	n.queue = n.queue[:w]
	if n.head >= len(n.queue) {
		return
	}
	best := n.head
	for i := n.head + 1; i < len(n.queue); i++ {
		if s.wl.before(s, n.queue[i].req, n.queue[best].req) {
			best = i
		}
	}
	c := n.queue[best]
	copy(n.queue[best:], n.queue[best+1:])
	n.queue = n.queue[:len(n.queue)-1]
	n.queuedNaiveS -= s.backlogS(n, c)
	s.startService(n, c)
}

// ClassMetrics is one SLO class's slice of the outcome. Counts cover the
// class's whole arrival cohort; Shed includes AdmissionShed (door sheds)
// on top of retry-budget sheds, so per-class terminal states sum to
// Offered exactly as the fleet-wide conservation invariant.
type ClassMetrics struct {
	Name       string
	Priority   int
	TargetP99S float64

	Offered       int
	Completed     int
	Dropped       int
	TimedOut      int
	Shed          int
	AdmissionShed int
	Retries       int

	// GoodputRPS is the class's completions over the run span; MeanS and
	// the percentiles cover its completed requests with the run-wide
	// exact-vs-one-bin quantile contract; SLOAttainment is the fraction
	// of completions within TargetP99S (0 when no target is declared).
	GoodputRPS    float64
	MeanS         float64
	P50S          float64
	P95S          float64
	P99S          float64
	P999S         float64
	MaxS          float64
	SLOAttainment float64
}

// TenantMetrics is one tenant population's slice of the outcome.
type TenantMetrics struct {
	Name  string
	Class string

	Offered    int
	Completed  int
	GoodputRPS float64
}

// assemble fills the workload outcome into the metrics from the class
// tallies and the per-tenant counts finish's arena walk produced, so
// every figure is bit-identical at any worker count and each class's
// latencies carry the run's exact-vs-one-bin quantile contract.
func (w *workloadRun) assemble(m *Metrics) {
	m.Classes = make([]ClassMetrics, len(w.tallies))
	for i := range w.tallies {
		cl, t, cm := &w.classes[i], &w.tallies[i], &m.Classes[i]
		*cm = ClassMetrics{Name: cl.name, Priority: cl.priority, TargetP99S: t.targetS,
			AdmissionShed: t.n[admShed], Retries: t.retries}
		cm.Offered, cm.Completed, cm.Dropped, cm.TimedOut, cm.Shed = t.counts()
		if cm.Completed > 0 && cm.TargetP99S > 0 {
			cm.SLOAttainment = float64(t.within) / float64(cm.Completed)
		}
		if m.SimS > 0 {
			cm.GoodputRPS = float64(cm.Completed) / m.SimS
		}
		cm.MeanS, cm.P50S, cm.P95S, cm.P99S, cm.P999S, cm.MaxS = t.lat.summary()
	}
	// Jain fairness over per-tenant completions in tenant order:
	// (Σx)² / (n·Σx²), 1.0 when every tenant completed equally, → 1/n as
	// one tenant monopolizes; 0 when nothing completed.
	sum, sumSq := 0.0, 0.0
	for i := range m.Tenants {
		t := &m.Tenants[i]
		t.Name, t.Class = w.tenants[i].name, w.classes[w.tenants[i].class].name
		if m.SimS > 0 {
			t.GoodputRPS = float64(t.Completed) / m.SimS
		}
		x := float64(t.Completed)
		sum += x
		sumSq += x * x
	}
	if sumSq > 0 {
		m.JainFairness = sum * sum / (float64(len(m.Tenants)) * sumSq)
	}
}

// buildReplayRun resolves the trace's class/tenant labels into a
// workloadRun plus per-row class and tenant indexes. With a spec (defaulted
// and validated, no tenants) the classes are its declarations and unknown
// labels are errors; without one, implicit classes and tenants are minted
// from the sorted unique labels ("" reads as "default"), carrying
// accounting but no admission or priorities.
func buildReplayRun(rows []TraceRequest, spec *WorkloadSpec) (*workloadRun, []int16, []int16, error) {
	var wl *workloadRun
	if spec != nil {
		wl = newWorkloadRun(*spec)
	} else {
		names := sortedLabels(rows, func(r *TraceRequest) string { return r.Class })
		if len(names) > maxSLOClasses {
			return nil, nil, nil, fmt.Errorf("fleet: trace names %d classes (max %d)", len(names), maxSLOClasses)
		}
		wl = &workloadRun{disc: wlFIFO, tallies: make([]tally, len(names))}
		for _, name := range names {
			wl.classes = append(wl.classes, wlClass{name: name})
		}
	}
	classIdx := map[string]int16{}
	for i := range wl.classes {
		classIdx[wl.classes[i].name] = int16(i)
	}
	tenantNames := sortedLabels(rows, func(r *TraceRequest) string { return r.Tenant })
	if len(tenantNames) > maxTenants {
		return nil, nil, nil, fmt.Errorf("fleet: trace names %d tenants (max %d)", len(tenantNames), maxTenants)
	}
	tenantIdx := map[string]int16{}
	for i, name := range tenantNames {
		tenantIdx[name] = int16(i)
	}
	slos := make([]int16, len(rows))
	tenants := make([]int16, len(rows))
	tenantClass := make([]int16, len(tenantNames))
	for i := range rows {
		row := &rows[i]
		si := int16(0)
		if row.Class != "" || spec == nil {
			label := row.Class
			if spec == nil {
				label = replayLabel(label)
			}
			var ok bool
			if si, ok = classIdx[label]; !ok {
				return nil, nil, nil, fmt.Errorf("fleet: trace row %d: unknown class %q (spec declares %d classes)", i+1, row.Class, len(classIdx))
			}
		}
		slos[i] = si
		tenants[i] = tenantIdx[replayLabel(row.Tenant)]
		tenantClass[tenants[i]] = si
	}
	wl.tenants = make([]wlTenant, len(tenantNames))
	for i, name := range tenantNames {
		wl.tenants[i] = wlTenant{name: name, class: tenantClass[i]}
	}
	return wl, slos, tenants, nil
}

// sortedLabels returns the distinct labels the rows carry, sorted, with
// "" read as "default".
func sortedLabels(rows []TraceRequest, label func(*TraceRequest) string) []string {
	names := map[string]bool{}
	for i := range rows {
		names[replayLabel(label(&rows[i]))] = true
	}
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name) // key extraction only; sorted below
	}
	sort.Strings(sorted)
	return sorted
}

// replayLabel reads an empty trace label as the implicit population.
func replayLabel(s string) string {
	if s == "" {
		return "default"
	}
	return s
}
