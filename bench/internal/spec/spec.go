// Package spec defines the benchmark's workloads once: the commands the
// harness times with tracing off, and the parameters the traced pass
// calls the library with, so the two passes run the same work.
package spec

import "strconv"

// Reliability holds fleetsim's request-reliability flags; zero fields are
// left out of the command line.
type Reliability struct {
	TimeoutS      float64
	MaxRetries    int
	RetryBackoffS float64
	RetryBudget   float64
	RetryBurst    float64
	GrayFrac      float64
	GraySlowdown  float64
	FaultProb     float64
}

// Fleet is one fleetsim run. The file fields name inputs and outputs in
// the workload's working directory; fleetsim echoes input names into its
// report, so they are fixed names, never temporary paths.
type Fleet struct {
	Nodes        int
	Requests     int // 0 when a scenario, workload or replay file owns the load
	Policy       string
	Coordination string
	RackSize     int // 0 keeps fleetsim's default
	ShardWorkers int
	Scenario     string
	Workload     string
	Replay       string
	Trace        string // recording written at -trace-level full
	Reliability  Reliability
}

// Args renders the run as fleetsim flags.
func (f Fleet) Args(seed int64) []string {
	a := []string{"-nodes", strconv.Itoa(f.Nodes), "-policy", f.Policy,
		"-coordination", f.Coordination, "-seed", strconv.FormatInt(seed, 10)}
	num := func(flag string, v float64) {
		if v != 0 {
			a = append(a, flag, strconv.FormatFloat(v, 'f', -1, 64))
		}
	}
	str := func(flag, v string) {
		if v != "" {
			a = append(a, flag, v)
		}
	}
	num("-requests", float64(f.Requests))
	num("-rack-size", float64(f.RackSize))
	num("-shard-workers", float64(f.ShardWorkers))
	str("-scenario", f.Scenario)
	str("-workload", f.Workload)
	str("-replay", f.Replay)
	if f.Trace != "" {
		a = append(a, "-trace", f.Trace, "-trace-level", "full")
	}
	r := f.Reliability
	num("-timeout-s", r.TimeoutS)
	num("-max-retries", float64(r.MaxRetries))
	num("-retry-backoff-s", r.RetryBackoffS)
	num("-retry-budget", r.RetryBudget)
	num("-retry-burst", r.RetryBurst)
	num("-gray-frac", r.GrayFrac)
	num("-gray-slowdown", r.GraySlowdown)
	num("-fault-prob", r.FaultProb)
	return a
}

// Setup returns the run with its load cut to one request and the same
// fleet, rack, reliability and trace flags: what remains is process
// start, validation, and building the fleet, index and governors.
func (f Fleet) Setup() Fleet {
	f.Requests = 1
	f.Scenario, f.Workload, f.Replay = "", "", ""
	return f
}

// Input and output file names in a workload's working directory.
const (
	FlashScenarioFile  = "scenario.json"
	FlashWorkloadFile  = "workload.json"
	ReplayScenarioFile = "replay_scenario.json"
	RecordingFile      = "rec.jsonl"
	ReplayTraceFile    = "trace.csv"
)

// The fleets the workloads run.
var (
	ScaleSprint = Fleet{Nodes: 10000, Requests: 1000000, Policy: "sprint-aware",
		Coordination: "token-permit", RackSize: 16}
	ScaleRoundRobin = Fleet{Nodes: 10000, Requests: 1000000, Policy: "round-robin",
		Coordination: "token-permit", RackSize: 16, ShardWorkers: 2}
	FlashTenants = Fleet{Nodes: 2000, Policy: "hedged", Coordination: "token-permit",
		RackSize: 16, ShardWorkers: 2, Scenario: FlashScenarioFile, Workload: FlashWorkloadFile,
		Reliability: Reliability{TimeoutS: 5, MaxRetries: 3, RetryBackoffS: 0.1,
			RetryBudget: 90, RetryBurst: 64, GrayFrac: 0.1, GraySlowdown: 6, FaultProb: 0.01}}
	TraceRecord = Fleet{Nodes: 1000, Policy: "sprint-aware", Coordination: "token-permit",
		Scenario: ReplayScenarioFile, Trace: RecordingFile}
	TraceReplay = Fleet{Nodes: 1000, Policy: "sprint-aware", Coordination: "token-permit",
		ShardWorkers: 2, Replay: ReplayTraceFile}
)

// Fig9Scale is paper_fig9's input-size multiplier, Fig9SetupScale the one
// its set-up run uses, and Fig9Workers its engine pool size.
const (
	Fig9Scale      = 0.12
	Fig9SetupScale = 0.001
	Fig9Workers    = 2
)

// FlashScenario is flash_tenants' load shape: a 960 s flash crowd with
// node and rack churn. With FlashWorkload attached, the phase factors
// scale each tenant's own rate and the base rate goes unused.
const FlashScenario = `{
  "base_rate_per_s": 900,
  "phases": [
    {"name": "baseline", "duration_s": 360, "start_factor": 0.7},
    {"name": "surge", "duration_s": 240, "start_factor": 1.4, "ambient_delta_c": 10},
    {"name": "recovery", "duration_s": 360, "shape": "decay", "start_factor": 1.4, "end_factor": 0.5}
  ],
  "churn": {"mtbf_s": 1, "mean_downtime_s": 5, "rack_mtbf_s": 20, "rack_mean_downtime_s": 5}
}
`

// FlashWorkload is flash_tenants' tenant mix: three SLO classes under
// priority dequeue, four tenants with different arrival processes.
const FlashWorkload = `{
  "classes": [
    {"name": "interactive", "priority": 0, "target_p99_s": 1.0,
     "admit_rate_per_s": 400, "admit_burst": 800, "hedge_delay_s": 0.5},
    {"name": "standard", "priority": 1, "target_p99_s": 3.0},
    {"name": "batch", "priority": 2}
  ],
  "tenants": [
    {"name": "search", "class": "interactive",
     "arrival": {"process": "poisson", "rate_per_s": 300},
     "work": {"dist": "exp", "mean_s": 1.5}},
    {"name": "ads", "class": "interactive",
     "arrival": {"process": "gamma", "rate_per_s": 200, "shape": 0.5},
     "work": {"dist": "lognormal", "mean_s": 2.0, "sigma": 1.2},
     "width": {"dist": "choice", "choices": [1, 2]}},
    {"name": "feed", "class": "standard",
     "arrival": {"process": "weibull", "rate_per_s": 200, "shape": 2.0},
     "work": {"dist": "exp", "mean_s": 2.0}},
    {"name": "analytics", "class": "batch",
     "arrival": {"process": "weibull", "rate_per_s": 100, "shape": 2.0},
     "work": {"dist": "pareto", "mean_s": 4.0, "alpha": 2.5}}
  ],
  "discipline": "priority",
  "duration_s": 960
}
`

// ReplayScenario is the flash crowd trace_replay records: the same shape
// as FlashScenario over 80 s at half the base rate, with node churn.
const ReplayScenario = `{
  "base_rate_per_s": 450,
  "phases": [
    {"name": "baseline", "duration_s": 30, "start_factor": 0.7},
    {"name": "surge", "duration_s": 20, "start_factor": 1.4, "ambient_delta_c": 10},
    {"name": "recovery", "duration_s": 30, "shape": "decay", "start_factor": 1.4, "end_factor": 0.5}
  ],
  "churn": {"mtbf_s": 2, "mean_downtime_s": 5}
}
`

// Step is one command of a rep: a binary the harness builds from
// ./cmd/<Prog>, and its arguments.
type Step struct {
	Prog string
	Args []string
}

// Workload is one benchmark workload.
type Workload struct {
	Name string
	// Reps is how many times one set runs Steps when no time budget is
	// given.
	Reps int
	// Seeded reports whether the seed reaches the program; paper_fig9's
	// inputs are fixed.
	Seeded bool
	// Inputs are written into the working directory before any run.
	Inputs map[string]string
	// Setup is the workload's command with its load cut to one request.
	Setup Step
	// Steps run in order and make up one rep.
	Steps []Step
	// Outputs are files the steps write whose bytes are pinned beside
	// each step's standard output.
	Outputs []string
}

// Names lists the workloads in the order one set runs them.
var Names = func() []string {
	var names []string
	for _, w := range Workloads(0) {
		names = append(names, w.Name)
	}
	return names
}()

func fleetStep(f Fleet, seed int64) Step { return Step{Prog: "fleetsim", Args: f.Args(seed)} }

// Workloads returns every workload with its commands for the seed.
func Workloads(seed int64) []Workload {
	fig9 := func(scale float64) Step {
		return Step{Prog: "sprintbench", Args: []string{"-exp", "fig9",
			"-scale", strconv.FormatFloat(scale, 'g', -1, 64), "-format", "csv",
			"-workers", strconv.Itoa(Fig9Workers)}}
	}
	return []Workload{
		{Name: "scale_sprint", Reps: 7, Seeded: true,
			Setup: fleetStep(ScaleSprint.Setup(), seed),
			Steps: []Step{fleetStep(ScaleSprint, seed)}},
		{Name: "scale_roundrobin", Reps: 15, Seeded: true,
			Setup: fleetStep(ScaleRoundRobin.Setup(), seed),
			Steps: []Step{fleetStep(ScaleRoundRobin, seed)}},
		{Name: "flash_tenants", Reps: 9, Seeded: true,
			Inputs: map[string]string{FlashScenarioFile: FlashScenario, FlashWorkloadFile: FlashWorkload},
			Setup:  fleetStep(FlashTenants.Setup(), seed),
			Steps:  []Step{fleetStep(FlashTenants, seed)}},
		{Name: "trace_replay", Reps: 9, Seeded: true,
			Inputs: map[string]string{ReplayScenarioFile: ReplayScenario},
			Setup:  fleetStep(TraceRecord.Setup(), seed),
			Steps: []Step{
				fleetStep(TraceRecord, seed),
				{Prog: "fleetsim", Args: []string{"-convert-trace", RecordingFile, "-replay-out", ReplayTraceFile}},
				fleetStep(TraceReplay, seed),
			},
			Outputs: []string{RecordingFile, ReplayTraceFile}},
		{Name: "paper_fig9", Reps: 7,
			Setup: fig9(Fig9SetupScale),
			Steps: []Step{fig9(Fig9Scale)}},
	}
}

// Metric is a named measurement with its unit.
type Metric struct {
	Name, Unit string
}

// Layers lists every per-layer metric the traced pass reports. A workload
// that does not exercise a layer reports 0 for its metrics.
var Layers = []Metric{
	{"session.generate_s", "s"},
	{"fleet.simulate_s", "s"},
	{"fleet.engine_s", "s"},
	{"fleet.dispatches", "count"},
	{"fleet.engine_ns_per_dispatch", "ns"},
	{"fleet.alloc_mb", "MB"},
	{"fleet.mallocs", "count"},
	{"fleet.shard_overhead_x", "ratio"},
	{"rack.permit_requests", "count"},
	{"rack.permit_denial_rate", "ratio"},
	{"governor.sprint_denial_rate", "ratio"},
	{"scenario.node_failures", "count"},
	{"scenario.rack_failures", "count"},
	{"scenario.redispatches", "count"},
	{"workload.admission_shed", "count"},
	{"reliability.retries", "count"},
	{"reliability.timed_out", "count"},
	{"hedge.issued", "count"},
	{"hedge.cancelled_copies", "count"},
	{"reliability.goodput_ratio", "ratio"},
	{"reliability.retry_amplification", "ratio"},
	{"hedge.win_rate", "ratio"},
	{"trace.record_s", "s"},
	{"trace.plain_s", "s"},
	{"trace.overhead_x", "ratio"},
	{"trace.record_alloc_mb", "MB"},
	{"trace.decisions", "count"},
	{"trace.alts", "count"},
	{"trace.events", "count"},
	{"trace.samples", "count"},
	{"trace.jsonl_mb", "MB"},
	{"trace.write_jsonl_s", "s"},
	{"trace.read_jsonl_s", "s"},
	{"replay.from_recording_s", "s"},
	{"replay.write_csv_s", "s"},
	{"replay.parse_s", "s"},
	{"replay.simulate_s", "s"},
	{"replay.rows", "count"},
	{"experiments.fig9_s", "s"},
	{"archsim.point_s", "s"},
	{"archsim.sim_minstr_per_s", "Minstr/s"},
	{"engine.parallel_efficiency", "ratio"},
	{"bench.untraced_gap_s", "s"},
}
