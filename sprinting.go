// Package sprinting is a full reproduction of "Computational Sprinting"
// (Raghavan, Luo, Chandawalla, Papaefthymiou, Pipe, Wenisch, Martin — HPCA
// 2012) as a Go library: a many-core architectural simulator, an RC/PCM
// thermal model, an RLC power-delivery simulator, battery/ultracapacitor
// models, the sprint runtime, and the six vision kernels of the paper's
// evaluation, together with drivers that regenerate every table and figure.
//
// The central idea: a mobile chip that can sustain only ~1 W activates up
// to 16 dark-silicon cores for sub-second bursts — exceeding its thermal
// design power by an order of magnitude — buffering the heat in the latent
// capacity of a phase-change material, then cools back down. This facade
// exposes the library's primary operations; see the examples directory for
// runnable scenarios, and cmd/sprintbench to regenerate the paper's
// evaluation.
//
// Every experiment sweep executes through the internal/engine worker pool,
// so regeneration is parallel by default. Point evaluations are
// deterministic, so any worker count — including 1, which is exactly
// serial — produces identical tables; see RunOptions.Workers and RunGrid
// for batch simulation from client code. Batch APIs take a caller context
// or come in ...Context variants, and honor its cancellation.
//
// Beyond the paper's single-chip evaluation, RunFleet scales the
// ingredients to a datacenter: a deterministic discrete-event simulation
// of N sprint-capable nodes — each owning a governor-managed thermal
// budget and a bounded queue — serving open-loop traffic under
// round-robin, least-loaded, sprint-aware, or hedged dispatch. Rack power
// domains add the shared-circuit dimension: racks of nodes draw from one
// provisioned budget backed by a §6 ultracapacitor buffer, arbitrated by
// uncoordinated, token-permit, or probabilistic sprint coordination; see
// cmd/fleetsim and the fleet_policy and rack_coordination experiments.
//
// A FleetSpec's Scenario makes the fleet dynamic — the regime where
// sprinting actually earns its keep: declarative load phases (flash-crowd
// steps, diurnal sines, decaying ramps), ambient-temperature swings that
// retarget every governor, heterogeneous node classes, and seeded node
// failure/recovery churn, reported per phase. See FleetScenario and the
// fleet_scenarios experiment. The same spec carries multi-tenant
// workloads and trace replays, and RunFleetSweep fans specs out on the
// worker pool.
package sprinting

import (
	"context"
	"fmt"
	"io"

	"sprinting/internal/core"
	"sprinting/internal/engine"
	"sprinting/internal/experiments"
	"sprinting/internal/fleet"
	"sprinting/internal/governor"
	"sprinting/internal/powergrid"
	"sprinting/internal/powersource"
	"sprinting/internal/session"
	"sprinting/internal/table"
	"sprinting/internal/thermal"
	"sprinting/internal/trace"
	"sprinting/internal/workloads"
)

// Policy selects the execution mode of a run.
type Policy = core.Policy

// Execution policies.
const (
	// Sustained runs one ≈1 W core — the non-sprinting baseline.
	Sustained = core.Sustained
	// ParallelSprint activates the sprint cores until the thermal budget
	// is exhausted (the paper's headline mechanism).
	ParallelSprint = core.ParallelSprint
	// DVFSSprint boosts one core to ∛16 ≈ 2.5× frequency at 16× power
	// (the paper's §8.4 comparison).
	DVFSSprint = core.DVFSSprint
)

// Config parameterizes a sprint-system run; see DefaultConfig.
type Config = core.Config

// Result is the outcome of one run.
type Result = core.Result

// DefaultConfig returns the paper's 16-core, 150 mg-PCM smartphone design
// point for the given policy.
func DefaultConfig(policy Policy) Config { return core.DefaultConfig(policy) }

// LimitedConfig returns the §8.3 thermally constrained design point
// (1.5 mg of PCM, 100× less) for the given policy.
func LimitedConfig(policy Policy) Config {
	cfg := core.DefaultConfig(policy)
	cfg.Thermal = thermal.LimitedStackConfig()
	return cfg
}

// SizeClass selects a kernel input size (A smallest … D largest).
type SizeClass = workloads.SizeClass

// Input sizes.
const (
	SizeA = workloads.SizeA
	SizeB = workloads.SizeB
	SizeC = workloads.SizeC
	SizeD = workloads.SizeD
)

// Kernel describes one Table 1 workload.
type Kernel = workloads.Kernel

// Kernels returns the paper's six evaluation kernels.
func Kernels() []Kernel { return workloads.All() }

// RunKernel builds the named kernel at the given size and executes it under
// cfg, returning the run result. Each call builds fresh inputs, so results
// are reproducible and independent.
func RunKernel(kernel string, size SizeClass, cfg Config) (Result, error) {
	k, err := workloads.ByName(kernel)
	if err != nil {
		return Result{}, err
	}
	inst := k.Build(workloads.Params{Size: size, Shards: 64})
	res, err := core.Run(inst.Program, cfg)
	if err != nil {
		return Result{}, err
	}
	if verr := inst.Verify(); verr != nil {
		return res, fmt.Errorf("sprinting: kernel output verification failed: %w", verr)
	}
	return res, nil
}

// ThermalDesign is the Figure 3 stack configuration.
type ThermalDesign = thermal.StackConfig

// DefaultThermalDesign returns the 150 mg PCM design; its melting point,
// mass, and resistances can be adjusted for design-space exploration.
func DefaultThermalDesign() ThermalDesign { return thermal.DefaultStackConfig() }

// SprintTransient is the Figure 4(a) result type.
type SprintTransient = thermal.SprintTransient

// SimulateSprintThermals runs a constant-power sprint on the given design
// from cold until the junction reaches TJmax (Figure 4a).
func SimulateSprintThermals(d ThermalDesign, powerW float64) SprintTransient {
	return thermal.SimulateSprint(d, powerW, 1e-4, 10)
}

// CooldownTransient is the Figure 4(b) result type.
type CooldownTransient = thermal.CooldownTransient

// SimulateCooldownThermals runs a sprint followed by idle cooling
// (Figure 4b), with times measured from the start of cooldown.
func SimulateCooldownThermals(d ThermalDesign, powerW float64) CooldownTransient {
	return thermal.SimulateCooldown(d, powerW, 0, 1e-3, 5, 200, 3)
}

// ActivationResult is the Figure 6 supply-integrity result.
type ActivationResult = powergrid.Result

// SimulateActivation runs the §5 power-distribution transient for a linear
// core-activation ramp of the given duration (0 = abrupt) and reports
// supply integrity against the 2% tolerance.
func SimulateActivation(rampS float64) (*ActivationResult, error) {
	cfg := powergrid.DefaultConfig()
	var sched powergrid.Schedule
	if rampS <= 0 {
		sched = powergrid.Abrupt(2e-6)
	} else {
		sched = powergrid.LinearRamp(2e-6, rampS)
	}
	return powergrid.Simulate(cfg, sched, powergrid.DefaultSimOptions(sched))
}

// SimulateActivations runs SimulateActivation for every ramp concurrently
// on a bounded worker pool (workers <= 0 selects GOMAXPROCS, 1 is exactly
// serial), returning results in ramp order.
func SimulateActivations(rampsS []float64, workers int) ([]*ActivationResult, error) {
	return SimulateActivationsContext(context.Background(), rampsS, workers)
}

// SimulateActivationsContext is SimulateActivations under a caller
// context: cancellation stops new ramps from starting, and finished ramps
// keep their results.
func SimulateActivationsContext(ctx context.Context, rampsS []float64, workers int) ([]*ActivationResult, error) {
	return engine.Map(ctx, rampsS,
		func(_ context.Context, rampS float64) (*ActivationResult, error) {
			return SimulateActivation(rampS)
		}, engine.Options{Workers: workers})
}

// SimulateSprintThermalsBatch runs SimulateSprintThermals for every sprint
// power concurrently on a bounded worker pool, returning transients in
// power order. The error reports any simulation panic the pool isolated.
func SimulateSprintThermalsBatch(d ThermalDesign, powersW []float64, workers int) ([]SprintTransient, error) {
	return SimulateSprintThermalsBatchContext(context.Background(), d, powersW, workers)
}

// SimulateSprintThermalsBatchContext is SimulateSprintThermalsBatch under
// a caller context.
func SimulateSprintThermalsBatchContext(ctx context.Context, d ThermalDesign, powersW []float64, workers int) ([]SprintTransient, error) {
	return engine.Map(ctx, powersW,
		func(_ context.Context, p float64) (SprintTransient, error) {
			return SimulateSprintThermals(d, p), nil
		}, engine.Options{Workers: workers})
}

// SimulateCooldownThermalsBatch runs SimulateCooldownThermals for every
// sprint power concurrently on a bounded worker pool, returning transients
// in power order. The error reports any simulation panic the pool
// isolated.
func SimulateCooldownThermalsBatch(d ThermalDesign, powersW []float64, workers int) ([]CooldownTransient, error) {
	return SimulateCooldownThermalsBatchContext(context.Background(), d, powersW, workers)
}

// SimulateCooldownThermalsBatchContext is SimulateCooldownThermalsBatch
// under a caller context.
func SimulateCooldownThermalsBatchContext(ctx context.Context, d ThermalDesign, powersW []float64, workers int) ([]CooldownTransient, error) {
	return engine.Map(ctx, powersW,
		func(_ context.Context, p float64) (CooldownTransient, error) {
			return SimulateCooldownThermals(d, p), nil
		}, engine.Options{Workers: workers})
}

// PowerSupply is the §6 hybrid battery + ultracapacitor model.
type PowerSupply = powersource.HybridSupply

// DefaultPowerSupply returns the paper's phone Li-Ion + 25 F ultracapacitor
// configuration.
func DefaultPowerSupply() PowerSupply { return powersource.NewHybridSupply() }

// SprintDemand describes a burst the power supply must deliver.
type SprintDemand = powersource.SprintDemand

// Governor is the §7 activity-based sprint-budget manager: it answers
// "can I sprint now, at what intensity, and how long must I wait?" for
// repeated bursts.
type Governor = governor.Governor

// GovernorConfig parameterizes a Governor.
type GovernorConfig = governor.Config

// NewGovernor returns a budget manager for the paper's 16 W / 1 W platform.
func NewGovernor() *Governor { return governor.New(governor.DefaultConfig()) }

// Burst is one user-triggered computation demand in a session trace.
type Burst = session.Burst

// SessionPolicy selects how a session's bursts are serviced.
type SessionPolicy = session.Policy

// Session policies.
const (
	// SessionSustained serves bursts on the single sustainable core.
	SessionSustained = session.SustainedPolicy
	// SessionGoverned sprints within the §7 budget (never violates).
	SessionGoverned = session.GovernedSprint
	// SessionUnmanaged always sprints, ignoring the budget (straw man).
	SessionUnmanaged = session.UnmanagedSprint
)

// SessionMetrics summarizes the user-visible outcome of a session.
type SessionMetrics = session.Metrics

// GenerateSession produces a deterministic burst-arrival trace: n bursts
// with mean inter-arrival gap and mean single-core work, both in seconds.
func GenerateSession(n int, meanGapS, meanWorkS float64, seed int64) []Burst {
	return session.GenerateBursts(n, meanGapS, meanWorkS, seed)
}

// EvaluateSession services a burst trace under the policy on the paper's
// 16-core platform and returns the response-time metrics.
func EvaluateSession(bursts []Burst, policy SessionPolicy) SessionMetrics {
	return session.Evaluate(bursts, policy, session.DefaultConfig())
}

// EvaluateSessions services the burst trace under every policy
// concurrently on a bounded worker pool (workers <= 0 selects GOMAXPROCS,
// 1 is exactly serial), returning metrics in policy order. The error
// reports any evaluation panic the pool isolated.
func EvaluateSessions(bursts []Burst, policies []SessionPolicy, workers int) ([]SessionMetrics, error) {
	return EvaluateSessionsContext(context.Background(), bursts, policies, workers)
}

// EvaluateSessionsContext is EvaluateSessions under a caller context.
func EvaluateSessionsContext(ctx context.Context, bursts []Burst, policies []SessionPolicy, workers int) ([]SessionMetrics, error) {
	return engine.Map(ctx, policies,
		func(_ context.Context, p SessionPolicy) (SessionMetrics, error) {
			return EvaluateSession(bursts, p), nil
		}, engine.Options{Workers: workers})
}

// FleetPolicy selects how a simulated datacenter fleet dispatches
// requests to its sprint-capable nodes.
type FleetPolicy = fleet.Policy

// Fleet dispatch policies.
const (
	// FleetRoundRobin cycles through nodes blind to node state.
	FleetRoundRobin = fleet.RoundRobin
	// FleetLeastLoaded routes to the node with the least outstanding work.
	FleetLeastLoaded = fleet.LeastLoaded
	// FleetSprintAware routes to the node whose thermal headroom finishes
	// the request soonest.
	FleetSprintAware = fleet.SprintAware
	// FleetHedged duplicates laggard requests to a second node; the first
	// reply wins (competitive-parallel scheduling).
	FleetHedged = fleet.Hedged
)

// FleetPolicies returns every fleet dispatch policy.
func FleetPolicies() []FleetPolicy { return fleet.Policies() }

// ParseFleetPolicy maps a policy name (round-robin, least-loaded,
// sprint-aware, hedged) to its FleetPolicy.
func ParseFleetPolicy(s string) (FleetPolicy, error) { return fleet.ParsePolicy(s) }

// RackCoordination selects how nodes in a rack arbitrate their shared
// provisioned power budget before sprinting; the zero value
// RackNoCoordination disables rack power domains entirely.
type RackCoordination = fleet.Coordination

// Rack coordination policies.
const (
	// RackNoCoordination disables rack power domains (every node sprints
	// on its own thermal budget, as if its circuit were unlimited).
	RackNoCoordination = fleet.NoCoordination
	// RackUncoordinated lets every node sprint at will; concurrent
	// sprints beyond the provisioned budget drain the rack's ultracap
	// buffer and trip the branch breaker, forcing the whole rack to
	// nominal for a recovery window.
	RackUncoordinated = fleet.Uncoordinated
	// RackTokenPermit grants at most SprintPermits concurrent sprints per
	// rack — breaker trips are impossible by construction.
	RackTokenPermit = fleet.TokenPermit
	// RackProbabilistic admits each sprint with a headroom-proportional
	// probability from the deterministic seeded stream.
	RackProbabilistic = fleet.Probabilistic
)

// RackCoordinations returns the active coordination policies.
func RackCoordinations() []RackCoordination { return fleet.Coordinations() }

// ParseRackCoordination maps a coordination name (none, uncoordinated,
// token-permit, probabilistic) to its RackCoordination.
func ParseRackCoordination(s string) (RackCoordination, error) { return fleet.ParseCoordination(s) }

// RackStats summarizes one rack power domain: breaker trips, throttled
// recovery time, permit traffic, and member energy.
type RackStats = fleet.RackStats

// RackBudgetW provisions a branch circuit for rackSize nodes at nominal
// draw plus full sprint headroom for `sprinters` concurrent sprints.
func RackBudgetW(rackSize, sprinters int, node GovernorConfig) float64 {
	return fleet.RackBudgetW(rackSize, sprinters, node)
}

// DefaultRackBudgetW provisions a rack's branch circuit: nominal draw for
// every node plus full sprint headroom for a quarter of them.
func DefaultRackBudgetW(rackSize int, node GovernorConfig) float64 {
	return fleet.DefaultRackBudgetW(rackSize, node)
}

// FleetConfig parameterizes a fleet simulation: node count, dispatch
// policy, open-loop arrival trace, per-node queue bound, the governor
// configuration every node manages its thermal budget with, and the rack
// power domains (RackSize nodes per provisioned circuit under a
// RackCoordination policy).
//
// Traces up to 131072 requests report exact nearest-rank latency
// quantiles; larger traces stream latencies through a fixed-bin
// log-scale histogram (quantiles within 1.81%, mean and max still
// exact) so warehouse-scale runs stay allocation-free — set
// ExactQuantiles to opt back into exact buffering at any scale.
// FleetMetrics.ApproxQuantiles reports which mode ran.
//
// Workers shards the simulation's event loop across per-worker loops on
// real goroutines, with racks as the shard boundary. Only decoupled
// configurations shard — plain round-robin dispatch without the
// probabilistic admission draw, outside scenario mode, untraced, with no
// reliability layer or workload; every other run takes the single loop
// at any worker count. The result is byte-identical either way.
type FleetConfig = fleet.Config

// FleetMetrics is the outcome of a fleet simulation: throughput, latency
// percentiles up to p999 (nearest-rank, or within one histogram bin when
// ApproxQuantiles is set — see FleetConfig), sprint-denial rate, per-node
// energy, and — with rack coordination enabled — breaker trips, throttled
// seconds, permit-denial rate, and per-rack energy.
type FleetMetrics = fleet.Metrics

// DefaultFleetConfig returns a 16-node fleet of the paper's 16 W / 1 W
// platforms under the given dispatch policy, offered ≈85% of sustained
// capacity.
func DefaultFleetConfig(p FleetPolicy) FleetConfig { return fleet.DefaultConfig(p) }

// FleetSpec is one fleet run: a FleetConfig plus the load source it
// serves. With no source set, the run draws the synthetic open-loop
// stream the config describes. Scenario plays a FleetScenario's phases,
// ambient swings, node classes and churn. Workload draws a FleetWorkload's
// tenant populations, over Scenario's timeline or a flat one of
// FleetWorkload.DurationS. A non-nil Replay drives the run from recorded
// rows; Workload then only declares the classes their labels resolve
// against. A replay cannot ride a scenario, and the flight recorder
// (FleetConfig.Trace) covers synthetic and scenario runs only.
type FleetSpec = fleet.Spec

// RunFleet runs one discrete-event fleet simulation: N sprint-capable
// nodes — each owning a governor-managed thermal budget and a bounded
// FIFO queue — serve the spec's load under the configured dispatch
// policy. With FleetConfig.Trace at a level other than TraceOff the
// flight recorder rides along and the recording is returned; its metrics
// equal the untraced run's, since the recorder observes and never steers.
// The trace is nil for an untraced run. The result is a pure function of
// the spec, and the context is checked periodically so very large runs
// can be cancelled.
//
// The simulator is built for warehouse scale: dispatch is O(log N) per
// arrival over an incrementally maintained index (segmented per node
// class, so heterogeneous fleets keep the bound), the event loop does
// not allocate per request, and a 10,000-node fleet serves a million
// requests in single-digit seconds (see BenchmarkFleetScale). Setting
// FleetConfig.Workers shards a decoupled (plain round-robin) run's loop
// itself across goroutines — byte-identically at any worker count (see
// BenchmarkFleetScaleDecoupledParallel); coupled runs ignore it.
func RunFleet(ctx context.Context, spec FleetSpec) (FleetMetrics, *FleetTrace, error) {
	return fleet.Run(ctx, spec)
}

// RunFleetSweep runs every spec concurrently on a bounded worker pool
// (workers <= 0 selects GOMAXPROCS, 1 is exactly serial), returning
// metrics in spec order. Simulations are deterministic, so every worker
// count produces identical metrics. A sweep records no traces: a spec
// with tracing on is an error, and recordings come from RunFleet.
func RunFleetSweep(ctx context.Context, specs []FleetSpec, workers int) ([]FleetMetrics, error) {
	for i := range specs {
		if specs[i].Config.Trace.Level != TraceOff {
			return nil, fmt.Errorf("sprinting: fleet spec %d has tracing on; record traces one run at a time with RunFleet", i)
		}
	}
	return engine.Map(ctx, specs,
		func(ctx context.Context, spec FleetSpec) (FleetMetrics, error) {
			m, _, err := fleet.Run(ctx, spec)
			return m, err
		}, engine.Options{Workers: workers})
}

// FleetScenario is a declarative dynamic-fleet description: load phases
// with ramps (flat, linear, diurnal sine, exponential decay) against the
// scenario's base rate, per-phase ambient-temperature shifts that
// retarget every node's governor, heterogeneous node classes, and seeded
// node failure/recovery churn. See ScenarioPhase, ScenarioNodeClass, and
// ScenarioChurn; the type unmarshals directly from JSON (the format
// cmd/fleetsim -scenario loads).
type FleetScenario = fleet.Scenario

// ScenarioPhase is one segment of a scenario timeline.
type ScenarioPhase = fleet.Phase

// ScenarioNodeClass declares one hardware class of a heterogeneous fleet.
type ScenarioNodeClass = fleet.NodeClass

// ScenarioChurn parameterizes seeded node failure/recovery, including
// correlated rack-level power loss.
type ScenarioChurn = fleet.Churn

// FleetReliability parameterizes the request-reliability layer:
// client-side timeouts with budgeted exponential-backoff retries, and
// fault injection — gray stragglers and transient per-service faults
// (correlated rack failures live in ScenarioChurn). The zero value
// disables the layer entirely at zero cost. Set on
// FleetConfig.Reliability.
type FleetReliability = fleet.Reliability

// ScenarioLoadShape selects a phase's arrival-rate profile.
type ScenarioLoadShape = fleet.LoadShape

// Scenario load shapes.
const (
	// ScenarioFlat holds the phase's start factor throughout.
	ScenarioFlat = fleet.ShapeFlat
	// ScenarioRamp moves linearly between the start and end factors.
	ScenarioRamp = fleet.ShapeRamp
	// ScenarioSine oscillates between the factors (diurnal load).
	ScenarioSine = fleet.ShapeSine
	// ScenarioDecay moves exponentially between the factors (the tail of
	// a flash crowd).
	ScenarioDecay = fleet.ShapeDecay
)

// PhaseMetrics is one phase's slice of a scenario outcome: its offered /
// completed / dropped counts, latency distribution, failover and breaker
// activity, attributed to the phase each request arrived in.
type PhaseMetrics = fleet.PhaseMetrics

// TraceConfig configures the fleet flight recorder: the capture level,
// the number of rejected alternatives each dispatch decision records
// (and counterfactually probes), and the timeline sample window. Set it
// on FleetConfig.Trace and run through RunFleet; at TraceOff (the zero
// value) no recorder exists, so the untraced hot path stays
// allocation-free.
type TraceConfig = fleet.TraceConfig

// TraceLevel selects how much the flight recorder captures.
type TraceLevel = trace.Level

// Trace capture levels.
const (
	// TraceOff disables the recorder (the zero value).
	TraceOff = trace.LevelOff
	// TraceDecisions records every dispatch decision with its winning
	// routing key and top-k rejected alternatives (each counterfactually
	// probed against the alternative node's realized future), lifecycle
	// events, and rolling timeline samples.
	TraceDecisions = trace.LevelDecisions
	// TraceFull adds per-request service-start and completion events.
	TraceFull = trace.LevelFull
)

// ParseTraceLevel maps a level name (off, decisions, full) to its
// TraceLevel.
func ParseTraceLevel(s string) (TraceLevel, error) { return trace.ParseLevel(s) }

// FleetTrace is one traced run's complete recording: a header plus every
// decision, lifecycle event, and timeline sample in the exact global
// event order (byte-identical at any FleetConfig.Workers count). Use
// WriteJSONL to serialize it, and Decisions / Samples / Events /
// TopRegret to mine it in process.
type FleetTrace = trace.Trace

// FleetWorkload declares a multi-tenant workload over the fleet: SLO
// classes (priority, latency target, token-bucket admission budget,
// per-class hedge-delay override), tenant populations (each with its own
// seeded Poisson/Gamma/Weibull arrival process and work/width
// distributions), and a dequeue discipline (fifo, priority, or sjf).
// The type unmarshals directly from JSON (the format cmd/fleetsim
// -workload loads); results land in FleetMetrics.Classes / .Tenants /
// .JainFairness.
type FleetWorkload = fleet.WorkloadSpec

// WorkloadSLOClass declares one service class of a FleetWorkload.
type WorkloadSLOClass = fleet.SLOClass

// WorkloadTenant declares one client population of a FleetWorkload.
type WorkloadTenant = fleet.TenantSpec

// WorkloadArrival is one tenant's arrival process (poisson, gamma, or
// weibull, mean-matched to its rate).
type WorkloadArrival = fleet.ArrivalSpec

// WorkloadWork is one tenant's per-request work distribution (exp,
// fixed, lognormal, or pareto, mean-matched to its mean).
type WorkloadWork = fleet.WorkSpec

// WorkloadWidth is one tenant's request-width distribution (fixed,
// uniform, or choice); a request's width caps its service parallelism.
type WorkloadWidth = fleet.WidthSpec

// ClassMetrics is one SLO class's slice of a workload outcome:
// offered/terminal counts, admission sheds, retries, goodput, latency
// percentiles, and SLO attainment.
type ClassMetrics = fleet.ClassMetrics

// TenantMetrics is one tenant population's slice of a workload outcome.
type TenantMetrics = fleet.TenantMetrics

// TraceRequest is one row of a replayable request trace: arrival
// instant, single-core work, and optional width/tenant/class labels.
type TraceRequest = fleet.TraceRequest

// ParseRequestTrace reads a request trace in either supported encoding
// (JSON lines or CSV, sniffed from the first byte; strict decode in
// both). WriteRequestTraceCSV serializes rows so they parse back
// bit-identically, and ReplayFromRecording converts a flight-recorder
// FleetTrace into a replayable trace — replaying a recording of a plain
// run reproduces that run's arrivals exactly.
func ParseRequestTrace(r io.Reader) ([]TraceRequest, error) { return fleet.ParseRequestTrace(r) }

// WriteRequestTraceCSV serializes a request trace as strict CSV.
func WriteRequestTraceCSV(w io.Writer, rows []TraceRequest) error {
	return fleet.WriteRequestTraceCSV(w, rows)
}

// ReplayFromRecording converts a flight-recorder trace back into a
// replayable request trace (one row per recorded fresh-arrival dispatch
// decision, drops included).
func ReplayFromRecording(tr *FleetTrace) ([]TraceRequest, error) {
	return fleet.ReplayFromRecording(tr)
}

// ReadFleetTrace parses a flight-recorder recording serialized by
// FleetTrace.WriteJSONL; decoding is strict, so a recording round-trips
// exactly.
func ReadFleetTrace(r io.Reader) (*FleetTrace, error) { return trace.ReadJSONL(r) }

// TraceSparkline renders a series as a one-line unicode sparkline,
// min–max scaled; negative values (the trace's no-data sentinel, e.g. a
// window that completed nothing) render as gaps. fleetsim uses it for
// the per-window p99 row in -trace-summary.
func TraceSparkline(vals []float64) string { return trace.Sparkline(vals) }

// Table is a printable experiment result.
type Table = table.Table

// ExperimentIDs lists every regenerable paper artifact in paper order.
func ExperimentIDs() []string {
	var ids []string
	for _, d := range experiments.Registry() {
		ids = append(ids, d.ID)
	}
	return ids
}

// RunOptions tune one experiment regeneration.
type RunOptions struct {
	// Scale multiplies workload input sizes; <= 0 or 1 selects the
	// calibrated defaults, smaller values give quick approximate runs.
	Scale float64
	// Workers bounds the engine pool evaluating the experiment's sweep;
	// <= 0 selects GOMAXPROCS and 1 is exactly serial. Tables are
	// identical at every worker count.
	Workers int
	// CSV selects machine-readable output (one CSV block per table,
	// preceded by a `# title` comment line) instead of rendered tables.
	CSV bool
}

// RunExperiment regenerates one paper table/figure at the given input
// scale (1 = calibrated defaults) and writes the tables to w, evaluating
// the sweep on the default worker pool.
func RunExperiment(w io.Writer, id string, scale float64) error {
	return RunExperimentWith(w, id, RunOptions{Scale: scale})
}

// RunExperimentCSV is RunExperiment with machine-readable CSV output.
func RunExperimentCSV(w io.Writer, id string, scale float64) error {
	return RunExperimentWith(w, id, RunOptions{Scale: scale, CSV: true})
}

// RunExperimentWith regenerates one paper table/figure under the full set
// of run options.
func RunExperimentWith(w io.Writer, id string, opt RunOptions) error {
	return RunExperimentWithContext(context.Background(), w, id, opt)
}

// RunExperimentWithContext is RunExperimentWith under a caller context:
// cancellation stops the experiment's sweep from dispatching new points
// and surfaces the context error.
func RunExperimentWithContext(ctx context.Context, w io.Writer, id string, opt RunOptions) error {
	d, err := experiments.ByID(id)
	if err != nil {
		return err
	}
	tables, err := d.Run(ctx, experiments.Options{Scale: opt.Scale, Workers: opt.Workers})
	if err != nil {
		return fmt.Errorf("sprinting: experiment %s: %w", id, err)
	}
	fmt.Fprintf(w, "# %s\n\n", d.Title)
	for _, tb := range tables {
		if opt.CSV {
			fmt.Fprintf(w, "# %s\n%s\n", tb.Title, tb.CSV())
			continue
		}
		tb.Render(w)
		fmt.Fprintln(w)
	}
	return nil
}

// GridPoint is one simulation point of a batch run: a kernel at an input
// size under a full sprint-system configuration.
type GridPoint = engine.Point

// RunGrid evaluates a batch of simulation points concurrently on a bounded
// worker pool (workers <= 0 selects GOMAXPROCS, 1 is exactly serial) and
// returns the results in point order regardless of completion order.
// Evaluations are deterministic, so every worker count produces identical
// results; a panicking or failing point is isolated and reported in the
// joined error while the remaining points still complete.
func RunGrid(points []GridPoint, workers int) ([]Result, error) {
	return RunGridContext(context.Background(), points, workers)
}

// RunGridContext is RunGrid under a caller context: cancellation stops new
// points from starting while finished points keep their results.
func RunGridContext(ctx context.Context, points []GridPoint, workers int) ([]Result, error) {
	return engine.RunGrid(ctx, points, engine.Options{Workers: workers})
}
