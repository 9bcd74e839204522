// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment driver at
// full calibrated scale; `go test -bench=. -benchmem` therefore reproduces
// the complete evaluation and reports how long each artifact takes to
// regenerate.
package sprinting_test

import (
	"context"
	"fmt"
	"io"
	"testing"

	"sprinting"
	"sprinting/internal/experiments"
)

// benchExperiment runs one driver per iteration, discarding the rendered
// tables (the numbers are recorded in EXPERIMENTS.md and asserted by the
// package tests). The engine's point cache is dropped each iteration so
// the benchmark measures regeneration, not cache lookups.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	d, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	opt := experiments.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.ResetCache()
		tables, err := d.Run(context.Background(), opt)
		if err != nil {
			b.Fatal(err)
		}
		for _, tb := range tables {
			tb.Render(io.Discard)
		}
	}
}

// BenchmarkFig1 regenerates Figure 1 (power density / dark silicon trends).
func BenchmarkFig1(b *testing.B) { benchExperiment(b, "fig1") }

// BenchmarkTable1 regenerates Table 1 (kernel inventory).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkFig2 regenerates Figure 2 (three execution modes).
func BenchmarkFig2(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkFig3 regenerates Figure 3 (thermal-equivalent circuit).
func BenchmarkFig3(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig4a regenerates Figure 4(a) (sprint initiation transient).
func BenchmarkFig4a(b *testing.B) { benchExperiment(b, "fig4a") }

// BenchmarkFig4b regenerates Figure 4(b) (post-sprint cooldown).
func BenchmarkFig4b(b *testing.B) { benchExperiment(b, "fig4b") }

// BenchmarkFig5 regenerates Figure 5 (PDN netlist summary).
func BenchmarkFig5(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6 regenerates Figure 6 (supply voltage vs activation ramp).
func BenchmarkFig6(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkSec6 regenerates the §6 power-source feasibility tables.
func BenchmarkSec6(b *testing.B) { benchExperiment(b, "sec6") }

// BenchmarkFig7 regenerates Figure 7 (16-core speedup vs idealized DVFS).
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8 regenerates Figure 8 (sobel speedup vs input size).
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9 regenerates Figure 9 (speedup across input sizes).
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10 regenerates Figure 10 (speedup vs core count).
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11 regenerates Figure 11 (normalized dynamic energy).
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkAblations regenerates the design-choice ablation tables
// (solid-vs-PCM sink, §7 exit paths, sleep discipline).
func BenchmarkAblations(b *testing.B) { benchExperiment(b, "ablation") }

// BenchmarkDesignSpace regenerates the sprint-width × PCM-mass extension
// study.
func BenchmarkDesignSpace(b *testing.B) { benchExperiment(b, "designspace") }

// BenchmarkSession regenerates the bursty-user-activity session study.
func BenchmarkSession(b *testing.B) { benchExperiment(b, "session") }

// benchEngineFigArchSweep measures the Figure 7 column set — every kernel
// under the sustained baseline and both sprint policies — evaluated as one
// engine grid at the given pool width. Points are independent full
// co-simulations, so throughput should scale near-linearly with workers
// up to the host's core count (workers=1 is the serial reference).
func benchEngineFigArchSweep(b *testing.B, workers int) {
	var points []sprinting.GridPoint
	for _, k := range sprinting.Kernels() {
		for _, policy := range []sprinting.Policy{
			sprinting.Sustained, sprinting.ParallelSprint, sprinting.DVFSSprint,
		} {
			points = append(points, sprinting.GridPoint{
				Kernel: k.Name,
				Size:   sprinting.SizeA,
				Shards: 64,
				Config: sprinting.DefaultConfig(policy),
			})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sprinting.RunGrid(points, workers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineFigArchSweep reports the fig_arch sweep at increasing
// pool widths; compare ns/op across sub-benchmarks for the scaling curve.
func BenchmarkEngineFigArchSweep(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=GOMAXPROCS"
		}
		b.Run(name, func(b *testing.B) { benchEngineFigArchSweep(b, workers) })
	}
}

// BenchmarkFleetSweep measures the fleet study's shape at production
// scale: every dispatch policy over a 100-node fleet serving a 20k-request
// open-loop trace, evaluated as one engine sweep (one worker per policy).
func BenchmarkFleetSweep(b *testing.B) {
	var specs []sprinting.FleetSpec
	for _, p := range sprinting.FleetPolicies() {
		cfg := sprinting.DefaultFleetConfig(p)
		cfg.Nodes = 100
		cfg.Requests = 20000
		specs = append(specs, sprinting.FleetSpec{Config: cfg})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sprinting.RunFleetSweep(context.Background(), specs, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetPolicyExperiment regenerates the fleet_policy experiment
// tables (policies × loads × fleet sizes).
func BenchmarkFleetPolicyExperiment(b *testing.B) { benchExperiment(b, "fleet_policy") }

// BenchmarkFleetScale is the warehouse-scale regime the dispatch index,
// value-based event heap, and streaming latency histogram exist for:
// 10,000 sprint-aware nodes under rack token-permit coordination serving
// one million requests. Run with -benchmem: steady state must not
// allocate per request (the B/op and allocs/op columns are dominated by
// the per-run arenas), and one op should stay in single-digit seconds
// where the pre-index implementation took minutes of O(N) dispatch scans.
func BenchmarkFleetScale(b *testing.B) {
	cfg := sprinting.DefaultFleetConfig(sprinting.FleetSprintAware)
	cfg.Nodes = 10000
	cfg.Requests = 1_000_000
	cfg.Coordination = sprinting.RackTokenPermit
	cfg.RackSize = 16
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sprinting.RunFleet(context.Background(), sprinting.FleetSpec{Config: cfg}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetScaleDecoupled is the sequential baseline for the
// concurrent engine: round-robin dispatch (static assignment, so shards
// share no state) over the same 10k-node × 1M-request token-permit
// fleet, on the classic single loop.
func BenchmarkFleetScaleDecoupled(b *testing.B) {
	cfg := sprinting.DefaultFleetConfig(sprinting.FleetRoundRobin)
	cfg.Nodes = 10000
	cfg.Requests = 1_000_000
	cfg.Coordination = sprinting.RackTokenPermit
	cfg.RackSize = 16
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sprinting.RunFleet(context.Background(), sprinting.FleetSpec{Config: cfg}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetScaleDecoupledParallel shards the decoupled run across
// eight concurrent per-worker event loops — real goroutine parallelism
// with byte-identical output. cmd/benchjson -compare reports the
// speedup over BenchmarkFleetScaleDecoupled and can gate on it (the
// gate arms only when GOMAXPROCS ≥ 4; a single-core runner measures
// nothing but scheduling overhead).
func BenchmarkFleetScaleDecoupledParallel(b *testing.B) {
	cfg := sprinting.DefaultFleetConfig(sprinting.FleetRoundRobin)
	cfg.Nodes = 10000
	cfg.Requests = 1_000_000
	cfg.Coordination = sprinting.RackTokenPermit
	cfg.RackSize = 16
	cfg.Workers = 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sprinting.RunFleet(context.Background(), sprinting.FleetSpec{Config: cfg}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetTrace measures the flight recorder's on-path cost: a
// sprint-aware token-permit fleet with full-level tracing, top-3
// counterfactual probes, and 5 s timeline windows. Tracing forces the
// single loop and buffers the whole recording in memory, so this
// is the price of observability — compare against BenchmarkFleetTraceOff
// to isolate it.
func BenchmarkFleetTrace(b *testing.B) {
	cfg := sprinting.DefaultFleetConfig(sprinting.FleetSprintAware)
	cfg.Nodes = 1000
	cfg.Requests = 100_000
	cfg.Coordination = sprinting.RackTokenPermit
	cfg.RackSize = 16
	cfg.Trace = sprinting.TraceConfig{Level: sprinting.TraceFull, TopK: 3, WindowS: 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sprinting.RunFleet(context.Background(), sprinting.FleetSpec{Config: cfg}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetTraceDecisions is BenchmarkFleetTrace at the decisions
// level: every dispatch decision with its top-3 alternatives, the
// lifecycle events and the timeline windows, but no per-request service
// start or completion events. Its ratio to BenchmarkFleetTraceOff is the
// recorder's base cost.
func BenchmarkFleetTraceDecisions(b *testing.B) {
	cfg := sprinting.DefaultFleetConfig(sprinting.FleetSprintAware)
	cfg.Nodes = 1000
	cfg.Requests = 100_000
	cfg.Coordination = sprinting.RackTokenPermit
	cfg.RackSize = 16
	cfg.Trace = sprinting.TraceConfig{Level: sprinting.TraceDecisions, TopK: 3, WindowS: 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sprinting.RunFleet(context.Background(), sprinting.FleetSpec{Config: cfg}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetTraceOff is the paired control: the identical config
// with the recorder's level at TraceOff, so no recorder exists and its
// hooks reduce to nil checks. The delta to
// BenchmarkFleetTrace is the recorder's cost; the delta to a
// pre-recorder baseline of this benchmark is the zero-cost-when-off
// contract (the allocation half of which TestSimulateSteadyStateAllocations
// pins exactly).
func BenchmarkFleetTraceOff(b *testing.B) {
	cfg := sprinting.DefaultFleetConfig(sprinting.FleetSprintAware)
	cfg.Nodes = 1000
	cfg.Requests = 100_000
	cfg.Coordination = sprinting.RackTokenPermit
	cfg.RackSize = 16
	cfg.Trace = sprinting.TraceConfig{Level: sprinting.TraceOff, TopK: 3, WindowS: 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sprinting.RunFleet(context.Background(), sprinting.FleetSpec{Config: cfg}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetTenants measures the multi-tenant workload layer at
// scale: 16 tenant populations across four SLO classes (mixed arrival
// processes and work distributions, per-class admission buckets) under
// priority dequeue on a 100-node fleet — roughly 100k generated
// arrivals per iteration. The delta to a same-size single-population
// run is the workload layer's cost: spec-driven generation, admission,
// disciplined dequeue, and the per-class metric assembly.
func BenchmarkFleetTenants(b *testing.B) {
	cfg := sprinting.DefaultFleetConfig(sprinting.FleetSprintAware)
	cfg.Nodes = 100
	w := sprinting.FleetWorkload{
		Classes: []sprinting.WorkloadSLOClass{
			{Name: "gold", Priority: 0, TargetP99S: 1, AdmitRatePerS: 20, AdmitBurst: 40},
			{Name: "silver", Priority: 1, TargetP99S: 3},
			{Name: "bronze", Priority: 2},
			{Name: "batch", Priority: 5},
		},
		Discipline: "priority",
		DurationS:  2200,
	}
	classes := []string{"gold", "silver", "bronze", "batch"}
	processes := []sprinting.WorkloadArrival{
		{Process: "poisson", RatePerS: 2.8},
		{Process: "gamma", RatePerS: 2.8, Shape: 0.5},
		{Process: "weibull", RatePerS: 2.8, Shape: 2},
	}
	works := []sprinting.WorkloadWork{
		{Dist: "exp", MeanS: 2},
		{Dist: "lognormal", MeanS: 2, Sigma: 1},
		{Dist: "pareto", MeanS: 2, Alpha: 2.5},
		{Dist: "fixed", MeanS: 2},
	}
	for i := 0; i < 16; i++ {
		w.Tenants = append(w.Tenants, sprinting.WorkloadTenant{
			Name:    fmt.Sprintf("tenant%02d", i),
			Class:   classes[i%len(classes)],
			Arrival: processes[i%len(processes)],
			Work:    works[i%len(works)],
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sprinting.RunFleet(context.Background(), sprinting.FleetSpec{Config: cfg, Workload: &w}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRackSweep measures the rack power-domain machinery at
// production scale: every coordination policy over a 96-node fleet in
// racks of 16 (each rack provisioned for one concurrent sprinter) serving
// a 20k-request overloaded trace, evaluated as one engine sweep.
func BenchmarkRackSweep(b *testing.B) {
	var specs []sprinting.FleetSpec
	for _, c := range sprinting.RackCoordinations() {
		cfg := sprinting.DefaultFleetConfig(sprinting.FleetSprintAware)
		cfg.Nodes = 96
		cfg.Requests = 20000
		cfg.ArrivalRatePerS = 1.2 * float64(cfg.Nodes) / cfg.MeanWorkS
		cfg.Coordination = c
		cfg.RackSize = 16
		cfg.RackPowerBudgetW = sprinting.RackBudgetW(16, 1, cfg.Node)
		specs = append(specs, sprinting.FleetSpec{Config: cfg})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sprinting.RunFleetSweep(context.Background(), specs, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRackCoordinationExperiment regenerates the rack_coordination
// experiment tables (coordination × rack sizes × loads).
func BenchmarkRackCoordinationExperiment(b *testing.B) { benchExperiment(b, "rack_coordination") }

// BenchmarkFleetScenario measures the dynamic-fleet machinery at scale:
// a 1000-node fleet playing a flash-crowd scenario with ambient swings
// and failure churn — phase retargeting, churn failover, and per-phase
// accounting all on the hot path beside ordinary dispatch.
func BenchmarkFleetScenario(b *testing.B) {
	cfg := sprinting.DefaultFleetConfig(sprinting.FleetSprintAware)
	cfg.Nodes = 1000
	sc := sprinting.FleetScenario{
		BaseRatePerS: 0.9 * 1000 / 2,
		Phases: []sprinting.ScenarioPhase{
			{Name: "baseline", DurationS: 60, StartFactor: 0.7},
			{Name: "surge", DurationS: 40, StartFactor: 1.4, AmbientDeltaC: 10},
			{Name: "recovery", DurationS: 60, Shape: sprinting.ScenarioDecay, StartFactor: 1.4, EndFactor: 0.5},
		},
		Churn: sprinting.ScenarioChurn{MTBFS: 2, MeanDowntimeS: 5},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sprinting.RunFleet(context.Background(), sprinting.FleetSpec{Config: cfg, Scenario: &sc}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetScenarioHetero measures sprint-aware dispatch over a
// heterogeneous fleet — the configuration that once fell back to an
// O(N) whole-fleet rescan per arrival and now runs on per-class index
// segments. Run with -benchmem: the allocs/op column is the regression
// pin (steady state must not allocate per request, same contract as the
// homogeneous path).
func BenchmarkFleetScenarioHetero(b *testing.B) {
	cfg := sprinting.DefaultFleetConfig(sprinting.FleetSprintAware)
	cfg.Coordination = sprinting.RackTokenPermit
	cfg.RackSize = 16
	sc := sprinting.FleetScenario{
		BaseRatePerS: 0.9 * 1000 / 2,
		Phases: []sprinting.ScenarioPhase{
			{Name: "baseline", DurationS: 60, StartFactor: 0.7},
			{Name: "surge", DurationS: 40, StartFactor: 1.4},
			{Name: "recovery", DurationS: 60, Shape: sprinting.ScenarioDecay, StartFactor: 1.4, EndFactor: 0.5},
		},
		Classes: []sprinting.ScenarioNodeClass{
			{Name: "big", Count: 250, SprintWidth: 32, BudgetScale: 2, DrainScale: 2},
			{Name: "small", Count: 750},
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sprinting.RunFleet(context.Background(), sprinting.FleetSpec{Config: cfg, Scenario: &sc}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetReliability measures the request-reliability layer at
// scale: a 1000-node fleet riding out a flash crowd with gray stragglers,
// correlated rack power loss, client timeouts, and budgeted retries — the
// timeout/retry/shed handlers, stale-copy checks, and token bucket all on
// the hot path beside ordinary dispatch.
func BenchmarkFleetReliability(b *testing.B) {
	cfg := sprinting.DefaultFleetConfig(sprinting.FleetLeastLoaded)
	cfg.Nodes = 1000
	cfg.Coordination = sprinting.RackTokenPermit
	cfg.RackSize = 16
	cfg.Reliability = sprinting.FleetReliability{
		TimeoutS:        5,
		MaxRetries:      3,
		RetryBackoffS:   0.1,
		RetryBudgetPerS: 0.1 * 0.9 * 1000 / 2,
		RetryBurst:      32,
		GrayFrac:        0.1,
		GraySlowdownX:   6,
		FaultProb:       0.01,
	}
	sc := sprinting.FleetScenario{
		BaseRatePerS: 0.9 * 1000 / 2,
		Phases: []sprinting.ScenarioPhase{
			{Name: "baseline", DurationS: 60, StartFactor: 0.7},
			{Name: "surge", DurationS: 40, StartFactor: 1.4},
			{Name: "recovery", DurationS: 60, Shape: sprinting.ScenarioDecay, StartFactor: 1.4, EndFactor: 0.5},
		},
		Churn: sprinting.ScenarioChurn{MTBFS: 2, MeanDowntimeS: 5, RackMTBFS: 40, RackMeanDowntimeS: 5},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sprinting.RunFleet(context.Background(), sprinting.FleetSpec{Config: cfg, Scenario: &sc}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSprintRunSobel16 measures one full co-simulated 16-core sprint
// (machine + thermal + runtime) on the default sobel input.
func BenchmarkSprintRunSobel16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sprinting.RunKernel("sobel", sprinting.SizeB,
			sprinting.DefaultConfig(sprinting.ParallelSprint)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThermalStep measures the raw thermal-network step rate that the
// co-simulation pays every 1000 simulated cycles.
func BenchmarkThermalStep(b *testing.B) {
	stack := sprinting.DefaultThermalDesign().Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stack.Step(1e-6, 16)
	}
}

// BenchmarkActivationTransient measures one full Figure 6 PDN transient
// (abrupt schedule).
func BenchmarkActivationTransient(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sprinting.SimulateActivation(0); err != nil {
			b.Fatal(err)
		}
	}
}
