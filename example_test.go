package sprinting_test

import (
	"context"
	"fmt"

	"sprinting"
)

// Example demonstrates the headline result: a parallel sprint completes a
// vision burst an order of magnitude faster than sustained operation at
// near-parity energy.
func Example() {
	base, err := sprinting.RunKernel("sobel", sprinting.SizeA,
		sprinting.DefaultConfig(sprinting.Sustained))
	if err != nil {
		panic(err)
	}
	sprint, err := sprinting.RunKernel("sobel", sprinting.SizeA,
		sprinting.DefaultConfig(sprinting.ParallelSprint))
	if err != nil {
		panic(err)
	}
	fmt.Println("order of magnitude faster:", sprint.Speedup(base) > 8)
	fmt.Println("energy within 25% of sequential:", sprint.NormalizedEnergy(base) < 1.25)
	fmt.Println("completed within the sprint budget:", !sprint.SprintExhausted)
	// Output:
	// order of magnitude faster: true
	// energy within 25% of sequential: true
	// completed within the sprint budget: true
}

// ExampleRunGrid evaluates a batch of simulation points on the concurrent
// engine: the full policy comparison for one kernel as a single grid.
// Results come back in point order whatever the pool width, and any
// worker count — including the exactly serial 1 — yields identical values.
func ExampleRunGrid() {
	points := []sprinting.GridPoint{
		{Kernel: "sobel", Size: sprinting.SizeA, Shards: 64,
			Config: sprinting.DefaultConfig(sprinting.Sustained)},
		{Kernel: "sobel", Size: sprinting.SizeA, Shards: 64,
			Config: sprinting.DefaultConfig(sprinting.ParallelSprint)},
		{Kernel: "sobel", Size: sprinting.SizeA, Shards: 64,
			Config: sprinting.DefaultConfig(sprinting.DVFSSprint)},
	}
	parallel, err := sprinting.RunGrid(points, 0) // 0 = GOMAXPROCS workers
	if err != nil {
		panic(err)
	}
	serial, err := sprinting.RunGrid(points, 1)
	if err != nil {
		panic(err)
	}
	base := parallel[0]
	fmt.Println("parallel sprint an order of magnitude faster:", parallel[1].Speedup(base) > 8)
	fmt.Println("dvfs sprint caps near cube-root boost:", parallel[2].Speedup(base) < 3)
	identical := true
	for i := range points {
		identical = identical &&
			serial[i].ElapsedS == parallel[i].ElapsedS &&
			serial[i].EnergyJ == parallel[i].EnergyJ
	}
	fmt.Println("serial run identical:", identical)
	// Output:
	// parallel sprint an order of magnitude faster: true
	// dvfs sprint caps near cube-root boost: true
	// serial run identical: true
}

// ExampleSimulateActivation reproduces the §5 conclusion: abrupt activation
// of 16 cores is electrically unsafe, a 128 µs ramp is fine.
func ExampleSimulateActivation() {
	abrupt, err := sprinting.SimulateActivation(0)
	if err != nil {
		panic(err)
	}
	slow, err := sprinting.SimulateActivation(128e-6)
	if err != nil {
		panic(err)
	}
	fmt.Println("abrupt within tolerance:", abrupt.WithinTolerance)
	fmt.Println("128us ramp within tolerance:", slow.WithinTolerance)
	// Output:
	// abrupt within tolerance: false
	// 128us ramp within tolerance: true
}

// ExampleNewGovernor shows the §7 budget manager pacing repeated sprints.
func ExampleNewGovernor() {
	g := sprinting.NewGovernor()
	fmt.Println("fresh budget allows 16W x 1s:", g.CanSprint(16, 1))
	g.RecordSprint(16, 1)
	fmt.Println("immediately again:", g.CanSprint(16, 1))
	g.Idle(g.TimeToFullS())
	fmt.Println("after cooling:", g.CanSprint(16, 1))
	// Output:
	// fresh budget allows 16W x 1s: true
	// immediately again: false
	// after cooling: true
}

// ExampleSimulateSprintThermals reproduces the Figure 4(a) thermal shape:
// the PCM pins the junction near its melting point for about a second.
func ExampleSimulateSprintThermals() {
	res := sprinting.SimulateSprintThermals(sprinting.DefaultThermalDesign(), 16)
	fmt.Println("plateau lasts most of a second:", res.PlateauS > 0.8 && res.PlateauS < 1.2)
	fmt.Println("sprint a little over a second:", res.SprintEndS > 1.0 && res.SprintEndS < 1.6)
	// Output:
	// plateau lasts most of a second: true
	// sprint a little over a second: true
}

// ExampleRunFleet runs the datacenter fleet simulation: dispatch
// policies over governor-managed sprint-capable nodes near saturation,
// where routing on thermal headroom holds the latency tail down.
func ExampleRunFleet() {
	load := func(p sprinting.FleetPolicy) sprinting.FleetConfig {
		cfg := sprinting.DefaultFleetConfig(p)
		cfg.Nodes = 8
		cfg.Requests = 4000
		cfg.Seed = 1
		cfg.ArrivalRatePerS = 0.95 * float64(cfg.Nodes) / cfg.MeanWorkS
		return cfg
	}
	ctx := context.Background()
	rr, _, err := sprinting.RunFleet(ctx, sprinting.FleetSpec{Config: load(sprinting.FleetRoundRobin)})
	if err != nil {
		panic(err)
	}
	sa, _, err := sprinting.RunFleet(ctx, sprinting.FleetSpec{Config: load(sprinting.FleetSprintAware)})
	if err != nil {
		panic(err)
	}
	fmt.Println("every request served:", sa.Completed == 4000 && sa.Dropped == 0)
	fmt.Println("sprint-aware beats round-robin p99:", sa.P99S < rr.P99S)
	fmt.Println("thermal-headroom routing denies no sprints:", sa.SprintDenialRate == 0)
	// Output:
	// every request served: true
	// sprint-aware beats round-robin p99: true
	// thermal-headroom routing denies no sprints: true
}

// ExampleRunFleet_trace attaches the flight recorder to a flash
// crowd: the trace carries every dispatch decision with its winning key
// and rejected alternatives, phase-annotated timeline samples, and —
// because each alternative is probed against the node's actual future —
// the counterfactual regret of every completed decision.
func ExampleRunFleet_trace() {
	cfg := sprinting.DefaultFleetConfig(sprinting.FleetSprintAware)
	cfg.Nodes = 8
	cfg.Seed = 1
	cfg.Trace = sprinting.TraceConfig{Level: sprinting.TraceDecisions, TopK: 3, WindowS: 10}
	spec := sprinting.FleetSpec{
		Config: cfg,
		Scenario: &sprinting.FleetScenario{
			BaseRatePerS: 0.9 * float64(cfg.Nodes) / cfg.MeanWorkS,
			Phases: []sprinting.ScenarioPhase{
				{Name: "baseline", DurationS: 40, StartFactor: 0.7},
				{Name: "surge", DurationS: 30, StartFactor: 3},
			},
		},
	}
	ctx := context.Background()
	m, tr, err := sprinting.RunFleet(ctx, spec)
	if err != nil {
		panic(err)
	}
	spec.Config.Trace.Level = sprinting.TraceOff
	plain, _, err := sprinting.RunFleet(ctx, spec)
	if err != nil {
		panic(err)
	}
	fmt.Println("recorder observes, never steers:",
		m.Completed == plain.Completed && m.P99S == plain.P99S)
	fmt.Println("every arrival's dispatch recorded:", len(tr.Decisions()) >= m.Requests)
	fmt.Println("surge annotated on the timeline:", len(tr.Events("phase-start")) == 1)
	top := tr.TopRegret(1)
	fmt.Println("worst regret measured against the alternative's real future:",
		len(top) == 1 && top[0].RegretS > 0)
	// Output:
	// recorder observes, never steers: true
	// every arrival's dispatch recorded: true
	// surge annotated on the timeline: true
	// worst regret measured against the alternative's real future: true
}

// ExampleEvaluateSession compares service policies on a bursty trace.
func ExampleEvaluateSession() {
	bursts := sprinting.GenerateSession(10, 30, 2, 42)
	sustained := sprinting.EvaluateSession(bursts, sprinting.SessionSustained)
	governed := sprinting.EvaluateSession(bursts, sprinting.SessionGoverned)
	fmt.Println("sprinting much more responsive:",
		governed.MeanResponseS < sustained.MeanResponseS/8)
	fmt.Println("zero thermal violations:", governed.ViolationJ == 0)
	// Output:
	// sprinting much more responsive: true
	// zero thermal violations: true
}
