package experiments

import (
	"context"
	"fmt"

	"sprinting/internal/engine"
	"sprinting/internal/fleet"
	"sprinting/internal/table"
)

// tenantMix is the multi-tenant study's workload: an interactive class
// with a latency objective and an admission budget sharing the fleet
// with a best-effort batch class whose requests are long and
// heavy-tailed — the mix where dequeue discipline decides who owns the
// tail. Durations scale with the experiment's input scale (floored so
// queues still build).
func tenantMix(scale float64, discipline string) fleet.WorkloadSpec {
	d := 400 * scale
	if d < 100 {
		d = 100
	}
	return fleet.WorkloadSpec{
		Classes: []fleet.SLOClass{
			{Name: "interactive", Priority: 0, TargetP99S: 2},
			{Name: "batch", Priority: 5},
		},
		Tenants: []fleet.TenantSpec{
			{Name: "search", Class: "interactive",
				Arrival: fleet.ArrivalSpec{Process: "poisson", RatePerS: 2.4},
				Work:    fleet.WorkSpec{Dist: "exp", MeanS: 1}},
			{Name: "analytics", Class: "batch",
				Arrival: fleet.ArrivalSpec{Process: "gamma", RatePerS: 1.6, Shape: 0.5},
				Work:    fleet.WorkSpec{Dist: "pareto", MeanS: 3, Alpha: 2.5}},
		},
		Discipline: discipline,
		DurationS:  d,
	}
}

// FleetTenants evaluates the multi-tenant workload extension: the same
// two-class tenant mix played under each dequeue discipline on a
// deliberately under-provisioned sprint-aware fleet. The headline —
// pinned by the experiment tests — is the priority contrast: FIFO makes
// the interactive class queue behind heavy-tailed batch work and miss
// its 2 s p99 objective, while priority dequeue serves it first, cutting
// its p99 and raising SLO attainment at the cost of the batch tail; SJF
// instead minimizes mean latency without knowing the classes.
func FleetTenants(ctx context.Context, opt Options) ([]*table.Table, error) {
	opt = opt.withDefaults()

	disciplines := []string{"fifo", "priority", "sjf"}
	base := func() fleet.Config {
		cfg := fleet.DefaultConfig(fleet.SprintAware)
		cfg.Nodes = 4
		cfg.Seed = opt.Seed
		return cfg
	}
	metrics, err := engine.Map(ctx, disciplines,
		func(ctx context.Context, disc string) (fleet.Metrics, error) {
			w := tenantMix(opt.Scale, disc)
			return runFleet(ctx, fleet.Spec{Config: base(), Workload: &w})
		}, opt.Workers)
	if err != nil {
		return nil, err
	}

	t := table.New(fmt.Sprintf("Multi-tenant SLOs: 2 classes on 4 sprint-aware nodes, %d requests, dequeue discipline contrast", metrics[0].Requests),
		"discipline", "class", "offered", "completed", "p50 (s)", "p99 (s)",
		"slo %", "goodput (req/s)", "mean (s)", "jain")
	for i, disc := range disciplines {
		m := metrics[i]
		for _, c := range m.Classes {
			slo := "-"
			if c.TargetP99S > 0 {
				slo = table.F(100*c.SLOAttainment, 1)
			}
			t.AddRow(disc, c.Name,
				fmt.Sprintf("%d", c.Offered), fmt.Sprintf("%d", c.Completed),
				table.F(c.P50S, 3), table.F(c.P99S, 3), slo,
				table.F(c.GoodputRPS, 3), table.F(m.MeanS, 3),
				table.F(m.JainFairness, 3))
		}
	}
	t.Caption = "FIFO queues interactive requests behind heavy-tailed batch work; priority dequeue " +
		"serves the urgent class first and recovers its p99 objective at the cost of the batch tail; " +
		"SJF minimizes overall mean latency without class knowledge"
	return []*table.Table{t}, nil
}
