package experiments

import (
	"context"
	"fmt"

	"sprinting/internal/engine"
	"sprinting/internal/fleet"
	"sprinting/internal/table"
)

// FleetPolicy evaluates the datacenter extension: dispatch policies ×
// offered loads × fleet sizes for sprint-capable nodes serving open-loop
// traffic (the production-scale setting the ROADMAP's north star names,
// cf. Porto et al.'s datacenter sprinting and competitive-parallel
// scheduling). Each cell is one deterministic discrete-event simulation,
// and the whole grid fans out on the engine pool like every other
// experiment, so tables are identical at every worker count.
func FleetPolicy(ctx context.Context, opt Options) ([]*table.Table, error) {
	opt = opt.withDefaults()

	fleetSizes := []int{4, 16}
	// Offered load as a fraction of the fleet's sustained service capacity
	// (Nodes / MeanWorkS requests per second): comfortable, near-saturated,
	// and overloaded.
	loads := []float64{0.6, 0.9, 1.05}
	policies := fleet.Policies()

	requests := int(2000 * opt.Scale)
	if requests < 200 {
		requests = 200
	}

	var cells []fleet.Config
	for _, nodes := range fleetSizes {
		for _, load := range loads {
			for _, p := range policies {
				cfg := fleet.DefaultConfig(p)
				cfg.Nodes = nodes
				cfg.Requests = requests
				cfg.Seed = opt.Seed
				cfg.ArrivalRatePerS = load * float64(nodes) / cfg.MeanWorkS
				cells = append(cells, cfg)
			}
		}
	}
	metrics, err := engine.Map(ctx, cells,
		func(ctx context.Context, cfg fleet.Config) (fleet.Metrics, error) {
			return runFleet(ctx, fleet.Spec{Config: cfg})
		}, opt.Workers)
	if err != nil {
		return nil, err
	}

	out := []*table.Table{}
	i := 0
	for _, nodes := range fleetSizes {
		t := table.New(fmt.Sprintf("Fleet study: %d sprint-capable nodes, %d requests", nodes, requests),
			"load", "policy", "thr (req/s)", "p50 (s)", "p99 (s)", "p999 (s)",
			"denied %", "dropped", "J/req")
		for _, load := range loads {
			for range policies {
				m := metrics[i]
				i++
				t.AddRow(fmt.Sprintf("%.0f%%", load*100), m.Policy.String(),
					table.F(m.ThroughputRPS, 3),
					table.F(m.P50S, 3), table.F(m.P99S, 3), table.F(m.P999S, 3),
					table.F(100*m.SprintDenialRate, 3),
					fmt.Sprintf("%d", m.Dropped),
					table.F(m.EnergyPerRequestJ, 3))
			}
		}
		t.Caption = "sprint-aware dispatch routes on thermal headroom and holds the p99 tail down; " +
			"hedging buys tail latency with duplicated energy"
		out = append(out, t)
	}
	return out, nil
}

// runFleet is fleet.Run for a sweep point; sweep points never trace.
func runFleet(ctx context.Context, spec fleet.Spec) (fleet.Metrics, error) {
	m, _, err := fleet.Run(ctx, spec)
	return m, err
}
