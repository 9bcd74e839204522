// Fleet planner — the datacenter capacity-planning question the fleet
// simulator answers: given a target request rate and a p99 latency SLO,
// how many sprint-capable nodes does each dispatch policy need? Thermal-
// aware dispatch turns sprint headroom into tail latency, so it meets the
// SLO with fewer nodes than a state-blind dispatcher — sprinting as a
// capacity multiplier, not just a responsiveness trick.
//
// The second question is electrical: those nodes share a provisioned rack
// circuit, so the planner also compares sprint-coordination policies on a
// tightly provisioned rack — uncoordinated sprinting trips the branch
// breaker under overload, token permits never do, and probabilistic
// admission gambles the ultracap buffer in between.
//
// The third question is dynamic — the one the paper actually motivates:
// demand is never stationary. The planner plays a flash-crowd scenario
// (steady load, a sudden surge, an exponential recovery, with node
// failure churn throughout) against the candidate dispatch policies and
// reads the surge phase's p99 — the number an on-call engineer lives by.
package main

import (
	"context"
	"fmt"
	"log"

	"sprinting"
)

// fleetMetrics runs one spec for a sweep; the planner reads metrics
// only, so the (untraced) run's nil recording is dropped.
func fleetMetrics(ctx context.Context, spec sprinting.FleetSpec) (sprinting.FleetMetrics, error) {
	m, _, err := sprinting.RunFleet(ctx, spec)
	return m, err
}

func main() {
	ctx := context.Background()
	const (
		rateRPS   = 6.0  // offered fleet-wide load
		meanWorkS = 2.0  // mean single-core seconds per request
		sloP99S   = 0.75 // the tail budget a product team might set
	)
	fleetSizes := []int{8, 10, 12, 14, 16, 20}
	policies := []sprinting.FleetPolicy{sprinting.FleetRoundRobin, sprinting.FleetSprintAware}

	fmt.Printf("demand: %.1f req/s of %.1f s bursts; SLO: p99 ≤ %.2f s\n\n", rateRPS, meanWorkS, sloP99S)
	fmt.Printf("%-8s", "nodes")
	for _, p := range policies {
		fmt.Printf(" %16s", p.String()+" p99")
	}
	fmt.Println()

	smallest := map[sprinting.FleetPolicy]int{}
	for _, nodes := range fleetSizes {
		var specs []sprinting.FleetSpec
		for _, p := range policies {
			cfg := sprinting.DefaultFleetConfig(p)
			cfg.Nodes = nodes
			cfg.Requests = 4000
			cfg.ArrivalRatePerS = rateRPS
			cfg.MeanWorkS = meanWorkS
			specs = append(specs, sprinting.FleetSpec{Config: cfg})
		}
		metrics, err := sprinting.Map(ctx, specs, fleetMetrics, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8d", nodes)
		for i, p := range policies {
			marker := " "
			if metrics[i].P99S <= sloP99S {
				marker = "✓"
				if _, ok := smallest[p]; !ok {
					smallest[p] = nodes
				}
			}
			fmt.Printf(" %13.3f %s", metrics[i].P99S, marker)
		}
		fmt.Println()
	}

	fmt.Println()
	for _, p := range policies {
		if n, ok := smallest[p]; ok {
			fmt.Printf("%-14s meets the SLO with %d nodes\n", p.String(), n)
		} else {
			fmt.Printf("%-14s never meets the SLO in this range\n", p.String())
		}
	}

	// Rack power domains: put 16 of those nodes on one branch circuit
	// provisioned for a single concurrent sprinter and overload them — the
	// regime where coordination policy decides whether the breaker trips.
	const rackNodes = 16
	fmt.Printf("\nrack check: %d nodes on one circuit, overloaded 20%% past sustained capacity\n\n", rackNodes)
	fmt.Printf("%-14s %9s %7s %13s %12s\n", "coordination", "p99 (s)", "trips", "throttled (s)", "denied %")
	var rackSpecs []sprinting.FleetSpec
	for _, c := range sprinting.RackCoordinations() {
		cfg := sprinting.DefaultFleetConfig(sprinting.FleetSprintAware)
		cfg.Nodes = rackNodes
		cfg.Requests = 4000
		cfg.MeanWorkS = meanWorkS
		cfg.ArrivalRatePerS = 1.2 * float64(rackNodes) / meanWorkS
		cfg.Coordination = c
		cfg.RackSize = rackNodes
		cfg.RackPowerBudgetW = sprinting.RackBudgetW(rackNodes, 1, cfg.Node)
		rackSpecs = append(rackSpecs, sprinting.FleetSpec{Config: cfg})
	}
	rackMetrics, err := sprinting.Map(ctx, rackSpecs, fleetMetrics, 0)
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range rackMetrics {
		fmt.Printf("%-14s %9.3f %7d %13.1f %12.1f\n",
			m.Coordination.String(), m.P99S, m.BreakerTrips, m.RackThrottledS, 100*m.PermitDenialRate)
	}
	fmt.Println("\nuncoordinated sprints trip the breaker and pay in tail latency; permits shift the budget in time instead")

	// Flash-crowd check: a day in the life of the fleet — steady traffic,
	// a sudden surge past sustained capacity, a decaying recovery, nodes
	// failing and rejoining all the while. The per-phase breakdown shows
	// which dispatcher rides the burst on thermal headroom instead of
	// drowning in it.
	scenario := sprinting.FleetScenario{
		BaseRatePerS: rateRPS,
		Phases: []sprinting.ScenarioPhase{
			{Name: "steady", DurationS: 80, StartFactor: 0.8},
			{Name: "surge", DurationS: 60, StartFactor: 1.5},
			{Name: "recovery", DurationS: 80, Shape: sprinting.ScenarioDecay, StartFactor: 1.5, EndFactor: 0.6},
		},
		Churn: sprinting.ScenarioChurn{MTBFS: 40, MeanDowntimeS: 8},
	}
	fmt.Printf("\nflash-crowd check: %d nodes, %.1f→%.1f req/s surge with node churn\n\n", 16, 0.8*rateRPS, 1.5*rateRPS)
	fmt.Printf("%-14s %11s %11s %13s %9s %8s\n", "policy", "steady p99", "surge p99", "recovery p99", "failures", "redisp")
	var scs []sprinting.FleetSpec
	for _, p := range policies {
		cfg := sprinting.DefaultFleetConfig(p)
		cfg.Nodes = 16
		cfg.MeanWorkS = meanWorkS
		scs = append(scs, sprinting.FleetSpec{Config: cfg, Scenario: &scenario})
	}
	scenMetrics, err := sprinting.Map(ctx, scs, fleetMetrics, 0)
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range scenMetrics {
		fmt.Printf("%-14s %11.3f %11.3f %13.3f %9d %8d\n",
			m.Policy.String(), m.Phases[0].P99S, m.Phases[1].P99S, m.Phases[2].P99S,
			m.NodeFailures, m.Redispatches)
	}
	fmt.Println("\nthe surge is where dispatch earns its keep: thermal-aware routing holds the flash crowd's tail")
}
