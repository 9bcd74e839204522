// Package experiments contains one driver per table and figure of the
// paper's evaluation. Each driver regenerates the corresponding rows or
// series using the library's models and returns them as printable tables;
// the sprintbench command and the top-level benchmarks invoke them.
//
// Every driver evaluates its sweep through the internal/engine worker
// pool, so regeneration is parallel by default; Options.Workers = 1
// reproduces plain serial execution, and any worker count produces
// identical tables because point evaluations are deterministic.
package experiments

import (
	"context"
	"fmt"
	"sort"

	"sprinting/internal/core"
	"sprinting/internal/engine"
	"sprinting/internal/table"
	"sprinting/internal/workloads"
)

// Options tune experiment execution.
type Options struct {
	// Scale multiplies workload input sizes; 1 reproduces the calibrated
	// defaults, smaller values give quick approximate runs.
	Scale float64
	// Seed fixes the synthetic inputs.
	Seed int64
	// Workers bounds the engine pool evaluating a driver's sweep; <= 0
	// selects GOMAXPROCS and 1 is exactly serial. Results are identical
	// at every worker count.
	Workers int
}

// DefaultOptions returns the calibrated full-size configuration.
func DefaultOptions() Options { return Options{Scale: 1, Seed: 12345} }

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 12345
	}
	return o
}

// gridCache memoizes simulation points across drivers: Figures 10 and 11
// report the same scaling sweep, several figures share baselines, and
// repeated regenerations (CSV + table runs) hit it outright. Keys include
// scale and seed, so differently scaled runs never collide. The cache
// grows for the life of the process; long-lived embedders sweeping many
// configurations can bound it with ResetCache.
var gridCache = engine.NewCache()

// ResetCache drops every memoized simulation point. Benchmarks call it
// per iteration so they measure regeneration rather than cache lookups.
// Safe to call while drivers are running: in-flight evaluations finish
// against their old entries and later points recompute.
func ResetCache() { gridCache.Clear() }

// point assembles one engine grid point under the experiment options.
func point(kernel string, size workloads.SizeClass, opt Options, cfg core.Config, shards int) engine.Point {
	return engine.Point{
		Kernel: kernel,
		Size:   size,
		Scale:  opt.Scale,
		Seed:   opt.Seed,
		Shards: shards,
		Config: cfg,
	}
}

// runGrid evaluates a driver's point grid on the engine pool through the
// process-wide memo cache, returning results in grid order. Cancelling
// the context stops new points from starting.
func runGrid(ctx context.Context, opt Options, points []engine.Point) ([]core.Result, error) {
	return engine.RunGrid(ctx, points, engine.Options{Workers: opt.Workers, Cache: gridCache})
}

// Driver regenerates one experiment.
type Driver struct {
	// ID is the experiment identifier (fig7, table1, …).
	ID string
	// Title describes the paper artifact.
	Title string
	// Run produces the tables; the context cancels the driver's sweep.
	Run func(context.Context, Options) ([]*table.Table, error)
}

// Registry returns all experiment drivers in paper order.
func Registry() []Driver {
	return []Driver{
		{ID: "fig1", Title: "Figure 1: power density and dark silicon trends", Run: Fig1},
		{ID: "table1", Title: "Table 1: parallel kernels used in the evaluation", Run: Table1},
		{ID: "fig2", Title: "Figure 2: sprinting operation (three execution modes)", Run: Fig2},
		{ID: "fig3", Title: "Figure 3: thermal-equivalent circuit of the mobile stack", Run: Fig3},
		{ID: "fig4a", Title: "Figure 4(a): sprint initiation transient", Run: Fig4a},
		{ID: "fig4b", Title: "Figure 4(b): post-sprint cooldown", Run: Fig4b},
		{ID: "fig5", Title: "Figure 5: RLC power network model", Run: Fig5},
		{ID: "fig6", Title: "Figure 6: supply voltage vs core-activation ramp", Run: Fig6},
		{ID: "sec6", Title: "Section 6: power source feasibility", Run: Sec6},
		{ID: "fig7", Title: "Figure 7: 16-core parallel speedup vs idealized DVFS", Run: Fig7},
		{ID: "fig8", Title: "Figure 8: sobel speedup vs input size", Run: Fig8},
		{ID: "fig9", Title: "Figure 9: speedup across input sizes", Run: Fig9},
		{ID: "fig10", Title: "Figure 10: speedup vs core count", Run: Fig10},
		{ID: "fig11", Title: "Figure 11: dynamic energy vs core count", Run: Fig11},
		{ID: "ablation", Title: "Ablations: solid sink, throttle fallback, pause discipline", Run: Ablations},
		{ID: "designspace", Title: "Design space: sprint width × PCM mass (extension)", Run: DesignSpace},
		{ID: "session", Title: "Session study: bursty user activity under sprint policies (extension)", Run: Session},
		{ID: "fleet_policy", Title: "Fleet study: dispatch policies × loads × fleet sizes of sprinting nodes (extension)", Run: FleetPolicy},
		{ID: "rack_coordination", Title: "Rack study: shared-power sprint coordination × rack sizes × loads (extension)", Run: RackCoordination},
		{ID: "fleet_scenarios", Title: "Scenario study: flash crowds × dispatch × coordination, per phase (extension)", Run: FleetScenarios},
		{ID: "fleet_reliability", Title: "Reliability study: retry storms vs retry budgets under gray failures (extension)", Run: FleetReliability},
		{ID: "fleet_tenants", Title: "Tenant study: multi-tenant SLO classes under dequeue disciplines (extension)", Run: FleetTenants},
	}
}

// ByID returns the driver for an experiment id.
func ByID(id string) (Driver, error) {
	ids := []string{}
	for _, d := range Registry() {
		if d.ID == id {
			return d, nil
		}
		ids = append(ids, d.ID)
	}
	sort.Strings(ids)
	return Driver{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, ids)
}
