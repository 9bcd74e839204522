package experiments

import (
	"context"
	"fmt"

	"sprinting/internal/engine"
	"sprinting/internal/powergrid"
	"sprinting/internal/table"
)

// simulateSchedules runs the PDN transient for each schedule on the engine
// pool, returning results in schedule order.
func simulateSchedules(ctx context.Context, opt Options, schedules []powergrid.Schedule) ([]*powergrid.Result, error) {
	cfg := powergrid.DefaultConfig()
	return engine.Map(ctx, schedules,
		func(_ context.Context, sched powergrid.Schedule) (*powergrid.Result, error) {
			return powergrid.Simulate(cfg, sched, powergrid.DefaultSimOptions(sched))
		}, opt.Workers)
}

// Fig6 regenerates Figure 6: supply-voltage integrity for the three
// core-activation schedules — abrupt (a), 1.28 µs linear ramp (b), and
// 128 µs linear ramp (c) — plus the §5 published scalars. The three
// transients run concurrently on the engine pool.
func Fig6(ctx context.Context, opt Options) ([]*table.Table, error) {
	schedules := []powergrid.Schedule{
		powergrid.Abrupt(2e-6),
		powergrid.LinearRamp(2e-6, 1.28e-6),
		powergrid.LinearRamp(2e-6, 128e-6),
	}
	results, err := simulateSchedules(ctx, opt, schedules)
	if err != nil {
		return nil, err
	}
	t := table.New("Figure 6: supply voltage vs activation schedule",
		"schedule", "min V", "settled V", "max deviation", "within 2%?", "settle (µs)")
	for i, sched := range schedules {
		res := results[i]
		t.AddRow(sched.Name,
			fmt.Sprintf("%.4f", res.MinV),
			fmt.Sprintf("%.4f", res.FinalV),
			fmt.Sprintf("%.2f%%", res.MaxDeviationFrac*100),
			fmt.Sprintf("%v", res.WithinTolerance),
			table.F(res.SettleS*1e6, 3))
	}
	t.Caption = "paper: abrupt dips to 1.171 V (97.5% of nominal) and fails; " +
		"1.28 µs still fails; 128 µs stays within tolerance settling ≈10 mV low"
	return []*table.Table{t}, nil
}
