package experiments

import (
	"context"
	"fmt"

	"sprinting/internal/engine"
	"sprinting/internal/fleet"
	"sprinting/internal/table"
)

// grayFlashScenario is the reliability study's trace: steady load, a 2×
// flash-crowd step, an exponential recovery. Against gray stragglers the
// surge pushes queue delays past the client timeout, which is what
// ignites the retry storm the study measures. Durations scale with the
// experiment's input scale (floored so the storm still develops).
func grayFlashScenario(scale float64) fleet.Scenario {
	d := func(base float64) float64 {
		s := base * scale
		if s < base/4 {
			s = base / 4
		}
		return s
	}
	return fleet.Scenario{
		Phases: []fleet.Phase{
			{Name: "baseline", DurationS: d(60), StartFactor: 0.8},
			{Name: "surge", DurationS: d(40), StartFactor: 2.0},
			{Name: "recovery", DurationS: d(80), Shape: fleet.ShapeDecay, StartFactor: 2.0, EndFactor: 0.6},
		},
	}
}

// FleetReliability evaluates the request-reliability extension: the same
// gray-failure flash crowd played three ways — fault-free, with client
// timeouts and unbudgeted retries, and with the same retries capped by a
// fleet-wide retry budget. The headline — pinned by the experiment tests
// — is retry-storm metastability and its mitigation: unbudgeted retries
// amplify every timed-out request back into the overloaded queues
// (amplification beyond 2× offered load) and goodput collapses, while
// the token-bucket budget sheds the excess at the client instead,
// acting as admission control that holds goodput within a few percent
// of the fault-free run.
func FleetReliability(ctx context.Context, opt Options) ([]*table.Table, error) {
	opt = opt.withDefaults()

	sc := grayFlashScenario(opt.Scale)
	base := func() fleet.Config {
		cfg := fleet.DefaultConfig(fleet.LeastLoaded)
		cfg.Nodes = 16
		cfg.Seed = opt.Seed
		cfg.ArrivalRatePerS = 0.85 * float64(cfg.Nodes) / cfg.MeanWorkS
		return cfg
	}
	// The faulted runs share one failure mode: a fifth of the fleet gray
	// (alive, answering, 6× slow — the queue-aware dispatcher sees the
	// backlog but never a death), clients arming a 5 s timeout with up to
	// 8 exponential-backoff retries. They differ only in the budget.
	rel := fleet.Reliability{
		TimeoutS: 5, MaxRetries: 8, RetryBackoffS: 0.1,
		GrayFrac: 0.2, GraySlowdownX: 6,
	}
	variants := []struct {
		name string
		rel  fleet.Reliability
	}{
		{"fault-free", fleet.Reliability{}},
		{"unbudgeted retries", rel},
		{"budgeted retries", func() fleet.Reliability {
			r := rel
			// The classic 10%-of-offered retry budget: ~0.7 tokens/s
			// against 6.8 req/s offered, with a small burst for transients.
			r.RetryBudgetPerS = 0.1 * 0.85 * 16 / 2
			r.RetryBurst = 5
			return r
		}()},
	}

	cfgs := make([]fleet.Config, len(variants))
	for i, v := range variants {
		cfg := base()
		cfg.Reliability = v.rel
		cfgs[i] = cfg
	}
	metrics, err := engine.Map(ctx, cfgs,
		func(ctx context.Context, cfg fleet.Config) (fleet.Metrics, error) {
			return runFleet(ctx, fleet.Spec{Config: cfg, Scenario: &sc})
		}, opt.Workers)
	if err != nil {
		return nil, err
	}

	t := table.New(fmt.Sprintf("Retry storm: gray flash crowd, 16 nodes least-loaded, %d requests", metrics[0].Requests),
		"variant", "goodput (req/s)", "thr (req/s)", "p99 (s)", "completed",
		"timed out", "shed", "retries", "amplification", "wasted")
	for i, v := range variants {
		m := metrics[i]
		t.AddRow(v.name,
			table.F(m.GoodputRPS, 3), table.F(m.ThroughputRPS, 3), table.F(m.P99S, 3),
			fmt.Sprintf("%d", m.Completed),
			fmt.Sprintf("%d", m.TimedOut), fmt.Sprintf("%d", m.Shed),
			fmt.Sprintf("%d", m.Retries), table.F(m.RetryAmplification, 2),
			fmt.Sprintf("%d", m.WastedServices))
	}
	t.Caption = "unbudgeted retries feed every timeout back into the overloaded queues and goodput " +
		"collapses (metastable failure); the fleet-wide retry budget sheds the excess at the client " +
		"instead, holding goodput near the fault-free run"
	return []*table.Table{t}, nil
}
