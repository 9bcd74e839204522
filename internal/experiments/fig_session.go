package experiments

import (
	"context"
	"fmt"

	"sprinting/internal/engine"
	"sprinting/internal/session"
	"sprinting/internal/table"
)

// Session evaluates the §1 interactive scenario at session granularity:
// traces of bursty user activity served under sustained, governed-sprint,
// and unmanaged-sprint policies. It extends the paper's single-burst
// evaluation to the repeated-sprint pacing question §3 raises (sustained
// performance stays TDP-bound; sprinting compresses each response). The
// trace × policy cross-product fans out on the engine pool.
func Session(ctx context.Context, opt Options) ([]*table.Table, error) {
	opt = opt.withDefaults()
	cfg := session.DefaultConfig()

	traces := []struct {
		name     string
		meanGapS float64
		workS    float64
	}{
		{"sparse (gap 40 s, work 2 s)", 40, 2},
		{"moderate (gap 10 s, work 2 s)", 10, 2},
		{"dense (gap 2 s, work 4 s)", 2, 4},
	}
	policies := []session.Policy{
		session.SustainedPolicy, session.GovernedSprint, session.UnmanagedSprint,
	}

	type cell struct {
		bursts []session.Burst
		policy session.Policy
	}
	var cells []cell
	for _, tr := range traces {
		bursts := session.GenerateBursts(24, tr.meanGapS, tr.workS, opt.Seed)
		for _, p := range policies {
			cells = append(cells, cell{bursts: bursts, policy: p})
		}
	}
	metrics, err := engine.Map(ctx, cells,
		func(_ context.Context, c cell) (session.Metrics, error) {
			// Evaluate only reads the shared trace, so policies for one
			// trace can score it concurrently.
			return session.Evaluate(c.bursts, c.policy, cfg), nil
		}, opt.Workers)
	if err != nil {
		return nil, err
	}

	out := []*table.Table{}
	for ti, tr := range traces {
		t := table.New(fmt.Sprintf("Session: %s", tr.name),
			"policy", "mean resp (s)", "p95 resp (s)", "full-intensity %", "violation (J)")
		for pi, p := range policies {
			m := metrics[ti*len(policies)+pi]
			t.AddRow(p.String(),
				table.F(m.MeanResponseS, 3), table.F(m.P95ResponseS, 3),
				table.F(m.FullIntensityPct, 3), table.F(m.ViolationJ, 3))
		}
		t.Caption = "governed sprinting beats sustained with zero budget violations; unmanaged sprinting is faster only by violating the budget"
		out = append(out, t)
	}
	return out, nil
}
