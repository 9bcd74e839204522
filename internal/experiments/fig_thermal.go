package experiments

import (
	"context"
	"fmt"
	"math"

	"sprinting/internal/engine"
	"sprinting/internal/materials"
	"sprinting/internal/table"
	"sprinting/internal/thermal"
)

// Fig2 regenerates Figure 2: the three execution modes — sustained, sprint
// without phase change, and PCM-augmented sprint — completing a fixed
// computation, with the milestones the figure's three rows illustrate
// (cores active, cumulative computation, temperature). The three mode
// transients run concurrently on the engine pool; each task builds its own
// stack so no thermal state is shared.
func Fig2(ctx context.Context, opt Options) ([]*table.Table, error) {
	const (
		cores     = 16
		corePower = 1.0 // W per active core
		workUnits = 10.0e9
		unitRate  = 1e9 // compute units per second per core
		dt        = 1e-4
		horizon   = 30.0
	)
	cfg := thermal.DefaultStackConfig()

	type mode struct {
		name  string
		build func() *thermal.Stack
		wide  bool // sprint with all cores?
	}
	modes := []mode{
		{name: "(a) sustained (1 core)", build: cfg.Build, wide: false},
		// (b) sprint without phase change: same stack geometry with an
		// equal-mass copper block in place of the PCM.
		{name: "(b) sprint, no PCM", build: func() *thermal.Stack {
			return thermal.SolidSinkStack(cfg, materials.Copper, cfg.PCMMassG)
		}, wide: true},
		{name: "(c) sprint + PCM", build: cfg.Build, wide: true},
	}

	type milestones struct {
		done     float64
		tOne     float64
		peak     float64
		inSprint float64
	}
	results, err := engine.Map(ctx, modes,
		func(_ context.Context, m mode) (milestones, error) {
			var (
				stack     = m.build()
				remaining = workUnits
				sprinting = m.wide
				out       milestones
				tNow      float64
			)
			for tNow < horizon && remaining > 0 {
				active := 1.0
				if sprinting {
					active = cores
				}
				stack.Step(dt, active*corePower)
				if tj := stack.JunctionC(); tj > out.peak {
					out.peak = tj
				}
				did := active * unitRate * dt
				if did > remaining {
					did = remaining
				}
				remaining -= did
				if sprinting {
					out.inSprint += did
				}
				tNow += dt
				if sprinting && stack.OverLimit() {
					sprinting = false
					out.tOne = tNow
				}
			}
			out.done = tNow
			return out, nil
		}, opt.Workers)
	if err != nil {
		return nil, err
	}

	t := table.New("Figure 2: execution modes completing a fixed task",
		"mode", "t_done (s)", "sprint end t_one (s)", "peak junction (C)", "work done in sprint (%)")
	for i, m := range modes {
		r := results[i]
		oneStr := "-"
		if r.tOne > 0 {
			oneStr = table.F(r.tOne, 3)
		}
		t.AddRow(m.name, table.F(r.done, 3), oneStr, table.F(r.peak, 3),
			table.F(100*r.inSprint/workUnits, 3))
	}
	t.Caption = "fixed 10 G-unit task; the PCM-augmented sprint completes far more work before t_one"
	return []*table.Table{t}, nil
}

// Fig3 renders the Figure 3(c/d) PCM-augmented thermal stack as its
// thermal-equivalent circuit, with the figure's annotated quantities.
func Fig3(context.Context, Options) ([]*table.Table, error) {
	cfg := thermal.DefaultStackConfig()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := table.New("Figure 3: thermal-equivalent circuit (PCM-augmented stack)",
		"element", "value")
	for _, row := range cfg.Summary() {
		t.AddRow(row[0], row[1])
	}
	t.Caption = "annotations per Fig 3(d): (1) PCM capacity sets sprint compute, " +
		"(2) resistance into the PCM bounds sprint power, (3) PCM→ambient path governs cooldown"
	return []*table.Table{t}, nil
}

// Fig4a regenerates Figure 4(a): the 16 W sprint-initiation transient on
// the 1 W-TDP stack.
func Fig4a(context.Context, Options) ([]*table.Table, error) {
	cfg := thermal.DefaultStackConfig()
	res := thermal.SimulateSprint(cfg, 16, 1e-4, 5)
	t := table.New("Figure 4(a): sprint initiation (16 W on 1 W TDP, 150 mg PCM)",
		"quantity", "measured", "paper")
	t.AddRow("melt start t_melt (s)", orNever(res.MeltStartS), "early rise then plateau")
	t.AddRow("melt complete t_melted (s)", orNever(res.MeltEndS), "-")
	t.AddRow("plateau duration (s)", orNever(res.PlateauS), "≈0.95")
	t.AddRow("sprint duration t_one (s)", table.F(res.SprintEndS, 3), "a little over 1")
	t.AddRow("peak junction (C)", table.F(res.MaxJunctionC, 3), "70 (Tjmax)")
	plateauC := "-" // no plateau to sample without both melt times
	if !math.IsNaN(res.PlateauS) {
		plateauC = table.F(res.Junction.ValueAt((res.MeltStartS+res.MeltEndS)/2), 3)
	}
	t.AddRow("plateau junction (C)", plateauC, "Tmelt + P·R ≈ 65.6")
	return []*table.Table{t}, nil
}

// Fig4b regenerates Figure 4(b): the post-sprint cooldown.
func Fig4b(context.Context, Options) ([]*table.Table, error) {
	cfg := thermal.DefaultStackConfig()
	res := thermal.SimulateCooldown(cfg, 16, 0, 1e-3, 5, 120, 3)
	t := table.New("Figure 4(b): post-sprint cooldown", "quantity", "measured", "paper")
	t.AddRow("refreeze start t_freeze (s)", orNever(res.FreezeStartS), "shortly after idle")
	t.AddRow("refreeze complete t_frozen (s)", orNever(res.FreezeEndS), "≈ sprint × power ratio")
	near := "-"
	if res.NearOK {
		near = table.F(res.NearAmbientS, 3)
	}
	t.AddRow("near ambient (within 3C) (s)", near, "≈24")
	t.AddRow("rule-of-thumb cooldown (s)",
		table.F(thermal.ApproxCooldownS(1.2, 16, 1), 3), "sprint × P_sprint/TDP")
	return []*table.Table{t}, nil
}

// orNever formats a transient's event time, or "never" for the NaN the
// thermal model reports when the event does not happen.
func orNever(s float64) string {
	if math.IsNaN(s) {
		return "never"
	}
	return table.F(s, 3)
}

// fmtMilli formats seconds as milliseconds.
func fmtMilli(s float64) string { return fmt.Sprintf("%.2f ms", s*1e3) }
