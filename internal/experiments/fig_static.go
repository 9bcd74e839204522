package experiments

import (
	"context"
	"fmt"

	"sprinting/internal/engine"
	"sprinting/internal/powergrid"
	"sprinting/internal/powersource"
	"sprinting/internal/scaling"
	"sprinting/internal/table"
	"sprinting/internal/workloads"
)

// Fig1 regenerates Figure 1: normalized power density (a) and percent dark
// silicon (b) across process nodes under the three scaling scenarios,
// projecting the scenarios concurrently on the engine pool.
func Fig1(ctx context.Context, opt Options) ([]*table.Table, error) {
	scenarios := scaling.Scenarios()

	pd := table.New("Figure 1(a): normalized power density", "process (nm)")
	dark := table.New("Figure 1(b): percent dark silicon", "process (nm)")
	for _, s := range scenarios {
		pd.Header = append(pd.Header, s.Name)
		dark.Header = append(dark.Header, s.Name)
	}
	type projection struct {
		densities []float64
		darks     []float64
	}
	proj, err := engine.Map(ctx, scenarios,
		func(_ context.Context, s scaling.Scenario) (projection, error) {
			if err := s.Validate(); err != nil {
				return projection{}, err
			}
			return projection{densities: s.PowerDensity(), darks: s.DarkSiliconPct()}, nil
		}, opt.Workers)
	if err != nil {
		return nil, err
	}
	for n, node := range scaling.Nodes {
		rowPd := []string{fmt.Sprintf("%d", node)}
		rowDark := []string{fmt.Sprintf("%d", node)}
		for i := range scenarios {
			rowPd = append(rowPd, table.F(proj[i].densities[n], 3))
			rowDark = append(rowDark, table.F(proj[i].darks[n], 3))
		}
		pd.AddRow(rowPd...)
		dark.AddRow(rowDark...)
	}
	pd.Caption = "normalized to 45 nm; paper Fig 1(a) spans 1–16×"
	dark.Caption = "fixed area and power budget; paper Fig 1(b) reaches ≈80–90% by 6–8 nm"

	// §2's supporting evidence: mobile SoCs have ~3× less area than a
	// desktop part but an order of magnitude lower TDP.
	chips := table.New("Section 2: die area vs TDP (mobile utilization wall)",
		"chip", "area (mm²)", "TDP (W)", "W/mm²")
	for _, c := range scaling.ReferenceChips() {
		chips.AddRowf(c.Name, c.AreaMm2, c.TDPW, c.TDPW/c.AreaMm2)
	}
	return []*table.Table{pd, dark, chips}, nil
}

// Table1 regenerates Table 1: the kernel inventory.
func Table1(context.Context, Options) ([]*table.Table, error) {
	t := table.New("Table 1: parallel kernels used in the evaluation",
		"kernel", "description", "origin", "input sizes")
	for _, k := range workloads.All() {
		sizes := ""
		for i, s := range k.Sizes {
			if i > 0 {
				sizes += ","
			}
			sizes += string(s)
		}
		t.AddRow(k.Name, k.Description, k.Origin, sizes)
	}
	return []*table.Table{t}, nil
}

// Fig5 renders the Figure 5 PDN netlist summary.
func Fig5(context.Context, Options) ([]*table.Table, error) {
	cfg := powergrid.DefaultConfig()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := table.New("Figure 5: RLC power network model", "element", "value")
	for _, row := range cfg.NetlistSummary() {
		t.AddRow(row[0], row[1])
	}
	t.Caption = fmt.Sprintf("estimated full-load resistive droop %.1f mV at %.1f A",
		cfg.EstimatedDroopV()*1e3, cfg.TotalSupplyCurrentA())
	return []*table.Table{t}, nil
}

// Sec6 regenerates the Section 6 power-source feasibility analysis.
func Sec6(context.Context, Options) ([]*table.Table, error) {
	sources := table.New("Section 6: power sources",
		"source", "max power (W)", "16W sprint alone?", "mass (g)", "note")
	phone := powersource.PhoneLiIon
	lipo := powersource.DualskyLiPo
	cap := powersource.NesscapUltracap
	sources.AddRow(phone.Name, table.F(phone.MaxPowerW(), 3),
		fmt.Sprintf("%v (max %d 1W cores)", phone.CanSupply(16), phone.MaxSprintCores(1)),
		table.F(phone.MassG, 3), "thermal limit ≈ 10 W burst")
	sources.AddRow(lipo.Name, table.F(lipo.MaxPowerW(), 3),
		fmt.Sprintf("%v", lipo.CanSupply(16)), table.F(lipo.MassG, 3), "high-discharge pack")
	sources.AddRow(cap.Name, table.F(cap.MaxPowerW(), 3), "with battery",
		table.F(cap.MassG, 3),
		fmt.Sprintf("stores %.0f J (½CV²; paper quotes CV²=%.0f J), leak %.1f J/day",
			cap.StoredEnergyJ(), cap.StoredEnergyJ()*2, cap.LeakageEnergyJPerDay()))

	hybrid := powersource.NewHybridSupply()
	verdicts := table.New("Hybrid battery+ultracapacitor verdicts",
		"demand", "battery share (W)", "ultracap deficit (W)", "deficit energy (J)", "feasible", "reason")
	// Five closed-form evaluations — too cheap to be worth the pool.
	for _, d := range []powersource.SprintDemand{
		{PowerW: 1, DurationS: 10, RailV: 1},
		{PowerW: 10, DurationS: 1, RailV: 1},
		{PowerW: 16, DurationS: 1, RailV: 1},
		{PowerW: 32, DurationS: 1, RailV: 1},
		{PowerW: 16, DurationS: 30, RailV: 1},
	} {
		r := hybrid.Evaluate(d)
		verdicts.AddRow(
			fmt.Sprintf("%.0fW × %.0fs", d.PowerW, d.DurationS),
			table.F(r.BatteryPowerW, 3), table.F(r.DeficitW, 3),
			table.F(r.DeficitEnergyJ, 3), fmt.Sprintf("%v", r.Feasible), r.Reason)
	}

	pins := table.New("Package pin budget (16 A at 1 V, 100 mA/pin)",
		"quantity", "value")
	b := powersource.PinsForSprint(16, 1.0, 0.1)
	pins.AddRowf("peak current (A)", b.PeakA)
	pins.AddRowf("power pins", b.PowerPins)
	pins.AddRowf("ground pins", b.GroundPins)
	pins.AddRowf("total pins", b.TotalPins)
	for _, p := range powersource.Packages() {
		pins.AddRow(fmt.Sprintf("reference: %s", p.Name),
			fmt.Sprintf("%d pins at %.1f mm pitch", p.Pins, p.PitchMm))
	}
	return []*table.Table{sources, verdicts, pins}, nil
}
