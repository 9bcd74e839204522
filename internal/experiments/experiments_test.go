package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"sprinting/internal/table"
)

// quickOpt shrinks inputs so the whole registry runs in test time.
func quickOpt() Options { return Options{Scale: 0.12, Seed: 7} }

func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	want := []string{"fig1", "table1", "fig2", "fig3", "fig4a", "fig4b", "fig5", "fig6",
		"sec6", "fig7", "fig8", "fig9", "fig10", "fig11", "ablation", "designspace", "session", "fleet_policy",
		"rack_coordination", "fleet_scenarios", "fleet_reliability", "fleet_tenants"}
	got := Registry()
	if len(got) != len(want) {
		t.Fatalf("registry has %d drivers, want %d", len(got), len(want))
	}
	for i, id := range want {
		if got[i].ID != id {
			t.Errorf("driver %d = %q, want %q", i, got[i].ID, id)
		}
		if got[i].Title == "" || got[i].Run == nil {
			t.Errorf("driver %q incomplete", got[i].ID)
		}
	}
}

func TestByID(t *testing.T) {
	d, err := ByID("fig7")
	if err != nil || d.ID != "fig7" {
		t.Fatalf("ByID(fig7) = %v, %v", d.ID, err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("expected error for unknown id")
	}
}

// TestCheapDriversRun executes the drivers that do not need architectural
// simulation at full fidelity.
func TestCheapDriversRun(t *testing.T) {
	for _, id := range []string{"fig1", "table1", "fig3", "fig4a", "fig4b", "fig5", "fig6", "sec6", "session", "fleet_policy", "rack_coordination", "fleet_scenarios"} {
		id := id
		t.Run(id, func(t *testing.T) {
			d, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			tables, err := d.Run(context.Background(), quickOpt())
			if err != nil {
				t.Fatal(err)
			}
			checkTables(t, tables)
		})
	}
}

// TestArchDriversRunQuick executes the simulation-heavy drivers at reduced
// scale, checking structure rather than calibration (calibration is covered
// by the core package tests and the benchmarks).
func TestArchDriversRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy drivers skipped in -short mode")
	}
	for _, id := range []string{"fig2", "fig7", "fig8", "fig9", "fig10", "fig11", "ablation"} {
		id := id
		t.Run(id, func(t *testing.T) {
			d, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			tables, err := d.Run(context.Background(), quickOpt())
			if err != nil {
				t.Fatal(err)
			}
			checkTables(t, tables)
		})
	}
}

func checkTables(t *testing.T, tables []*table.Table) {
	t.Helper()
	if len(tables) == 0 {
		t.Fatal("driver produced no tables")
	}
	for _, tb := range tables {
		if len(tb.Rows) == 0 {
			t.Errorf("table %q has no rows", tb.Title)
		}
		out := tb.String()
		if !strings.Contains(out, tb.Header[0]) {
			t.Errorf("table %q did not render header", tb.Title)
		}
	}
}

func TestFig1Values(t *testing.T) {
	tables, err := Fig1(context.Background(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// 7 process nodes per the paper's x-axis.
	if len(tables[0].Rows) != 7 || len(tables[1].Rows) != 7 {
		t.Errorf("Figure 1 tables should have 7 node rows: %d, %d",
			len(tables[0].Rows), len(tables[1].Rows))
	}
}

func TestTable1HasSixKernels(t *testing.T) {
	tables, err := Table1(context.Background(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) != 6 {
		t.Errorf("Table 1 should list 6 kernels, got %d", len(tables[0].Rows))
	}
}

// TestRackCoordinationHeadlineContrast pins the rack study's reason to
// exist at full scale: in every overloaded (120% load) grid row the
// uncoordinated rack trips its breaker while token-permit records exactly
// zero trips and a lower p99 than the tripped rack.
func TestRackCoordinationHeadlineContrast(t *testing.T) {
	tables, err := RackCoordination(context.Background(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, tb := range tables {
		var un, tok []string
		for _, row := range tb.Rows {
			if row[0] != "120%" {
				continue
			}
			switch row[1] {
			case "uncoordinated":
				un = row
			case "token-permit":
				tok = row
			}
		}
		if un == nil || tok == nil {
			t.Fatalf("table %q is missing 120%% rows", tb.Title)
		}
		trips := func(row []string) int {
			var n int
			if _, err := fmt.Sscanf(row[5], "%d", &n); err != nil {
				t.Fatalf("unparseable trips cell %q", row[5])
			}
			return n
		}
		p99 := func(row []string) float64 {
			var v float64
			if _, err := fmt.Sscanf(row[4], "%g", &v); err != nil {
				t.Fatalf("unparseable p99 cell %q", row[4])
			}
			return v
		}
		if trips(un) == 0 {
			t.Errorf("table %q: overloaded uncoordinated rack should trip, row %v", tb.Title, un)
		}
		if trips(tok) != 0 {
			t.Errorf("table %q: token-permit must never trip, row %v", tb.Title, tok)
		}
		if p99(tok) >= p99(un) {
			t.Errorf("table %q: token-permit p99 %.3f should beat tripped uncoordinated %.3f",
				tb.Title, p99(tok), p99(un))
		}
		checked++
	}
	if checked != 2 {
		t.Fatalf("expected the contrast in both rack-size tables, checked %d", checked)
	}
}

// TestFleetReliabilityRetryStorm pins the reliability study's headline
// at full scale: against gray stragglers, client timeouts with
// unbudgeted retries ignite a retry storm — dispatch attempts amplify
// beyond 2× offered load and goodput collapses below 80% of the
// fault-free run — while the fleet-wide retry budget sheds the excess at
// the client and holds goodput within 10% of fault-free. The tables must
// also be byte-identical at any engine worker count.
func TestFleetReliabilityRetryStorm(t *testing.T) {
	tables, err := FleetReliability(context.Background(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 3 {
		t.Fatalf("expected one table with three variants, got %+v", tables)
	}
	cell := func(row int, col int) float64 {
		var v float64
		if _, err := fmt.Sscanf(tables[0].Rows[row][col], "%g", &v); err != nil {
			t.Fatalf("unparseable cell %q", tables[0].Rows[row][col])
		}
		return v
	}
	const goodputCol, ampCol, shedCol = 1, 8, 6
	faultFree := cell(0, goodputCol)
	unbudgeted := cell(1, goodputCol)
	budgeted := cell(2, goodputCol)
	if amp := cell(1, ampCol); amp <= 2 {
		t.Errorf("unbudgeted retry amplification %.2f should exceed 2x offered load", amp)
	}
	if unbudgeted >= 0.8*faultFree {
		t.Errorf("unbudgeted goodput %.3f should collapse below 80%% of fault-free %.3f", unbudgeted, faultFree)
	}
	if budgeted < 0.9*faultFree {
		t.Errorf("budgeted goodput %.3f should stay within 10%% of fault-free %.3f", budgeted, faultFree)
	}
	if budgeted <= unbudgeted {
		t.Errorf("the retry budget should beat the storm: %.3f <= %.3f", budgeted, unbudgeted)
	}
	if cell(2, shedCol) == 0 {
		t.Error("the budgeted run should shed the excess retries it refuses")
	}
	// Point determinism at any engine pool width: the tables are
	// byte-identical serial and wide.
	for _, w := range []int{1, 8} {
		opt := DefaultOptions()
		opt.Workers = w
		again, err := FleetReliability(context.Background(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(again) != fmt.Sprint(tables) {
			t.Errorf("workers=%d changed the reliability tables", w)
		}
	}
}

// TestFleetTenantsPriorityContrast pins the tenant study's headline at
// full scale: under FIFO the interactive class queues behind
// heavy-tailed batch work, while priority dequeue serves it first —
// cutting its p99 and raising its SLO attainment — and SJF holds the
// lowest overall mean latency. The tables must also be byte-identical
// at any engine worker count.
func TestFleetTenantsPriorityContrast(t *testing.T) {
	tables, err := FleetTenants(context.Background(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 6 {
		t.Fatalf("expected one table with 3 disciplines x 2 classes, got %+v", tables)
	}
	cell := func(row int, col int) float64 {
		var v float64
		if _, err := fmt.Sscanf(tables[0].Rows[row][col], "%g", &v); err != nil {
			t.Fatalf("unparseable cell %q", tables[0].Rows[row][col])
		}
		return v
	}
	// Rows: (fifo, priority, sjf) x (interactive, batch).
	const p99Col, sloCol, meanCol = 5, 6, 8
	fifoP99, prioP99 := cell(0, p99Col), cell(2, p99Col)
	if prioP99 >= fifoP99 {
		t.Errorf("priority should cut the interactive p99: fifo %.3f, priority %.3f", fifoP99, prioP99)
	}
	if fifoSLO, prioSLO := cell(0, sloCol), cell(2, sloCol); prioSLO <= fifoSLO {
		t.Errorf("priority should raise interactive SLO attainment: fifo %.1f%%, priority %.1f%%", fifoSLO, prioSLO)
	}
	if fifoBatch, prioBatch := cell(1, p99Col), cell(3, p99Col); prioBatch < fifoBatch {
		t.Errorf("priority's interactive win should cost the batch tail: fifo %.3f, priority %.3f", fifoBatch, prioBatch)
	}
	if fifoMean, sjfMean := cell(0, meanCol), cell(4, meanCol); sjfMean >= fifoMean {
		t.Errorf("sjf should cut the overall mean: fifo %.3f, sjf %.3f", fifoMean, sjfMean)
	}
	for _, w := range []int{1, 8} {
		opt := DefaultOptions()
		opt.Workers = w
		again, err := FleetTenants(context.Background(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(again) != fmt.Sprint(tables) {
			t.Errorf("workers=%d changed the tenant tables", w)
		}
	}
}

// TestFleetScenariosSurgeContrast pins the scenario study's headline at
// full scale: during the flash-crowd surge phase, sprint-aware dispatch
// under token-permit coordination holds a lower p99 than least-loaded
// dispatch on the same racks — routing on remaining thermal headroom is
// what rides out exactly the unsteady demand the paper motivates.
func TestFleetScenariosSurgeContrast(t *testing.T) {
	tables, err := FleetScenarios(context.Background(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("expected a table per coordination, got %d", len(tables))
	}
	surgeP99 := func(tb *table.Table, policy string) float64 {
		for _, row := range tb.Rows {
			if row[0] == policy && row[1] == "surge" {
				var v float64
				if _, err := fmt.Sscanf(row[5], "%g", &v); err != nil {
					t.Fatalf("unparseable p99 cell %q", row[5])
				}
				return v
			}
		}
		t.Fatalf("table %q has no surge row for %s", tb.Title, policy)
		return 0
	}
	for _, tb := range tables {
		ll := surgeP99(tb, "least-loaded")
		sa := surgeP99(tb, "sprint-aware")
		if sa >= ll {
			t.Errorf("table %q: sprint-aware surge p99 %.3f should beat least-loaded %.3f",
				tb.Title, sa, ll)
		}
	}
	// The token-permit table must also be trip-free (its racks coordinate).
	for _, row := range tables[1].Rows {
		if row[len(row)-1] != "0" {
			t.Errorf("token-permit scenario recorded breaker trips: row %v", row)
		}
	}
}

// TestSessionTablePinned pins all nine cells of the session study at the
// default seed. Governed sprinting is governor.Serve, the routine every
// fleet node runs, so a change to it shows here first. The caption's
// claims hold on every trace: governed beats sustained with zero
// violations, and unmanaged is faster than governed only where it
// violates the budget.
func TestSessionTablePinned(t *testing.T) {
	tables, err := Session(context.Background(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Rows per trace: sustained, governed sprint, unmanaged sprint; columns
	// mean and p95 response (s), full-intensity %, violation (J).
	want := [][][]string{
		{{"1.95", "4.59", "0", "0"}, {"0.115", "0.287", "100", "0"}, {"0.115", "0.287", "100", "0"}},
		{{"2.07", "4.59", "0", "0"}, {"0.116", "0.287", "100", "0"}, {"0.116", "0.287", "100", "0"}},
		{{"26.8", "42.7", "0", "0"}, {"1.9", "6.59", "79.2", "0"}, {"0.251", "0.574", "79.2", "22.2"}},
	}
	if len(tables) != len(want) {
		t.Fatalf("got %d tables, want %d", len(tables), len(want))
	}
	for i, tb := range tables {
		got := make([][]string, len(tb.Rows))
		for r, row := range tb.Rows {
			got[r] = row[1:]
		}
		if fmt.Sprint(got) != fmt.Sprint(want[i]) {
			t.Errorf("%s:\n got %v\nwant %v", tb.Title, got, want[i])
		}
		cell := func(row, col int) float64 {
			var v float64
			fmt.Sscanf(tb.Rows[row][col], "%g", &v)
			return v
		}
		const mean, viol = 1, 4
		if cell(1, mean) >= cell(0, mean) || cell(1, viol) != 0 {
			t.Errorf("%s: governed must beat sustained with no violation", tb.Title)
		}
		if cell(2, mean) < cell(1, mean) && cell(2, viol) == 0 {
			t.Errorf("%s: unmanaged is faster than governed without violating the budget", tb.Title)
		}
	}
}
