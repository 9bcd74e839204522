package engine

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"sprinting/internal/core"
	"sprinting/internal/thermal"
	"sprinting/internal/workloads"
)

// sharedGrid holds points that share machines in every way a figure's
// grid can: members that never trip, members that trip while others are
// live, a throttle-only member, a DVFS group, a singleton, and duplicates.
func sharedGrid() []Point {
	limited := func(cfg core.Config) core.Config {
		cfg.Thermal = thermal.LimitedStackConfig()
		cfg.ThermalTimeScale = 1500
		return cfg
	}
	hw := limited(core.DefaultConfig(core.ParallelSprint))
	hw.HardwareThrottleOnly = true
	traced := core.DefaultConfig(core.ParallelSprint)
	traced.RecordTrace = true
	var pts []Point
	for _, cfg := range []core.Config{
		core.DefaultConfig(core.Sustained),
		core.DefaultConfig(core.ParallelSprint),
		limited(core.DefaultConfig(core.ParallelSprint)),
		hw,
		traced,
		core.DefaultConfig(core.DVFSSprint),
		limited(core.DefaultConfig(core.DVFSSprint)),
		limited(core.DefaultConfig(core.ParallelSprint)), // duplicate
		core.DefaultConfig(core.ParallelSprint),          // duplicate
	} {
		pts = append(pts, Point{Kernel: "sobel", Size: workloads.SizeA, Scale: 0.1, Seed: 7, Shards: 64, Config: cfg})
	}
	return pts
}

// soloResults evaluates every point alone, the reference for RunGrid.
func soloResults(t *testing.T, points []Point) []core.Result {
	t.Helper()
	want := make([]core.Result, len(points))
	for i, p := range points {
		var err error
		if want[i], err = runPoint(context.Background(), p); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// TestRunGridSharedMatchesPerPoint: grouping points onto shared machines
// returns exactly the per-point results, at any worker count, with and
// without a cache, and starts fewer machines than there are points.
func TestRunGridSharedMatchesPerPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation grid skipped in -short mode")
	}
	points := sharedGrid()
	want := soloResults(t, points)
	if !want[2].Migrated || !want[3].Throttled || !want[6].SprintExhausted {
		t.Fatal("the grid needs members that trip")
	}
	for _, workers := range []int{1, 8} {
		for _, cache := range []*Cache{nil, NewCache()} {
			before := machineRuns.Load()
			got, err := RunGrid(context.Background(), points, Options{Workers: workers, Cache: cache})
			if err != nil {
				t.Fatal(err)
			}
			runs := machineRuns.Load() - before
			if !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d cache=%v: grouped results differ from per-point results", workers, cache != nil)
			}
			// Runs: the sustained singleton; one shared run for the six
			// parallel-sprint points (four distinct keys), plus reruns of
			// the limited and throttle-only members; one shared run for
			// the DVFS pair, plus a rerun of its limited member.
			wantRuns := int64(1 + 1 + 2 + 1 + 1)
			if cache == nil {
				wantRuns++ // the duplicate limited member reruns too
			}
			if runs != wantRuns {
				t.Errorf("workers=%d cache=%v: %d machine runs, want %d", workers, cache != nil, runs, wantRuns)
			}
		}
	}
}

// TestRunGridInvalidMemberOwnError: a member whose config fails Validate
// fails at its own index; its would-be group mates still succeed.
func TestRunGridInvalidMemberOwnError(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation grid skipped in -short mode")
	}
	points := sharedGrid()[:3]
	points = append(points, points[1])
	points[3].Config.TripMarginC = -1
	want := soloResults(t, points[:3])
	before := machineRuns.Load()
	got, err := RunGrid(context.Background(), points, Options{Workers: 2, Cache: NewCache()})
	var pe *PointError
	if !errors.As(err, &pe) || pe.Index != 3 {
		t.Fatalf("want PointError{Index: 3}, got %v", err)
	}
	if !reflect.DeepEqual(got[:3], want) {
		t.Error("the invalid member's group mates lost their results")
	}
	// The sustained run, the shared parallel-sprint run, the limited
	// member's rerun, and the invalid point's own failed attempt: the
	// invalid point never joins, and so never spoils, the shared run.
	if runs := machineRuns.Load() - before; runs != 4 {
		t.Errorf("%d machine runs, want 4", runs)
	}
}

// TestRunGridSharedPanicFallsBack: a panicking shared run falls back to
// running each member alone, so every panic lands on its own index.
func TestRunGridSharedPanicFallsBack(t *testing.T) {
	points := make([]Point, 4)
	for i := range points {
		points[i] = Point{Kernel: "sobel", Config: core.DefaultConfig(core.ParallelSprint)}
		points[i].Config.TripMarginC = float64(i)
	}
	solo := func(_ context.Context, p Point) (core.Result, error) {
		if p.Config.TripMarginC == 2 {
			panic("member 2")
		}
		return core.Result{ElapsedS: p.Config.TripMarginC + 1}, nil
	}
	together := func(context.Context, []Point) (sharedRun, error) { panic("shared") }
	for _, workers := range []int{1, 3} {
		g := grid{points: points, solo: solo, together: together}
		got, err := g.run(context.Background(), workers)
		var pe *PointError
		var panicErr *PanicError
		if !errors.As(err, &pe) || pe.Index != 2 || !errors.As(err, &panicErr) || panicErr.Value != "member 2" {
			t.Fatalf("workers=%d: want the member's own panic at index 2, got %v", workers, err)
		}
		for _, i := range []int{0, 1, 3} {
			if got[i].ElapsedS != float64(i+1) {
				t.Errorf("workers=%d: point %d lost its result: %+v", workers, i, got[i])
			}
		}
	}
}

// TestMachineKeySplitsMachineFields: changing any point field, or any
// Config field outside the controller-only list, changes the machine key,
// so a field added later splits groups by default; the controller-only
// fields never do.
func TestMachineKeySplitsMachineFields(t *testing.T) {
	controllerOnly := map[string]bool{
		"Config.Thermal": true, "Config.ThermalTimeScale": true, "Config.TripMarginC": true,
		"Config.HardwareThrottleOnly": true, "Config.RecordTrace": true, "Config.ActivationDelayS": true,
	}
	base := Point{Kernel: "sobel", Size: workloads.SizeA, Scale: 1, Seed: 1, Shards: 64,
		Config: core.DefaultConfig(core.ParallelSprint)}
	leaves := 0
	var visit func(idx []int, path string, typ reflect.Type, under string)
	visit = func(idx []int, path string, typ reflect.Type, under string) {
		if typ.Kind() == reflect.Struct {
			for i := 0; i < typ.NumField(); i++ {
				p := strings.TrimPrefix(path+"."+typ.Field(i).Name, ".")
				u := under
				if controllerOnly[p] {
					u = p
				}
				visit(append(slices.Clone(idx), i), p, typ.Field(i).Type, u)
			}
			return
		}
		leaves++
		pt := base
		perturb(reflect.ValueOf(&pt).Elem().FieldByIndex(idx))
		changed := pt.machineKey() != base.machineKey()
		if under == "" && !changed {
			t.Errorf("%s does not split machine groups", path)
		}
		if under != "" && changed {
			t.Errorf("%s (under controller-only %s) splits machine groups", path, under)
		}
	}
	visit(nil, "", reflect.TypeOf(base), "")
	if leaves < 30 {
		t.Fatalf("visited only %d leaf fields", leaves)
	}
}

// perturb changes a leaf value to a different one of its kind.
func perturb(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 0.5)
	case reflect.String:
		v.SetString(v.String() + "x")
	default:
		panic("perturb: unhandled kind " + v.Kind().String())
	}
}
