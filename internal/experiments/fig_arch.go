package experiments

import (
	"context"
	"fmt"

	"sprinting/internal/core"
	"sprinting/internal/engine"
	"sprinting/internal/materials"
	"sprinting/internal/series"
	"sprinting/internal/table"
	"sprinting/internal/thermal"
	"sprinting/internal/workloads"
)

// build constructs a fresh instance (programs are single-use).
func build(kernel string, size workloads.SizeClass, opt Options, shards int) (*workloads.Instance, error) {
	k, err := workloads.ByName(kernel)
	if err != nil {
		return nil, err
	}
	return k.Build(workloads.Params{
		Size:   size,
		Scale:  opt.Scale,
		Shards: shards,
		Seed:   opt.Seed,
	}), nil
}

// limitedThermal returns the §8.3 constrained design point (1.5 mg PCM).
func limitedThermal(cfg core.Config) core.Config {
	cfg.Thermal = thermal.LimitedStackConfig()
	return cfg
}

// Fig7 regenerates Figure 7: 16-core parallel speedup vs idealized DVFS,
// each under the 1.5 mg and 150 mg thermal configurations. The 5-point
// column set for all six kernels is one engine grid.
func Fig7(ctx context.Context, opt Options) ([]*table.Table, error) {
	opt = opt.withDefaults()
	kernels := workloads.All()
	var pts []engine.Point
	for _, k := range kernels {
		pts = append(pts,
			point(k.Name, workloads.SizeB, opt, core.DefaultConfig(core.Sustained), 64),
			point(k.Name, workloads.SizeB, opt, core.DefaultConfig(core.ParallelSprint), 64),
			point(k.Name, workloads.SizeB, opt, limitedThermal(core.DefaultConfig(core.ParallelSprint)), 64),
			point(k.Name, workloads.SizeB, opt, core.DefaultConfig(core.DVFSSprint), 64),
			point(k.Name, workloads.SizeB, opt, limitedThermal(core.DefaultConfig(core.DVFSSprint)), 64),
		)
	}
	res, err := runGrid(ctx, opt, pts)
	if err != nil {
		return nil, err
	}
	t := table.New("Figure 7: speedup on 16 cores vs idealized DVFS (default inputs)",
		"kernel", "Par 1.5mg", "Par 150mg", "DVFS 1.5mg", "DVFS 150mg")
	var parFull []float64
	for i, k := range kernels {
		base := res[i*5]
		pFull, pLim := res[i*5+1].Speedup(base), res[i*5+2].Speedup(base)
		dFull, dLim := res[i*5+3].Speedup(base), res[i*5+4].Speedup(base)
		parFull = append(parFull, pFull)
		t.AddRow(k.Name,
			table.F(pLim, 3), table.F(pFull, 3),
			table.F(dLim, 3), table.F(dFull, 3))
	}
	t.AddRow("average", "", table.F(series.Mean(parFull), 3), "", "")
	t.Caption = "paper: average parallel speedup 10.2× at 150 mg; DVFS caps at ∛16 ≈ 2.5×"
	return []*table.Table{t}, nil
}

// Fig8 regenerates Figure 8: sobel speedup as input size grows, for the
// two thermal configurations and DVFS. Input descriptions and the 4-point
// column set per size both fan out on the engine pool.
func Fig8(ctx context.Context, opt Options) ([]*table.Table, error) {
	opt = opt.withDefaults()
	sizes := []workloads.SizeClass{workloads.SizeA, workloads.SizeB, workloads.SizeC, workloads.SizeD}
	details, err := engine.Map(ctx, sizes,
		func(_ context.Context, size workloads.SizeClass) (string, error) {
			inst, err := build("sobel", size, opt, 64)
			if err != nil {
				return "", err
			}
			return inst.Detail, nil
		}, opt.Workers)
	if err != nil {
		return nil, err
	}
	var pts []engine.Point
	for _, size := range sizes {
		pts = append(pts,
			point("sobel", size, opt, core.DefaultConfig(core.Sustained), 64),
			point("sobel", size, opt, core.DefaultConfig(core.ParallelSprint), 64),
			point("sobel", size, opt, limitedThermal(core.DefaultConfig(core.ParallelSprint)), 64),
			point("sobel", size, opt, limitedThermal(core.DefaultConfig(core.DVFSSprint)), 64),
		)
	}
	res, err := runGrid(ctx, opt, pts)
	if err != nil {
		return nil, err
	}
	t := table.New("Figure 8: sobel speedup vs input size (16 cores)",
		"size", "input", "Par 150mg", "Par 1.5mg", "DVFS 1.5mg", "1 core")
	for i, size := range sizes {
		base := res[i*4]
		t.AddRow(string(size), details[i],
			table.F(res[i*4+1].Speedup(base), 3),
			table.F(res[i*4+2].Speedup(base), 3),
			table.F(res[i*4+3].Speedup(base), 3),
			"1")
	}
	t.Caption = "paper: full PCM sustains the sprint at all sizes; the 1.5 mg point's speedup " +
		"falls off as the fixed budget covers less of the growing computation"
	return []*table.Table{t}, nil
}

// Fig9 regenerates Figure 9: 16-core speedup for every kernel across its
// input sizes, under both thermal configurations — one engine grid of
// (kernel × size × {baseline, full, limited}).
func Fig9(ctx context.Context, opt Options) ([]*table.Table, error) {
	opt = opt.withDefaults()
	type rowSpec struct {
		kernel string
		size   workloads.SizeClass
	}
	var rows []rowSpec
	var pts []engine.Point
	for _, k := range workloads.All() {
		for _, size := range k.Sizes {
			rows = append(rows, rowSpec{k.Name, size})
			pts = append(pts,
				point(k.Name, size, opt, core.DefaultConfig(core.Sustained), 64),
				point(k.Name, size, opt, core.DefaultConfig(core.ParallelSprint), 64),
				point(k.Name, size, opt, limitedThermal(core.DefaultConfig(core.ParallelSprint)), 64),
			)
		}
	}
	res, err := runGrid(ctx, opt, pts)
	if err != nil {
		return nil, err
	}
	t := table.New("Figure 9: speedup on 16 cores with varying input sizes",
		"kernel", "size", "Par 1.5mg", "Par 150mg")
	for i, r := range rows {
		base := res[i*3]
		t.AddRow(r.kernel, string(r.size),
			table.F(res[i*3+2].Speedup(base), 3), table.F(res[i*3+1].Speedup(base), 3))
	}
	t.Caption = "paper: larger inputs show higher parallel speedup but need more capacitance " +
		"to finish within the sprint"
	return []*table.Table{t}, nil
}

// scalingRow holds one kernel's Figure 10/11 sweep results.
type scalingRow struct {
	kernel   string
	speedups map[int]float64
	energies map[int]float64
	bw2x64   float64 // 64-core speedup with doubled bandwidth (BW-bound kernels)
}

// scalingStudy runs the Figure 10/11 sweep as one engine grid. Both
// figures report the same runs; the engine's point cache makes the second
// regeneration free, replacing the package-local memo this function used
// to keep.
func scalingStudy(ctx context.Context, opt Options) ([]scalingRow, error) {
	coreCounts := []int{1, 4, 16, 64}
	type kernelIdx struct {
		base   int
		counts []int // parallel to coreCounts
		bw     int   // -1 when the kernel has no bandwidth ablation
	}
	var pts []engine.Point
	var idxs []kernelIdx
	kernels := workloads.All()
	for _, k := range kernels {
		size := k.Sizes[len(k.Sizes)-1] // the paper uses the largest input
		ix := kernelIdx{base: len(pts), bw: -1}
		pts = append(pts, point(k.Name, size, opt, core.DefaultConfig(core.Sustained), 128))
		for _, n := range coreCounts {
			cfg := core.DefaultConfig(core.ParallelSprint)
			cfg.SprintCores = n
			// Figure 10 studies scaling at fixed voltage and frequency
			// without a thermal cap: the physical (unscaled) stack's
			// >1 s budget never binds at simulation scale.
			cfg.ThermalTimeScale = 1
			ix.counts = append(ix.counts, len(pts))
			pts = append(pts, point(k.Name, size, opt, cfg, 128))
		}
		if k.Name == "feature" || k.Name == "disparity" {
			cfg := core.DefaultConfig(core.ParallelSprint)
			cfg.SprintCores = 64
			cfg.ThermalTimeScale = 1
			cfg.MemBandwidthMult = 2
			ix.bw = len(pts)
			pts = append(pts, point(k.Name, size, opt, cfg, 128))
		}
		idxs = append(idxs, ix)
	}
	res, err := runGrid(ctx, opt, pts)
	if err != nil {
		return nil, err
	}
	var rows []scalingRow
	for i, k := range kernels {
		ix := idxs[i]
		base := res[ix.base]
		row := scalingRow{kernel: k.Name, speedups: map[int]float64{}, energies: map[int]float64{}}
		for j, n := range coreCounts {
			r := res[ix.counts[j]]
			row.speedups[n] = r.Speedup(base)
			row.energies[n] = r.NormalizedEnergy(base)
		}
		if ix.bw >= 0 {
			row.bw2x64 = res[ix.bw].Speedup(base)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig10 regenerates Figure 10: parallel speedup at 1/4/16/64 cores (fixed
// voltage and frequency), largest inputs, plus the §8.5 2×-bandwidth
// ablation for the bandwidth-limited kernels.
func Fig10(ctx context.Context, opt Options) ([]*table.Table, error) {
	opt = opt.withDefaults()
	rows, err := scalingStudy(ctx, opt)
	if err != nil {
		return nil, err
	}
	t := table.New("Figure 10: parallel speedup vs core count (largest inputs)",
		"kernel", "1", "4", "16", "64", "64 @2x BW")
	for _, r := range rows {
		bw := "-"
		if r.bw2x64 > 0 {
			bw = table.F(r.bw2x64, 3)
		}
		t.AddRow(r.kernel,
			table.F(r.speedups[1], 3), table.F(r.speedups[4], 3),
			table.F(r.speedups[16], 3), table.F(r.speedups[64], 3), bw)
	}
	t.Caption = "paper: kmeans and sobel scale to 64; segment and texture are parallelism-limited; " +
		"feature and disparity are bandwidth-limited (doubling bandwidth lifts them at 64 cores)"
	return []*table.Table{t}, nil
}

// Fig11 regenerates Figure 11: dynamic energy normalized to single-core
// execution across core counts.
func Fig11(ctx context.Context, opt Options) ([]*table.Table, error) {
	opt = opt.withDefaults()
	rows, err := scalingStudy(ctx, opt)
	if err != nil {
		return nil, err
	}
	t := table.New("Figure 11: normalized dynamic energy vs core count (largest inputs)",
		"kernel", "1", "4", "16", "64")
	for _, r := range rows {
		t.AddRow(r.kernel,
			table.F(r.energies[1], 3), table.F(r.energies[4], 3),
			table.F(r.energies[16], 3), table.F(r.energies[64], 3))
	}
	t.Caption = "paper: ≤10% overhead on five of six at 16 cores (12% average); " +
		"up to 1.8× beyond linear scaling at 64 cores"
	return []*table.Table{t}, nil
}

// DesignSpace sweeps the two first-order design knobs — sprint width and
// PCM mass — and reports sobel responsiveness for each point. This extends
// the paper's §8.5 intensity study into the joint design space a platform
// architect would explore: wider sprints need more thermal capacitance to
// pay off.
func DesignSpace(ctx context.Context, opt Options) ([]*table.Table, error) {
	opt = opt.withDefaults()
	masses := []float64{0.0015, 0.015, 0.150} // grams: 1.5 mg … 150 mg
	widths := []int{2, 4, 8, 16}

	pts := []engine.Point{point("sobel", workloads.SizeB, opt, core.DefaultConfig(core.Sustained), 64)}
	for _, n := range widths {
		for _, m := range masses {
			cfg := core.DefaultConfig(core.ParallelSprint)
			cfg.SprintCores = n
			cfg.Thermal = cfg.Thermal.WithPCMMass(m)
			pts = append(pts, point("sobel", workloads.SizeB, opt, cfg, 64))
		}
	}
	res, err := runGrid(ctx, opt, pts)
	if err != nil {
		return nil, err
	}
	base := res[0]
	t := table.New("Design space: sobel speedup, sprint width × PCM mass",
		"cores \\ PCM", "1.5 mg", "15 mg", "150 mg")
	for i, n := range widths {
		row := []string{fmt.Sprintf("%d", n)}
		for j := range masses {
			row = append(row, table.F(res[1+i*len(masses)+j].Speedup(base), 3))
		}
		t.AddRow(row...)
	}
	t.Caption = "wider sprints need more latent capacity before their parallelism pays off"
	return []*table.Table{t}, nil
}

// Ablations regenerates the design-choice studies DESIGN.md calls out.
// The six architectural runs behind studies 2 and 3 form one engine grid;
// the purely thermal study 1 stays inline.
func Ablations(ctx context.Context, opt Options) ([]*table.Table, error) {
	opt = opt.withDefaults()

	// 1. PCM vs equal-mass solid copper sink (thermal only).
	solid := table.New("Ablation: PCM vs equal-mass copper block (16 W sprint)",
		"design", "sprint duration (s)")
	cfg := thermal.DefaultStackConfig()
	pcmRes := thermal.SimulateSprint(cfg, 16, 1e-4, 10)
	solid.AddRow("150 mg study PCM", table.F(pcmRes.SprintEndS, 3))
	cuStack := thermal.SolidSinkStack(cfg, materials.Copper, cfg.PCMMassG)
	tNow := 0.0
	for tNow < 10 && !cuStack.OverLimit() {
		cuStack.Step(1e-4, 16)
		tNow += 1e-4
	}
	solid.AddRow("150 mg copper", table.F(tNow, 3))

	// 2 + 3 share one grid: the §7 exit-path study on the limited
	// configuration, then the barrier sleep discipline study on segment.
	thrCfg := limitedThermal(core.DefaultConfig(core.ParallelSprint))
	thrCfg.HardwareThrottleOnly = true
	noDeep := core.DefaultConfig(core.ParallelSprint)
	noDeep.Arch.DeepSleepAfter = 0
	res, err := runGrid(ctx, opt, []engine.Point{
		point("sobel", workloads.SizeB, opt, core.DefaultConfig(core.Sustained), 64),
		point("sobel", workloads.SizeB, opt, limitedThermal(core.DefaultConfig(core.ParallelSprint)), 64),
		point("sobel", workloads.SizeB, opt, thrCfg, 64),
		point("segment", workloads.SizeB, opt, core.DefaultConfig(core.Sustained), 64),
		point("segment", workloads.SizeB, opt, core.DefaultConfig(core.ParallelSprint), 64),
		point("segment", workloads.SizeB, opt, noDeep, 64),
	})
	if err != nil {
		return nil, err
	}
	base, mig, thr, segBase, defRes, ndRes := res[0], res[1], res[2], res[3], res[4], res[5]

	exit := table.New("Ablation: sprint exit path (sobel, 1.5 mg PCM, 16 cores)",
		"exit path", "elapsed (ms)", "peak junction (C)")
	exit.AddRow("software migration (§7)", fmtMilli(mig.ElapsedS), table.F(mig.PeakJunctionC, 3))
	exit.AddRow("hardware throttle (÷16)", fmtMilli(thr.ElapsedS), table.F(thr.PeakJunctionC, 3))
	exit.AddRow("(sustained baseline)", fmtMilli(base.ElapsedS), table.F(base.PeakJunctionC, 3))

	sleep := table.New("Ablation: barrier sleep discipline (segment, 16 cores)",
		"discipline", "normalized energy")
	sleep.AddRow("PAUSE + deep sleep (default)", table.F(defRes.NormalizedEnergy(segBase), 3))
	sleep.AddRow("PAUSE only (10% forever)", table.F(ndRes.NormalizedEnergy(segBase), 3))

	return []*table.Table{solid, exit, sleep}, nil
}
