package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"sprinting/internal/core"
	"sprinting/internal/workloads"
)

// TestMapStableOrder makes later items finish first and checks results
// still come back in input order.
func TestMapStableOrder(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	out, err := Map(context.Background(), items, func(_ context.Context, i int) (int, error) {
		time.Sleep(time.Duration(len(items)-i) * time.Millisecond)
		return i * i, nil
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range items {
		if out[i] != i*i {
			t.Errorf("out[%d] = %d, want %d", i, out[i], i*i)
		}
	}
}

// TestMapDeterministicAcrossWorkerCounts checks the engine's core
// guarantee on a synthetic grid: every worker count, including the inline
// serial path, produces identical ordered results.
func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	items := make([]float64, 64)
	for i := range items {
		items[i] = float64(i) * 1.7
	}
	fn := func(_ context.Context, x float64) (float64, error) {
		v := x
		for k := 0; k < 1000; k++ {
			v = v*0.9999 + 0.0001*x
		}
		return v, nil
	}
	serial, err := Map(context.Background(), items, fn, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16, 0} {
		got, err := Map(context.Background(), items, fn, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, got) {
			t.Errorf("workers=%d produced different results than workers=1", workers)
		}
	}
}

// TestRunGridDeterministic runs a real (reduced-scale) simulation grid at
// workers=1 and workers=4 and requires bit-identical ordered results —
// the acceptance property behind every driver's -workers flag.
func TestRunGridDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation grid skipped in -short mode")
	}
	var points []Point
	for _, policy := range []core.Policy{core.Sustained, core.ParallelSprint, core.DVFSSprint} {
		points = append(points, Point{
			Kernel: "sobel",
			Size:   workloads.SizeA,
			Scale:  0.1,
			Seed:   7,
			Shards: 64,
			Config: core.DefaultConfig(policy),
		})
	}
	serial, err := RunGrid(context.Background(), points, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunGrid(context.Background(), points, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("grid results differ between workers=1 and workers=4:\n%+v\nvs\n%+v", serial, parallel)
	}
	if serial[1].Speedup(serial[0]) <= 1 {
		t.Errorf("parallel sprint should beat sustained, got speedup %v", serial[1].Speedup(serial[0]))
	}
}

// TestCancellationMidGrid cancels the context while the grid is in flight
// and checks the engine stops dispatching, reports the context error, and
// keeps results from points that completed.
func TestCancellationMidGrid(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	var ran atomic.Int32
	out, err := Map(ctx, items, func(_ context.Context, i int) (int, error) {
		if ran.Add(1) == 3 {
			cancel()
		}
		time.Sleep(time.Millisecond)
		return i + 1, nil
	}, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := int(ran.Load()); n == len(items) {
		t.Errorf("cancellation did not stop dispatch: all %d points ran", n)
	}
	if out[0] != 1 {
		t.Errorf("completed point lost its result: out[0] = %d, want 1", out[0])
	}
	completed := 0
	for _, v := range out {
		if v != 0 {
			completed++
		}
	}
	if completed == 0 || completed == len(items) {
		t.Errorf("want partial completion, got %d/%d", completed, len(items))
	}
}

// TestCancelBeforeStart returns immediately with no evaluations.
func TestCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	_, err := Map(ctx, []int{1, 2, 3}, func(_ context.Context, i int) (int, error) {
		ran.Add(1)
		return i, nil
	}, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Errorf("%d points ran under a pre-canceled context", ran.Load())
	}
}

// TestPanicIsolation checks a panicking point becomes a *PanicError
// attributed to its index while every other point completes.
func TestPanicIsolation(t *testing.T) {
	items := []int{0, 1, 2, 3, 4}
	out, err := Map(context.Background(), items, func(_ context.Context, i int) (int, error) {
		if i == 2 {
			panic("boom")
		}
		return i * 10, nil
	}, 3)
	if err == nil {
		t.Fatal("want an error for the panicking point")
	}
	var pe *PointError
	if !errors.As(err, &pe) || pe.Index != 2 {
		t.Fatalf("want PointError{Index: 2}, got %v", err)
	}
	var panicErr *PanicError
	if !errors.As(err, &panicErr) || panicErr.Value != "boom" {
		t.Fatalf("want PanicError{Value: boom}, got %v", err)
	}
	if len(panicErr.Stack) == 0 {
		t.Error("panic stack not captured")
	}
	for _, i := range []int{0, 1, 3, 4} {
		if out[i] != i*10 {
			t.Errorf("healthy point %d lost its result: %d", i, out[i])
		}
	}
}

// TestErrorAggregation joins every failing point in index order.
func TestErrorAggregation(t *testing.T) {
	items := []int{0, 1, 2, 3}
	sentinel := errors.New("bad point")
	_, err := Map(context.Background(), items, func(_ context.Context, i int) (int, error) {
		if i%2 == 1 {
			return 0, fmt.Errorf("point %d: %w", i, sentinel)
		}
		return i, nil
	}, 2)
	if !errors.Is(err, sentinel) {
		t.Fatalf("joined error lost the cause: %v", err)
	}
	var pe *PointError
	if !errors.As(err, &pe) {
		t.Fatalf("want PointError in %v", err)
	}
}

// cachedGrid runs points through RunGrid's body with a cache and an
// injected solo evaluation that counts its calls and gives each kernel
// its own result; the points share no machine, so each job runs alone.
func cachedGrid(ctx context.Context, cache *Cache, points []Point, workers int, evals *atomic.Int32) ([]core.Result, error) {
	solo := func(_ context.Context, p Point) (core.Result, error) {
		evals.Add(1)
		return core.Result{ElapsedS: float64(len(p.Kernel))}, nil
	}
	g := grid{points: points, cache: cache, solo: solo, together: runShared}
	return g.run(ctx, workers)
}

// TestCacheHits runs the same grid twice through one cache and checks
// each unique point is evaluated exactly once overall, duplicates within
// a grid and across grids included.
func TestCacheHits(t *testing.T) {
	cache := NewCache()
	var points []Point // 3 unique keys, 9 points
	for range 3 {
		for _, k := range []string{"a", "bb", "ccc"} {
			points = append(points, Point{Kernel: k, Config: core.DefaultConfig(core.ParallelSprint)})
		}
	}
	var evals atomic.Int32
	for round := 0; round < 2; round++ {
		out, err := cachedGrid(context.Background(), cache, points, 4, &evals)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range points {
			if out[i].ElapsedS != float64(len(p.Kernel)) {
				t.Errorf("round %d: out[%d] = %v, want %d", round, i, out[i].ElapsedS, len(p.Kernel))
			}
		}
	}
	if n := evals.Load(); n != 3 {
		t.Errorf("evaluated %d times, want 3 (one per unique key)", n)
	}
	if cache.Len() != 3 {
		t.Errorf("cache holds %d entries, want 3", cache.Len())
	}
	hits, misses := cache.Stats()
	if misses != 3 || hits != 15 {
		t.Errorf("stats = %d hits / %d misses, want 15 / 3", hits, misses)
	}
	cache.Clear()
	if cache.Len() != 0 {
		t.Errorf("cache holds %d entries after Clear, want 0", cache.Len())
	}
	if _, err := cachedGrid(context.Background(), cache, points[:3], 1, &evals); err != nil {
		t.Fatal(err)
	}
	if n := evals.Load(); n != 6 {
		t.Errorf("evaluated %d times after Clear, want 6 (points recomputed)", n)
	}
}

// TestCacheDoesNotCacheCancellation: a grid cancelled while its point
// evaluates leaves no cache entry, so the next grid recomputes the point
// instead of reading the cancellation back.
func TestCacheDoesNotCacheCancellation(t *testing.T) {
	cache := NewCache()
	points := []Point{{Kernel: "sobel", Config: core.DefaultConfig(core.ParallelSprint)}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := grid{points: points, cache: cache, together: runShared,
		solo: func(ctx context.Context, _ Point) (core.Result, error) {
			cancel()
			return core.Result{}, ctx.Err()
		}}
	if _, err := g.run(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if cache.Len() != 0 {
		t.Fatalf("the cancelled grid left %d cache entries, want 0", cache.Len())
	}
	var evals atomic.Int32
	out, err := cachedGrid(context.Background(), cache, points, 1, &evals)
	if err != nil || out[0].ElapsedS != 5 || evals.Load() != 1 {
		t.Fatalf("poisoned cache: out = %v, err = %v, %d evaluations", out[0].ElapsedS, err, evals.Load())
	}
}

// TestPointKeyDistinguishesConfigs: the memo key must change whenever any
// field of the point changes, or the cache would conflate distinct runs.
func TestPointKeyDistinguishesConfigs(t *testing.T) {
	base := Point{Kernel: "sobel", Size: workloads.SizeA, Scale: 1, Seed: 1, Shards: 64,
		Config: core.DefaultConfig(core.ParallelSprint)}
	variants := []Point{}
	v := base
	v.Kernel = "kmeans"
	variants = append(variants, v)
	v = base
	v.Size = workloads.SizeB
	variants = append(variants, v)
	v = base
	v.Scale = 0.5
	variants = append(variants, v)
	v = base
	v.Seed = 2
	variants = append(variants, v)
	v = base
	v.Config.SprintCores = 8
	variants = append(variants, v)
	v = base
	v.Config.Thermal = v.Config.Thermal.WithPCMMass(0.0015)
	variants = append(variants, v)
	seen := map[string]bool{base.Key(): true}
	for i, variant := range variants {
		k := variant.Key()
		if seen[k] {
			t.Errorf("variant %d collides with a previous key", i)
		}
		seen[k] = true
	}
	if base.Key() != base.Key() {
		t.Error("Key is not deterministic")
	}
}

// TestEmptyGrid returns immediately.
func TestEmptyGrid(t *testing.T) {
	out, err := Map(context.Background(), nil, func(_ context.Context, i int) (int, error) {
		return i, nil
	}, 0)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty grid: out = %v, err = %v", out, err)
	}
}
