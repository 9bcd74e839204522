package engine_test

import (
	"context"
	"fmt"

	"sprinting/internal/core"
	"sprinting/internal/engine"
	"sprinting/internal/workloads"
)

// ExampleMap fans a function out over a grid on a pool of four workers;
// results always come back in input order.
func ExampleMap() {
	inputs := []int{1, 2, 3, 4, 5}
	squares, err := engine.Map(context.Background(), inputs,
		func(_ context.Context, n int) (int, error) {
			return n * n, nil
		}, 4)
	if err != nil {
		panic(err)
	}
	fmt.Println(squares)
	// Output:
	// [1 4 9 16 25]
}

// ExampleRunGrid evaluates simulation points — the sustained baseline and
// a parallel sprint of the sobel kernel — concurrently, and compares them.
func ExampleRunGrid() {
	points := []engine.Point{
		{Kernel: "sobel", Size: workloads.SizeA, Shards: 64,
			Config: core.DefaultConfig(core.Sustained)},
		{Kernel: "sobel", Size: workloads.SizeA, Shards: 64,
			Config: core.DefaultConfig(core.ParallelSprint)},
	}
	results, err := engine.RunGrid(context.Background(), points, engine.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println("sprint an order of magnitude faster:", results[1].Speedup(results[0]) > 8)
	// Output:
	// sprint an order of magnitude faster: true
}
