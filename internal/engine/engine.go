// Package engine is the shared concurrent run engine behind every
// experiment driver and command in this repository. The paper's evaluation
// is a large cross-product — policies × kernels × input sizes × thermal and
// power configurations — whose points are mutually independent, so the
// engine fans a deterministic grid of points out across a bounded worker
// pool and returns the results in stable grid order regardless of
// completion order.
//
// Guarantees:
//
//   - Stable order: result i always corresponds to input i; scheduling
//     never reorders output.
//   - Determinism: point evaluations are pure functions of their inputs,
//     so any worker count (including 1) produces identical results.
//   - Bounded concurrency: at most Options.Workers points run at once
//     (default GOMAXPROCS); Workers=1 runs inline on the calling
//     goroutine, reproducing plain serial execution exactly.
//   - Cancellation: a canceled context stops new points from starting;
//     finished points keep their results and the context error is
//     reported alongside any point errors.
//   - Panic isolation: a panicking point is converted into a *PanicError
//     carrying its stack; other points are unaffected.
//   - Memoization: an optional Cache deduplicates points that share a
//     config key, within one grid and across grids; RunGrid keeps one
//     cache entry per point key.
//   - Shared machines: RunGrid gives the points that agree on everything
//     but the controller-only config fields — Thermal, ThermalTimeScale,
//     TripMarginC, HardwareThrottleOnly, RecordTrace, ActivationDelayS,
//     the fields core.Config.Machine zeroes — to one pool job, which
//     simulates their machine once (core.RunShared). Until the §7
//     controller trips, those fields only change what each member's
//     thermal stack observes, so every member sees the samples it would
//     see alone. A member whose controller would steer the machine while
//     another is live would change what the others observe: it drops
//     out and is rerun alone. The last live member's command is applied,
//     since no one else observes the machine any more. Results equal
//     per-point evaluation exactly; a one-member job is core.Run, and
//     there is no switch to turn sharing off. A point whose config fails
//     Validate runs alone and fails at its own index, and a shared run
//     that fails or panics falls back to running each member alone.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
)

// Options tune one fan-out.
type Options struct {
	// Workers bounds concurrent point evaluations. Values <= 0 select
	// runtime.GOMAXPROCS(0). Workers == 1 runs the grid inline on the
	// calling goroutine in input order — exactly serial execution.
	Workers int
	// Cache, when non-nil, memoizes point results by key (see MapKeyed);
	// points whose key is empty are never cached.
	Cache *Cache
}

func (o Options) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// PanicError reports a panic recovered inside one point evaluation.
type PanicError struct {
	// Value is the value passed to panic.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error describes the panic; the stack is kept out of the one-line message.
func (e *PanicError) Error() string { return fmt.Sprintf("point panicked: %v", e.Value) }

// PointError attributes a failure to one grid index.
type PointError struct {
	// Index is the position of the failing point in the input grid.
	Index int
	// Err is the point's error (possibly a *PanicError).
	Err error
}

// Error reports the index and the underlying error.
func (e *PointError) Error() string { return fmt.Sprintf("point %d: %v", e.Index, e.Err) }

// Unwrap exposes the underlying error to errors.Is/As.
func (e *PointError) Unwrap() error { return e.Err }

// Map evaluates fn over every item on a bounded worker pool and returns
// the results in item order. On failure it still returns the full result
// slice (failed slots hold the zero value) together with every per-point
// error joined in index order; callers that need partial results can
// inspect both.
func Map[I, O any](ctx context.Context, items []I, fn func(context.Context, I) (O, error), opt Options) ([]O, error) {
	return MapKeyed(ctx, items, nil, fn, opt)
}

// MapKeyed is Map with memoization: when opt.Cache is non-nil and key is
// non-nil, each item's key selects a cache slot, and items sharing a key —
// within this call or any previous call using the same Cache — are
// evaluated once. Evaluation stays deterministic because keys must only
// equate items whose evaluations are interchangeable.
func MapKeyed[I, O any](ctx context.Context, items []I, key func(I) string, fn func(context.Context, I) (O, error), opt Options) ([]O, error) {
	out := make([]O, len(items))
	if len(items) == 0 {
		return out, ctx.Err()
	}
	errs := make([]error, len(items))

	runOne := func(i int) (O, error) {
		if key == nil || opt.Cache == nil {
			return callSafe(ctx, items[i], fn)
		}
		k := key(items[i])
		if k == "" {
			return callSafe(ctx, items[i], fn)
		}
		v, err := opt.Cache.do(k, func() (any, error) {
			return callSafe(ctx, items[i], fn)
		})
		if err != nil {
			var zero O
			return zero, err
		}
		return v.(O), nil
	}

	workers := opt.workers()
	if workers > len(items) {
		workers = len(items)
	}

	if workers == 1 {
		// Inline serial path: identical to a plain loop over the grid.
		for i := range items {
			if err := ctx.Err(); err != nil {
				errs[i] = err
				break
			}
			out[i], errs[i] = runOne(i)
		}
		return out, joinPointErrors(errs)
	}

	indices := make(chan int)
	done := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := range indices {
				out[i], errs[i] = runOne(i)
			}
		}()
	}
dispatch:
	for i := range items {
		select {
		case indices <- i:
		case <-ctx.Done():
			errs[i] = ctx.Err()
			break dispatch
		}
	}
	close(indices)
	for w := 0; w < workers; w++ {
		<-done
	}
	return out, joinPointErrors(errs)
}

// callSafe invokes fn with panic isolation.
func callSafe[I, O any](ctx context.Context, item I, fn func(context.Context, I) (O, error)) (res O, err error) {
	defer func() {
		if r := recover(); r != nil {
			var zero O
			res, err = zero, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, item)
}

// joinPointErrors wraps per-index errors as PointErrors and joins them in
// index order, deduplicating context cancellation to a single entry (on
// cancellation many points fail for the same uninteresting reason).
func joinPointErrors(errs []error) error {
	var joined []error
	var canceled error
	for i, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if canceled == nil {
				canceled = err
			}
			continue
		}
		joined = append(joined, &PointError{Index: i, Err: err})
	}
	if canceled != nil {
		joined = append(joined, canceled)
	}
	return errors.Join(joined...)
}
