package engine

import (
	"context"
	"sync/atomic"

	"sprinting/internal/core"
	"sprinting/internal/workloads"
)

// Point is one simulation point of the evaluation cross-product: a kernel
// at an input size executed under a policy/thermal/power configuration.
// Points are plain values; a grid of Points fully determines a grid of
// Results.
type Point struct {
	// Kernel names a Table 1 workload (sobel, kmeans, …).
	Kernel string
	// Size selects the kernel input size class.
	Size workloads.SizeClass
	// Scale multiplies input sizes (1 = calibrated defaults); Seed fixes
	// the synthetic inputs. Zero values defer to the workload defaults.
	Scale float64
	Seed  int64
	// Shards is the work-queue sharding the instance is built with.
	Shards int
	// Config is the full sprint-system configuration (policy, sprint
	// width, thermal stack, machine, …).
	Config core.Config
}

// Key returns the point's config hash: a deterministic, collision-free
// rendering of every field, used to memoize repeated points.
func (p Point) Key() string {
	return Key(p.Kernel, string(p.Size), p.Scale, p.Seed, p.Shards, p.Config)
}

// machineKey is Key with the controller-only fields zeroed
// (core.Config.Machine): points with equal machine keys simulate the same
// machine through the same samples until a controller steers it. Any
// other Config field, including one added later, splits points apart.
func (p Point) machineKey() string {
	p.Config = p.Config.Machine()
	return p.Key()
}

// machineRuns counts the machine simulations RunGrid has started: shared
// runs, reruns of members that dropped out of one, and singletons.
var machineRuns atomic.Int64

// build makes a fresh kernel instance (programs are single-use).
func (p Point) build() (*workloads.Instance, error) {
	k, err := workloads.ByName(p.Kernel)
	if err != nil {
		return nil, err
	}
	return k.Build(workloads.Params{
		Size:   p.Size,
		Scale:  p.Scale,
		Shards: p.Shards,
		Seed:   p.Seed,
	}), nil
}

// runPoint executes one point alone on its own machine.
func runPoint(_ context.Context, p Point) (core.Result, error) {
	inst, err := p.build()
	if err != nil {
		return core.Result{}, err
	}
	return core.Run(inst.Program, p.Config)
}

// sharedRun is one shared run's outcome: a result per member, left zero
// at the members that dropped out and must be rerun alone.
type sharedRun struct {
	res     []core.Result
	dropped []int
}

// runShared executes points with equal machine keys on one machine.
func runShared(_ context.Context, ps []Point) (sharedRun, error) {
	inst, err := ps[0].build()
	if err != nil {
		return sharedRun{}, err
	}
	cfgs := make([]core.Config, len(ps))
	for i, p := range ps {
		cfgs[i] = p.Config
	}
	res, dropped, err := core.RunShared(inst.Program, cfgs)
	return sharedRun{res, dropped}, err
}

// RunGrid evaluates every point on the worker pool and returns the results
// in grid order. Points with equal machine keys form one pool job that
// simulates their machine once (core.RunShared) and reruns alone each
// member that would have steered it while another member was still live;
// a point whose config fails Validate is a job of its own. See Map for
// error and cancellation semantics.
func RunGrid(ctx context.Context, points []Point, opt Options) ([]core.Result, error) {
	g := grid{points: points, cache: opt.Cache, solo: runPoint, together: runShared}
	return g.run(ctx, opt.Workers)
}

// grid is one RunGrid call: its points, their result slots, and the solo
// and shared evaluations it runs them with (tests inject their own).
type grid struct {
	points   []Point
	out      []core.Result
	errs     []error
	cache    *Cache
	solo     func(context.Context, Point) (core.Result, error)
	together func(context.Context, []Point) (sharedRun, error)
}

func (g *grid) run(ctx context.Context, workers int) ([]core.Result, error) {
	g.out = make([]core.Result, len(g.points))
	g.errs = make([]error, len(g.points))
	jobs := groupPoints(g.points)
	ran, err := Map(ctx, jobs, func(ctx context.Context, job []int) (bool, error) {
		g.runJob(ctx, job)
		return true, nil
	}, Options{Workers: workers})
	if ctxErr := ctx.Err(); ctxErr != nil {
		err = ctxErr
	}
	for j, ok := range ran {
		if !ok {
			// Cancelled before it started.
			for _, i := range jobs[j] {
				g.errs[i] = err
			}
		}
	}
	if len(g.points) == 0 {
		return g.out, ctx.Err()
	}
	return g.out, joinPointErrors(g.errs)
}

// groupPoints partitions the grid into jobs of points with equal machine
// keys, each in grid order, the jobs ordered by their first point.
func groupPoints(points []Point) [][]int {
	var jobs [][]int
	at := make(map[string]int)
	for i, p := range points {
		if p.Config.Validate() != nil {
			// An invalid member fails alone, at its own index.
			jobs = append(jobs, []int{i})
			continue
		}
		k := p.machineKey()
		if j, ok := at[k]; ok {
			jobs[j] = append(jobs[j], i)
			continue
		}
		at[k] = len(jobs)
		jobs = append(jobs, []int{i})
	}
	return jobs
}

// runJob evaluates one job's points into their slots. With a cache, each
// point looks its key up once: the job simulates the points whose entries
// it created and settles them before it waits on the rest, which other
// evaluations (or this job's own duplicates) fill.
func (g *grid) runJob(ctx context.Context, job []int) {
	type found struct {
		i int
		e *cacheEntry
	}
	var (
		members []int
		keys    []string
		owned   []*cacheEntry
		waits   []found
	)
	for _, i := range job {
		if g.cache == nil {
			members = append(members, i)
			continue
		}
		k := g.points[i].Key()
		e, owner := g.cache.lookup(k)
		if !owner {
			waits = append(waits, found{i, e})
			continue
		}
		members = append(members, i)
		keys = append(keys, k)
		owned = append(owned, e)
	}
	ps := make([]Point, len(members))
	for m, i := range members {
		ps[m] = g.points[i]
	}
	res, errs := g.evalMembers(ctx, ps)
	for m, i := range members {
		g.out[i], g.errs[i] = res[m], errs[m]
		if g.cache != nil {
			g.cache.settle(keys[m], owned[m], res[m], errs[m])
		}
	}
	for _, w := range waits {
		v, err := w.e.wait()
		if err != nil {
			g.errs[w.i] = err
			continue
		}
		g.out[w.i] = v.(core.Result)
	}
}

// evalMembers simulates points with equal machine keys: one shared run,
// then a solo rerun of each member that dropped out of it. A shared run
// that fails or panics falls back to running every member alone, so each
// error lands on its own point. A single point runs alone, exactly as
// core.Run.
func (g *grid) evalMembers(ctx context.Context, ps []Point) ([]core.Result, []error) {
	res := make([]core.Result, len(ps))
	errs := make([]error, len(ps))
	rerun := make([]int, len(ps))
	for m := range rerun {
		rerun[m] = m
	}
	if len(ps) > 1 {
		machineRuns.Add(1)
		if s, err := callSafe(ctx, ps, g.together); err == nil {
			copy(res, s.res)
			rerun = s.dropped
		}
	}
	for _, m := range rerun {
		machineRuns.Add(1)
		res[m], errs[m] = callSafe(ctx, ps[m], g.solo)
	}
	return res, errs
}
