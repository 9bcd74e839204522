package fleet

import (
	"context"
	"math"
	"testing"

	"sprinting/internal/session"
)

// TestSimulateSteadyStateAllocations is the allocation-budget guard for
// the arena work: events are heap values, requests live in one arena,
// queued copies are 8-byte values, and the dispatch index never
// allocates per query — so growing the trace must not grow the
// allocation count beyond slack for amortized container growth. A
// per-request allocation anywhere in the event loop would add thousands
// of allocations to the delta and fail loudly. The hedged run with client
// timeouts puts both timer kinds on the event queue's lanes, whose rings
// must grow amortized too.
func TestSimulateSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	ctx := context.Background()
	for _, c := range []struct {
		p        Policy
		timeoutS float64
	}{{LeastLoaded, 0}, {SprintAware, 0}, {Hedged, 0}, {Hedged, 5}} {
		name := c.p.String()
		if c.timeoutS > 0 {
			name += " with timeouts"
		}
		cfgFor := func(requests int) Config {
			cfg := DefaultConfig(c.p)
			cfg.Nodes = 16
			cfg.Requests = requests
			cfg.Seed = 3
			cfg.Reliability.TimeoutS = c.timeoutS
			return cfg
		}
		small := testing.AllocsPerRun(3, func() {
			if _, _, err := Run(ctx, Spec{Config: cfgFor(2000)}); err != nil {
				t.Fatal(err)
			}
		})
		large := testing.AllocsPerRun(3, func() {
			if _, _, err := Run(ctx, Spec{Config: cfgFor(10000)}); err != nil {
				t.Fatal(err)
			}
		})
		if delta := large - small; delta > 32 {
			t.Errorf("%s: 5× the trace cost %.0f extra allocations (%.0f → %.0f); the event loop is allocating per request",
				name, delta, small, large)
		}
		// The flight recorder's zero-cost-when-off contract: tracing is
		// keyed on the level, so a Config with trace knobs set but the
		// level off must allocate exactly what the untraced run does —
		// the recorder hooks are nil checks, nothing more.
		traceOff := testing.AllocsPerRun(3, func() {
			cfg := cfgFor(10000)
			cfg.Trace = TraceConfig{TopK: 5, WindowS: 1}
			if _, _, err := Run(ctx, Spec{Config: cfg}); err != nil {
				t.Fatal(err)
			}
		})
		// Compared with constant slack (pool warm-up makes single-digit
		// jitter in either direction); any per-request recorder cost would
		// show up as thousands.
		if traceOff-large > 8 {
			t.Errorf("%s: Trace-off run costs %.0f allocations vs %.0f untraced; the off path is not free",
				name, traceOff, large)
		}
		// Coupled policies take the single loop at any worker count, so
		// Workers 8 must allocate what the Workers 0 run does: no
		// per-shard heaps, routing tables, or extra index segments.
		sharded := testing.AllocsPerRun(3, func() {
			cfg := cfgFor(10000)
			cfg.Workers = 8
			if _, _, err := Run(ctx, Spec{Config: cfg}); err != nil {
				t.Fatal(err)
			}
		})
		if sharded-large > 8 {
			t.Errorf("%s: Workers 8 run costs %.0f allocations vs %.0f at Workers 0; a coupled run is building shard state",
				name, sharded, large)
		}
	}
}

// TestOneEventPerSprintingService is an exact work counter for the event
// heap: on a sprint-aware token-permit fleet every admitted sprint phase
// covers its whole service, so each service's rack sprint-end rides its
// completion event and the run pushes exactly one event per service
// (token permits never overdraw the rack, so no breaker trip is ever
// scheduled). A separate sprint-end event per phase would read 36,602
// pushes here.
func TestOneEventPerSprintingService(t *testing.T) {
	cfg := DefaultConfig(SprintAware)
	cfg.Nodes = 64
	cfg.Requests = 20000
	cfg.Coordination = TokenPermit
	cfg.RackSize = 16
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	s := newSim(cfg, nil, nil, nil)
	bursts := session.GenerateBursts(cfg.Requests, 1/cfg.EffectiveRatePerS(), cfg.MeanWorkS, cfg.Seed)
	s.reqs = make([]request, len(bursts))
	for i, b := range bursts {
		s.reqs[i] = request{arrivalS: b.ArrivalS, workS: b.WorkS, doneS: -1, firstNode: -1}
	}
	m, err := s.start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	served := 0
	for _, ns := range m.Nodes {
		served += ns.Served
	}
	if served != cfg.Requests {
		t.Fatalf("served %d of %d requests; the stream should fit the fleet", served, cfg.Requests)
	}
	if s.seq != uint64(served) {
		t.Errorf("%d heap pushes for %d services; a full-width sprint must retire its rack phase in its completion event", s.seq, served)
	}
}

// TestHedgeSuppressionCounted pins the silent-hedge bugfix: under
// overload into tiny queues most hedge checks find no spare capacity
// anywhere, and those suppressed hedges must be counted rather than
// vanish. The exact count is pinned because the simulation is a pure
// function of the config.
func TestHedgeSuppressionCounted(t *testing.T) {
	cfg := DefaultConfig(Hedged)
	cfg.Nodes = 4
	cfg.Requests = 2000
	cfg.QueueCap = 2
	cfg.ArrivalRatePerS = 2 * float64(cfg.Nodes) / cfg.MeanWorkS // 2× overload
	m := mustSimulate(t, cfg)
	if m.HedgesSuppressed == 0 {
		t.Fatal("overload into 2-deep queues should suppress hedges")
	}
	const wantSuppressed = 238
	if m.HedgesSuppressed != wantSuppressed {
		t.Errorf("HedgesSuppressed = %d, want pinned %d", m.HedgesSuppressed, wantSuppressed)
	}
	// Every hedge check resolves exactly one way: issued, suppressed, or
	// moot (request already finished or dropped before the check fired).
	if m.HedgesIssued+m.HedgesSuppressed > m.Requests {
		t.Errorf("hedge accounting overflows the trace: %d issued + %d suppressed > %d requests",
			m.HedgesIssued, m.HedgesSuppressed, m.Requests)
	}
	// A lightly loaded fleet suppresses nothing.
	light := DefaultConfig(Hedged)
	light.Nodes = 16
	light.Requests = 500
	light.ArrivalRatePerS = 1
	lm := mustSimulate(t, light)
	if lm.HedgesSuppressed != 0 {
		t.Errorf("light load suppressed %d hedges, want 0", lm.HedgesSuppressed)
	}
}

// TestHistogramQuantileContract verifies the streaming-vs-exact switch:
// above the cutoff the histogram path reports exact mean/max, flags
// ApproxQuantiles, and lands every percentile within one log-scale bin
// (≤ 1.81%) of the exact buffered answer; ExactQuantiles opts back into
// buffering at any scale and reproduces the exact path bit-for-bit.
func TestHistogramQuantileContract(t *testing.T) {
	big := DefaultConfig(LeastLoaded)
	big.Nodes = 64
	big.Requests = exactQuantileCutoff + 8000
	big.MeanWorkS = 0.2

	approx := mustSimulate(t, big)
	if !approx.ApproxQuantiles {
		t.Fatalf("%d requests should stream through the histogram", big.Requests)
	}

	exactCfg := big
	exactCfg.ExactQuantiles = true
	exact := mustSimulate(t, exactCfg)
	if exact.ApproxQuantiles {
		t.Fatal("ExactQuantiles must force the buffered path")
	}

	// Max is the same observed float in both modes; the means differ only
	// in summation order (the exact path sums after sorting), so compare
	// to machine precision.
	if approx.MaxS != exact.MaxS {
		t.Errorf("max must be exact in both modes: %.17g vs %.17g", approx.MaxS, exact.MaxS)
	}
	if math.Abs(approx.MeanS-exact.MeanS) > 1e-12*exact.MeanS {
		t.Errorf("mean must be exact in both modes: %.17g vs %.17g", approx.MeanS, exact.MeanS)
	}
	if approx.Completed != exact.Completed || approx.TotalEnergyJ != exact.TotalEnergyJ {
		t.Error("quantile mode must not change the simulation itself")
	}
	binFactor := math.Pow(10, 1.0/128)
	for _, q := range []struct {
		name         string
		approx, want float64
	}{
		{"p50", approx.P50S, exact.P50S},
		{"p95", approx.P95S, exact.P95S},
		{"p99", approx.P99S, exact.P99S},
		{"p999", approx.P999S, exact.P999S},
	} {
		if q.approx < q.want/binFactor || q.approx > q.want*binFactor {
			t.Errorf("%s: histogram %.6g vs exact %.6g exceeds the one-bin contract", q.name, q.approx, q.want)
		}
	}

	// Below the cutoff the default is already exact.
	small := mustSimulate(t, DefaultConfig(LeastLoaded))
	if small.ApproxQuantiles {
		t.Error("small traces must keep exact quantiles by default")
	}
}
