package fleet

import (
	"fmt"
	"math"
	"testing"

	"sprinting/internal/session"
)

// The fleet serves each request with the session evaluator's governed
// discipline (both call governor.Serve), so with nothing between the
// stream and the node — no racks, no queue limit, no scenario or
// reliability — a fleet must reproduce session.Evaluate exactly. These
// two oracles pin that tie between the warehouse simulator and the
// paper's §7 session model.

// oracleConfig is a fleet with nothing between the request stream and
// the nodes: no racks, a queue longer than the stream, exact quantiles.
func oracleConfig(p Policy, nodes, requests int, gapS, workS float64) Config {
	cfg := DefaultConfig(p)
	cfg.Nodes = nodes
	cfg.Requests = requests
	cfg.QueueCap = requests + 1
	cfg.ExactQuantiles = true
	cfg.ArrivalRatePerS = 1 / gapS
	cfg.MeanWorkS = workS
	return cfg
}

// governed evaluates bursts with the session model's governed sprinting
// on the fleet's node platform.
func governed(cfg Config, bursts []session.Burst) session.Metrics {
	return session.Evaluate(bursts, session.GovernedSprint, session.Config{SprintWidth: cfg.SprintWidth, Governor: cfg.Node})
}

// TestOneNodeMatchesSession: a one-node fleet is one session. Both serve
// the same bursts FIFO through the same governor, so the response times
// agree bit for bit; only the mean's summation order differs.
func TestOneNodeMatchesSession(t *testing.T) {
	for _, p := range []Policy{RoundRobin, SprintAware} {
		for _, load := range []struct{ gapS, workS float64 }{{40, 2}, {10, 2}, {2, 4}, {1, 2}} {
			t.Run(fmt.Sprintf("%s/gap%g/work%g", p, load.gapS, load.workS), func(t *testing.T) {
				cfg := oracleConfig(p, 1, 600, load.gapS, load.workS)
				m := mustSimulate(t, cfg)
				sm := governed(cfg, session.GenerateBursts(cfg.Requests, 1/cfg.EffectiveRatePerS(), cfg.MeanWorkS, cfg.Seed))
				if m.Completed != cfg.Requests {
					t.Fatalf("fleet completed %d of %d requests", m.Completed, cfg.Requests)
				}
				if m.MaxS != sm.MaxResponseS || m.P95S != sm.P95ResponseS {
					t.Errorf("max/p95 %v/%v s, session %v/%v s", m.MaxS, m.P95S, sm.MaxResponseS, sm.P95ResponseS)
				}
				if math.Abs(m.MeanS-sm.MeanResponseS) > 1e-12*sm.MeanResponseS {
					t.Errorf("mean %v s, session %v s", m.MeanS, sm.MeanResponseS)
				}
				if full := 100 * (1 - m.SprintDenialRate); math.Abs(full-sm.FullIntensityPct) > 1e-9 {
					t.Errorf("full-width share %v%%, session %v%%", full, sm.FullIntensityPct)
				}
			})
		}
	}
}

// TestRoundRobinMatchesSessions: round-robin deals the stream out in turn,
// so N nodes are N independent sessions, node k serving every N-th burst
// from the k-th. The gaps run from light load to 2× overload per node.
func TestRoundRobinMatchesSessions(t *testing.T) {
	const nodes = 4
	for _, gapS := range []float64{10, 0.5, 0.25} {
		t.Run(fmt.Sprintf("gap%g", gapS), func(t *testing.T) {
			cfg := oracleConfig(RoundRobin, nodes, 400, gapS, 2)
			m := mustSimulate(t, cfg)
			bursts := session.GenerateBursts(cfg.Requests, 1/cfg.EffectiveRatePerS(), cfg.MeanWorkS, cfg.Seed)
			maxS, sumS := 0.0, 0.0
			for k := 0; k < nodes; k++ {
				var own []session.Burst
				for i := k; i < len(bursts); i += nodes {
					own = append(own, bursts[i])
				}
				sm := governed(cfg, own)
				maxS = math.Max(maxS, sm.MaxResponseS)
				sumS += sm.MeanResponseS * float64(len(own))
			}
			meanS := sumS / float64(len(bursts))
			if m.Completed != cfg.Requests {
				t.Fatalf("fleet completed %d of %d requests", m.Completed, cfg.Requests)
			}
			if m.MaxS != maxS {
				t.Errorf("max %v s, sessions %v s", m.MaxS, maxS)
			}
			if math.Abs(m.MeanS-meanS) > 1e-12*meanS {
				t.Errorf("mean %v s, sessions %v s", m.MeanS, meanS)
			}
		})
	}
}
