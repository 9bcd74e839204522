package fleet

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// centralFCFS is the textbook k-server queue with one central FCFS line:
// each arrival, in order, starts on the server that frees first, at its
// arrival or at that instant, whichever is later. It returns the mean,
// the nearest-rank p99 and the maximum response time.
func centralFCFS(rows []TraceRequest, k int) (mean, p99, maxS float64) {
	free := make([]float64, k)
	lat := make([]float64, len(rows))
	sum := 0.0
	for i, r := range rows {
		j := 0
		for s := range free {
			if free[s] < free[j] {
				j = s
			}
		}
		free[j] = max(free[j], r.ArrivalS) + r.WorkS
		lat[i] = free[j] - r.ArrivalS
		sum += lat[i]
		maxS = max(maxS, lat[i])
	}
	slices.Sort(lat)
	return sum / float64(len(lat)), lat[int(math.Ceil(0.99*float64(len(lat))))-1], maxS
}

// TestLeastWorkLeftIsCentralFCFS checks the fleet against queueing theory
// rather than against itself. Dispatch to the server whose backlog drains
// first (least-work-left) makes every arrival wait, on every sample path,
// exactly as long as in one FCFS line in front of the k servers
// (Harchol-Balter, Crovella and Murta, JPDC 1999). With 1-wide requests
// on 1-wide nodes a service takes its work whatever the thermal budget
// or the rack grants, and least-loaded's drain key and sprint-aware's
// finish estimate are both least-work-left, so under every coordination
// the fleet's mean, p99 and max response must equal the central queue's
// bit for bit. The rows are Poisson arrivals with exponential work (mean
// 1 s) on 4 nodes, few enough that the quantiles are exact. Hedged
// dispatch duplicates work and is not least-work-left.
func TestLeastWorkLeftIsCentralFCFS(t *testing.T) {
	const k, n = 4, 1 << 16
	for _, rho := range []float64{0.5, 0.8, 0.95} {
		rng := rand.New(rand.NewSource(int64(100 * rho)))
		rows := make([]TraceRequest, n)
		at := 0.0
		for i := range rows {
			at += rng.ExpFloat64() / (rho * k)
			rows[i] = TraceRequest{ArrivalS: at, WorkS: rng.ExpFloat64(), Width: 1}
		}
		mean, p99, maxS := centralFCFS(rows, k)
		t.Logf("rho %g: central FCFS mean %.4f s, p99 %.4f s, max %.4f s", rho, mean, p99, maxS)
		for _, p := range []Policy{LeastLoaded, SprintAware} {
			for _, c := range append([]Coordination{NoCoordination}, Coordinations()...) {
				cfg := DefaultConfig(p)
				cfg.Nodes, cfg.SprintWidth, cfg.QueueCap, cfg.Coordination = k, 1, 1<<20, c
				m, _, err := Run(context.Background(), Spec{Config: cfg, Replay: rows})
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("rho=%g/%s/%s", rho, p, c)
				if m.Completed != n {
					t.Fatalf("%s: %d of %d requests completed", name, m.Completed, n)
				}
				if m.MeanS != mean || m.P99S != p99 || m.MaxS != maxS {
					t.Errorf("%s: mean/p99/max %v/%v/%v, central FCFS %v/%v/%v",
						name, m.MeanS, m.P99S, m.MaxS, mean, p99, maxS)
				}
			}
		}
	}
}
