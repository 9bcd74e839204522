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
	for i, r := range rows {
		j := 0
		for s := range free {
			if free[s] < free[j] {
				j = s
			}
		}
		free[j] = max(free[j], r.ArrivalS) + r.WorkS
		lat[i] = free[j] - r.ArrivalS
	}
	return responseStats(lat)
}

// perNodeLindley is k independent single-server FCFS queues fed in
// rotation: arrival i joins queue i mod k, whose waits follow Lindley's
// recursion W' = max(0, W + S − A) over that queue's own arrivals. It
// returns the mean, the nearest-rank p99 and the maximum response time.
func perNodeLindley(rows []TraceRequest, k int) (mean, p99, maxS float64) {
	free := make([]float64, k)
	lat := make([]float64, len(rows))
	for i, r := range rows {
		j := i % k
		free[j] = max(free[j], r.ArrivalS) + r.WorkS
		lat[i] = free[j] - r.ArrivalS
	}
	return responseStats(lat)
}

// responseStats returns the mean (summed in arrival order), the
// nearest-rank p99 and the maximum of the response times lat, which it
// sorts.
func responseStats(lat []float64) (mean, p99, maxS float64) {
	sum := 0.0
	for _, l := range lat {
		sum += l
		maxS = max(maxS, l)
	}
	slices.Sort(lat)
	return sum / float64(len(lat)), lat[int(math.Ceil(0.99*float64(len(lat))))-1], maxS
}

// poissonRows draws n Poisson arrivals at rate rho·k with exponential
// work of mean 1 s, each 1 wide: load rho on k 1-wide nodes.
func poissonRows(rho float64, k, n int) []TraceRequest {
	rng := rand.New(rand.NewSource(int64(100 * rho)))
	rows := make([]TraceRequest, n)
	at := 0.0
	for i := range rows {
		at += rng.ExpFloat64() / (rho * float64(k))
		rows[i] = TraceRequest{ArrivalS: at, WorkS: rng.ExpFloat64(), Width: 1}
	}
	return rows
}

// TestLeastWorkLeftIsCentralFCFS checks the fleet against queueing theory
// rather than against itself. Dispatch to the server whose backlog drains
// first (least-work-left) makes every arrival wait, on every sample path,
// exactly as long as in one FCFS line in front of the k servers
// (Harchol-Balter, Crovella and Murta, JPDC 1999). With 1-wide requests
// on 1-wide nodes a service takes its work whatever the thermal budget
// or the rack grants — to one ulp: a service that a budget-limited slice
// splits comes back as maxFullS + (workS − maxFullS), which can round
// one ulp away from workS (see TestRoundRobinIsPerNodeLindley) — and
// least-loaded's drain key and sprint-aware's finish estimate are both
// least-work-left, so under every coordination the fleet's mean, p99 and
// max response must equal the central queue's. At these seeds the
// one-ulp splits do not reach the three statistics, which match bit for
// bit. The rows are Poisson arrivals with exponential work (mean
// 1 s) on 4 nodes, few enough that the quantiles are exact. Hedged
// dispatch duplicates work and is not least-work-left.
func TestLeastWorkLeftIsCentralFCFS(t *testing.T) {
	const k, n = 4, 1 << 16
	for _, rho := range []float64{0.5, 0.8, 0.95} {
		rows := poissonRows(rho, k, n)
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

// TestRoundRobinIsPerNodeLindley checks round-robin dispatch against
// queueing theory: arrival i goes to node i mod k whatever the fleet's
// state, so each node is a single FCFS server over its own arrivals and
// its waits follow Lindley's recursion. On the rows of
// TestLeastWorkLeftIsCentralFCFS, under every coordination and at one
// and two shard workers, the fleet's mean, p99 and max response must
// match the per-node reference.
//
// They match within 1e-12 relative, not bit for bit, because of
// governor.Serve: when a budget-limited slice splits a 1-wide service,
// Serve returns maxFullS + (workS − maxFullS), and about 2% of the
// services come back one ulp away from workS (at most 8.9e-16 s). Those
// errors move the mean by 2 ulps at rho 0.5 under every coordination but
// token-permit; p99 and max match to the bit. Once Serve returns a 1-wide
// service's work exactly (ROADMAP item 2's re-pin), this test should
// tighten to bit equality.
func TestRoundRobinIsPerNodeLindley(t *testing.T) {
	const k, n = 4, 1 << 16
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-12*math.Abs(want) }
	for _, rho := range []float64{0.5, 0.8, 0.95} {
		rows := poissonRows(rho, k, n)
		mean, p99, maxS := perNodeLindley(rows, k)
		t.Logf("rho %g: per-node Lindley mean %.4f s, p99 %.4f s, max %.4f s", rho, mean, p99, maxS)
		for _, c := range append([]Coordination{NoCoordination}, Coordinations()...) {
			for _, workers := range []int{1, 2} {
				cfg := DefaultConfig(RoundRobin)
				cfg.Nodes, cfg.SprintWidth, cfg.QueueCap, cfg.Coordination = k, 1, 1<<20, c
				cfg.Workers = workers
				m, _, err := Run(context.Background(), Spec{Config: cfg, Replay: rows})
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("rho=%g/%s/workers=%d", rho, c, workers)
				if m.Completed != n {
					t.Fatalf("%s: %d of %d requests completed", name, m.Completed, n)
				}
				if !near(m.MeanS, mean) || !near(m.P99S, p99) || !near(m.MaxS, maxS) {
					t.Errorf("%s: mean/p99/max %v/%v/%v, per-node Lindley %v/%v/%v",
						name, m.MeanS, m.P99S, m.MaxS, mean, p99, maxS)
				}
			}
		}
	}
}
