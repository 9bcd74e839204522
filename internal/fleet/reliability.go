// The request-reliability layer: client-side timeouts and budgeted
// retries over injected faults — gray stragglers, correlated rack power
// loss (see rackFail in rack.go), and transient per-service faults.
//
// The layer follows the flight recorder's integration pattern exactly:
// sim.rel is nil unless Config.Reliability arms a trigger, every hook on
// the hot path is a nil check, and a non-nil rel forces the single loop
// (parallelOK) so the layer's seeded draws — fault injection and backoff
// jitter — replay in the exact global event order at any worker count.
//
// Client model: each dispatched attempt carries the request's attempt
// counter; evTimeout expires it TimeoutS after enqueue unless the
// attempt already resolved (the counter mismatch stales the event, the
// incarnation trick from node churn applied to requests). An expired or
// faulted attempt bumps the counter — lazily cancelling the old
// attempt's in-flight copies — and either retries after a seeded
// exponential backoff, sheds (the fleet-wide token-bucket retry budget
// is empty), or terminally times out (MaxRetries exhausted). Every
// request therefore lands in exactly one terminal state:
// Completed + Dropped + TimedOut + Shed == Requests.
package fleet

import (
	"math"
	"math/rand"

	"sprinting/internal/trace"
)

// relSeed decorrelates the reliability layer's dedicated random stream
// (gray-node assignment, fault draws, backoff jitter) from the arrival,
// churn, and rack-admission streams.
const relSeed = 0x6a09e667f3bcc909

// relState is the reliability layer's live state hanging off a sim; nil
// when Config.Reliability is off, and every hook in the simulator is
// guarded by that nil check and nothing else.
type relState struct {
	timeoutS   float64
	backoffS   float64
	maxRetries int
	faultProb  float64

	// budget is the fleet-wide token-bucket retry budget: one token per
	// retry; ratePerS 0 leaves retries unbudgeted.
	budget tokenBucket

	// slowX is the per-node service-time multiplier (1 = healthy), nil
	// when gray failures are off so the healthy hot path skips the slice
	// read entirely.
	slowX []float64

	// rng is the layer's dedicated seeded stream; draws happen in global
	// event order, so they replay identically on every engine.
	rng *rand.Rand
}

// newRelState builds the layer's state for an n-node fleet; cfg must be
// defaulted and validated. The gray set is drawn first, so its
// membership depends only on (Seed, GrayFrac, n) — not on how the run
// later consumes the stream.
func newRelState(cfg Config, n int) *relState {
	rl := &relState{
		timeoutS:   cfg.Reliability.TimeoutS,
		backoffS:   cfg.Reliability.RetryBackoffS,
		maxRetries: cfg.Reliability.MaxRetries,
		faultProb:  cfg.Reliability.FaultProb,
		budget: tokenBucket{
			ratePerS: cfg.Reliability.RetryBudgetPerS,
			burst:    cfg.Reliability.RetryBurst,
			tokens:   cfg.Reliability.RetryBurst,
		},
		rng: rand.New(rand.NewSource(cfg.Seed ^ relSeed)),
	}
	if g := cfg.Reliability.GrayFrac; g > 0 {
		count := int(math.Round(g * float64(n)))
		if count < 1 {
			count = 1 // a positive fraction means at least one straggler
		}
		if count > n {
			count = n
		}
		rl.slowX = make([]float64, n)
		for i := range rl.slowX {
			rl.slowX[i] = 1
		}
		for _, v := range rl.rng.Perm(n)[:count] {
			rl.slowX[v] = cfg.Reliability.GraySlowdownX
		}
	}
	return rl
}

// tokenBucket is a lazily refilled token bucket shared by the retry
// budget and the workload SLO classes' admission budgets: tokens refills
// at ratePerS up to burst, one whole token per grant. Construct it with
// tokens = burst so the bucket starts charged.
type tokenBucket struct {
	ratePerS float64
	burst    float64
	tokens   float64
	refillS  float64
}

// take draws one token, refilling to the current instant first; it
// reports false — refuse the caller — when the bucket cannot cover a
// whole token. An unbudgeted bucket (ratePerS 0) always grants.
//
//sprint:hotpath
func (b *tokenBucket) take(nowS float64) bool {
	if b.ratePerS <= 0 {
		return true
	}
	if dt := nowS - b.refillS; dt > 0 {
		b.tokens = math.Min(b.burst, b.tokens+dt*b.ratePerS)
		b.refillS = nowS
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// takeToken draws one retry token from the fleet-wide budget.
//
//sprint:hotpath
func (rl *relState) takeToken(nowS float64) bool {
	return rl.budget.take(nowS)
}

// timeout is the evTimeout handler: the attempt's deadline passed. A
// resolved request or a bumped attempt counter stales the event — the
// completion, fault, or earlier retry already handled this attempt.
//
//sprint:hotpath
func (s *sim) timeout(ri int32, attempt uint8) {
	r := &s.reqs[ri]
	if r.fate != live || r.attempt != attempt {
		return
	}
	if s.rec != nil {
		s.rec.event(s, trace.Event{Kind: "req-timeout", Node: int(r.firstNode), Rack: -1, Req: int(ri), Phase: int(r.phase), DurS: s.rel.timeoutS})
	}
	s.clientRetry(ri)
}

// clientRetry is the client's reaction to a dead attempt (timeout or
// transient fault): bump the attempt counter — lazily staling the old
// attempt's in-flight copies and pending timeout — then either retire
// the request (retries exhausted → TimedOut; budget empty → Shed) or
// schedule the next attempt after an exponential, seeded-jitter backoff.
//
//sprint:hotpath
func (s *sim) clientRetry(ri int32) {
	r := &s.reqs[ri]
	r.attempt++
	if int(r.attempt) > s.rel.maxRetries {
		r.fate = timedOut
		if r.firstNode >= 0 {
			// Attributed to the node that held the last attempt, the same
			// convention as drop attribution: per-node timeouts always sum
			// to the fleet total.
			s.nodes[r.firstNode].stats.TimedOut++
		}
		if s.rec != nil {
			s.rec.reqAbandoned()
			s.rec.event(s, trace.Event{Kind: "timed-out", Node: int(r.firstNode), Rack: -1, Req: int(ri), Phase: int(r.phase)})
		}
		return
	}
	if !s.rel.takeToken(s.nowS) {
		r.fate = shed
		if s.rec != nil {
			s.rec.reqAbandoned()
			s.rec.event(s, trace.Event{Kind: "shed", Node: -1, Rack: -1, Req: int(ri), Phase: int(r.phase)})
		}
		return
	}
	// Retry k backs off backoffS·2^(k−1), jittered to ±50% by the seeded
	// stream so synchronized timeouts do not re-arrive in lockstep; the
	// exponent is capped well below float overflow.
	k := int(r.attempt)
	if k > 20 {
		k = 20
	}
	backoff := s.rel.backoffS * float64(int64(1)<<(k-1)) * (0.5 + s.rel.rng.Float64())
	s.push(s.nowS+backoff, event{kind: evRetry, req: ri, gen: uint64(r.attempt)})
}

// retry is the evRetry handler: dispatch the request's next attempt. The
// staleness guard is defensive — nothing bumps the attempt between
// scheduling and firing, because the old attempt's timeout is already
// stale and terminal states never schedule a retry.
//
//sprint:hotpath
func (s *sim) retry(ri int32, attempt uint8) {
	r := &s.reqs[ri]
	if r.fate != live || r.attempt != attempt {
		return
	}
	s.retryDispatch(ri)
}

// retryDispatch routes a retry attempt through the standard policy
// selection, arming its own timeout; a retry that finds no queue space
// anywhere is a terminal drop attributed to the would-be node, exactly
// like a fresh arrival's.
//
//sprint:hotpath
func (s *sim) retryDispatch(ri int32) {
	r := &s.reqs[ri]
	rr0 := s.rr
	n := s.selectNode(r.workS, -1)
	if n == nil || n.outstanding() >= s.cl(n).queueCap {
		if s.rec != nil {
			s.rec.decision(s, ri, "retry", n, rr0, -1, false)
		}
		s.drop(ri, n)
		return
	}
	if s.rec != nil {
		s.rec.decision(s, ri, "retry", n, rr0, -1, true)
	}
	n.stats.Retries++
	if s.scen != nil {
		s.scen.phases[r.phase].retries++
	}
	if s.wl != nil {
		s.wl.tallies[r.slo].retries++
	}
	r.firstNode = int32(n.id)
	s.enqueue(n, reqCopy{req: ri, attempt: r.attempt})
	if s.rel.timeoutS > 0 {
		s.pushAfter(s.rel.timeoutS, event{kind: evTimeout, req: ri, gen: uint64(r.attempt)})
	}
}
