// Package session evaluates sprinting at the granularity the paper's
// introduction motivates: interactive use is "short bursts of intense
// computation punctuated by long idle periods waiting for user input"
// (§1, citing the user-activity studies of Shye et al.). A session is a
// trace of burst arrivals; the simulator services it under a policy —
// sustained single-core, governed sprinting (§7 budget management), or
// unmanaged sprinting — and reports the response-time distribution the
// user experiences plus any thermal-budget violations.
//
// Governed sprinting is governor.Serve, the same routine every fleet node
// runs (internal/fleet), so a one-node fleet reproduces a session exactly
// and a round-robin fleet of N nodes reproduces N sessions over every N-th
// burst; internal/fleet's TestOneNodeMatchesSession and
// TestRoundRobinMatchesSessions pin both.
//
// Service rates use the idealized linear-speedup model (one 1 W core
// retires one unit of work per unit time; a width-w sprint retires w),
// which the paper's Figure 7 justifies for its kernels at 16 cores; the
// cycle-accurate coupling lives in internal/core, this package answers the
// session-level pacing question.
package session

import (
	"fmt"
	"iter"
	"math"
	"math/rand"
	"sort"

	"sprinting/internal/governor"
	"sprinting/internal/series"
)

// Burst is one user-triggered computation demand.
type Burst struct {
	// ArrivalS is the arrival time in seconds from session start.
	ArrivalS float64
	// WorkS is the burst's work in single-core seconds.
	WorkS float64
}

// GenerateBursts produces a deterministic session trace: the n bursts
// Bursts draws, collected into a slice. Callers that only pass the
// stream through — the fleet simulator copies it into its request arena
// — range over Bursts instead and never hold the slice.
func GenerateBursts(n int, meanGapS, meanWorkS float64, seed int64) []Burst {
	if n <= 0 {
		return nil
	}
	bursts := make([]Burst, 0, n)
	for b := range Bursts(n, meanGapS, meanWorkS, seed) {
		bursts = append(bursts, b)
	}
	return bursts
}

// Bursts streams a deterministic session trace: n bursts with
// exponential inter-arrival gaps (mean meanGapS) and exponential work
// (mean meanWorkS), clamped to a sensible range. The gap clamp scales with
// the mean (meanGapS/8, capped at the interactive 0.1 s floor) so
// fleet-scale arrival rates well beyond 10 bursts/s stay expressible while
// interactive traces keep their historical floor. Each range over the
// sequence reseeds its own generator, so every pass yields the same
// bursts.
func Bursts(n int, meanGapS, meanWorkS float64, seed int64) iter.Seq[Burst] {
	return func(yield func(Burst) bool) {
		rng := rand.New(rand.NewSource(seed))
		t := 0.0
		minGapS := math.Min(0.1, meanGapS/8)
		if minGapS <= 0 {
			// Degenerate mean: keep the historical 0.1 s-spaced trace rather
			// than collapsing every burst onto t = 0.
			minGapS = 0.1
		}
		for i := 0; i < n; i++ {
			if i > 0 {
				t += clamp(rng.ExpFloat64()*meanGapS, minGapS, meanGapS*8)
			}
			w := clamp(rng.ExpFloat64()*meanWorkS, meanWorkS/8, meanWorkS*6)
			if !yield(Burst{ArrivalS: t, WorkS: w}) {
				return
			}
		}
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Policy selects how bursts are serviced.
type Policy int

// Policies.
const (
	// SustainedPolicy serves every burst on the single sustainable core.
	SustainedPolicy Policy = iota
	// GovernedSprint sprints within the §7 budget: full width when the
	// budget allows, degraded intensity otherwise (never a violation).
	GovernedSprint
	// UnmanagedSprint always sprints at full width, ignoring the budget —
	// the straw man showing why the governor exists. Work executed beyond
	// the budget is counted as a thermal violation (in a real system the
	// hardware throttle would fire).
	UnmanagedSprint
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case SustainedPolicy:
		return "sustained"
	case GovernedSprint:
		return "governed sprint"
	case UnmanagedSprint:
		return "unmanaged sprint"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Config parameterizes the session evaluation.
type Config struct {
	// SprintWidth is the number of 1 W sprint cores (16).
	SprintWidth int
	// Governor configures the budget model.
	Governor governor.Config
}

// DefaultConfig returns the paper's platform.
func DefaultConfig() Config {
	return Config{SprintWidth: 16, Governor: governor.DefaultConfig()}
}

// Metrics summarizes the user-visible outcome of a session.
type Metrics struct {
	Policy Policy

	// MeanResponseS / P95ResponseS / MaxResponseS describe the
	// response-time distribution (completion − arrival, including queueing
	// behind an unfinished previous burst).
	MeanResponseS float64
	P95ResponseS  float64
	MaxResponseS  float64

	// FullIntensityPct is the fraction of bursts served start-to-finish at
	// full sprint width.
	FullIntensityPct float64

	// ViolationJ is energy executed above the thermal budget (unmanaged
	// policy only; the governor keeps it zero by construction).
	ViolationJ float64

	// SessionS is the completion time of the last burst.
	SessionS float64
}

// Evaluate services the burst trace under the policy and returns metrics.
// Bursts are served FIFO: a burst arriving before the previous one
// finishes queues behind it.
func Evaluate(bursts []Burst, policy Policy, cfg Config) Metrics {
	m := Metrics{Policy: policy}
	if len(bursts) == 0 {
		return m
	}
	gov := governor.New(cfg.Governor)
	width := float64(cfg.SprintWidth)
	powerW := cfg.Governor.SprintPowerW

	responses := make([]float64, 0, len(bursts))
	fullCount := 0
	free := 0.0 // when the "CPU" is next free

	for _, b := range bursts {
		start := math.Max(b.ArrivalS, free)
		gov.Idle(start - gov.Now()) // the gap before service begins, if any
		var serviceS float64
		switch policy {
		case SustainedPolicy:
			serviceS = b.WorkS
			gov.Sustain(serviceS)
		case UnmanagedSprint:
			serviceS = b.WorkS / width
			// Charge the budget; anything beyond capacity is a violation.
			grantedS := math.Min(serviceS, gov.MaxSprintS(powerW))
			gov.RecordSprint(powerW, serviceS)
			if serviceS > grantedS {
				m.ViolationJ += (serviceS - grantedS) * (powerW - cfg.Governor.NominalPowerW)
			}
			if grantedS >= serviceS {
				fullCount++
			}
		case GovernedSprint:
			var full bool
			serviceS, _, _, full = gov.Serve(b.WorkS, width, powerW)
			if full {
				fullCount++
			}
		}
		free = start + serviceS
		responses = append(responses, free-b.ArrivalS)
	}
	sort.Float64s(responses)
	sum := 0.0
	for _, r := range responses {
		sum += r
	}
	m.MeanResponseS = sum / float64(len(responses))
	m.P95ResponseS = series.Quantile(responses, 0.95)
	m.MaxResponseS = responses[len(responses)-1]
	m.FullIntensityPct = 100 * float64(fullCount) / float64(len(bursts))
	if policy == SustainedPolicy {
		m.FullIntensityPct = 0
	}
	m.SessionS = free
	return m
}
