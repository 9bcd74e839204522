// Package trace is the flight-recorder sink for the fleet simulator: the
// schema of the records internal/fleet's recorder emits (dispatch
// decisions with their rejected alternatives, lifecycle events, rolling
// timeline samples), the in-memory Trace container that holds one run's
// recording, its JSONL codec (jsonl.go), and the summary helpers the
// CLI's -trace-summary table is built from.
//
// The package is deliberately passive — it never touches simulation
// state. The fleet recorder appends records in the exact global event
// order its serialized engines replay, so a Trace (and therefore its
// JSONL serialization) is byte-identical at any worker count; everything
// here is plain data and pure functions over it.
package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Level selects how much the fleet flight recorder captures.
type Level int

const (
	// LevelOff disables the recorder entirely: the simulation hot path
	// carries a single nil check and allocates nothing.
	LevelOff Level = iota
	// LevelDecisions records every dispatch decision (chosen node, winning
	// key, top-k rejected alternatives with counterfactual probes),
	// lifecycle events, and the rolling timeline samples.
	LevelDecisions
	// LevelFull adds per-request service-start and completion events on
	// top of everything LevelDecisions captures.
	LevelFull
)

// String names the level; ParseLevel accepts these names.
func (l Level) String() string {
	switch l {
	case LevelOff:
		return "off"
	case LevelDecisions:
		return "decisions"
	case LevelFull:
		return "full"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// ParseLevel maps a level name to its Level.
func ParseLevel(s string) (Level, error) {
	for _, l := range []Level{LevelOff, LevelDecisions, LevelFull} {
		if l.String() == s {
			return l, nil
		}
	}
	return 0, fmt.Errorf("trace: unknown level %q (want off|decisions|full)", s)
}

// Meta is the recording's header: the run shape a reader needs to
// interpret the records without the originating Config.
type Meta struct {
	Policy       string  `json:"policy"`
	Coordination string  `json:"coordination"`
	Nodes        int     `json:"nodes"`
	Racks        int     `json:"racks"`
	Requests     int     `json:"requests"`
	Seed         int64   `json:"seed"`
	Level        string  `json:"level"`
	WindowS      float64 `json:"window_s"`
	TopK         int     `json:"topk"`
}

// Alt is one rejected dispatch alternative: the node, the routing key it
// scored (same kind as the decision's winning key), and the
// counterfactual completion instant the request would have seen on it —
// resolved against the node's realized future once every copy that was
// ahead of the hypothetical one has departed. HypoDoneS is -1 while
// unresolved (the node failed first, or the run ended).
type Alt struct {
	Node      int     `json:"node"`
	Key       float64 `json:"key"`
	HypoDoneS float64 `json:"hypo_done_s"`
}

// Decision is one dispatch decision: a fresh arrival (kind "dispatch"),
// a hedge duplication ("hedge"), a failure-churn failover
// ("redispatch"), or a client retry of a timed-out or faulted attempt
// ("retry"). Node is -1 when the outcome is "dropped" with no
// attribution target. The counterfactual columns (DoneS, BestAlt,
// BestAltDoneS, RegretS) are filled when the run drains: RegretS =
// DoneS − BestAltDoneS, so a positive regret means the best rejected
// alternative would have finished the request sooner. BestAlt is -1
// (and RegretS 0) when no alternative resolved or the request never
// completed.
type Decision struct {
	Kind    string  `json:"kind"`
	Req     int     `json:"req"`
	Phase   int     `json:"phase"`
	Node    int     `json:"node"`
	Outcome string  `json:"outcome"` // enqueued|dropped
	Key     float64 `json:"key"`
	KeyKind string  `json:"key_kind"` // drain|budget|rotation
	WorkS   float64 `json:"work_s"`
	Alts    []Alt   `json:"alts,omitempty"`

	DoneS        float64 `json:"done_s"`
	BestAlt      int     `json:"best_alt"`
	BestAltDoneS float64 `json:"best_alt_done_s"`
	RegretS      float64 `json:"regret_s"`
}

// Event is one lifecycle event. Fields that do not apply to a kind are
// -1 (indices) or 0 (durations).
type Event struct {
	Kind  string  `json:"kind"` // hedge-win|hedge-suppress|permit-deny|breaker-trip|breaker-reset|node-fail|node-recover|rack-fail|gray-node|sprint-start|sprint-end|phase-start|service-start|complete|stale-complete|fault|req-timeout|timed-out|shed
	Node  int     `json:"node"`
	Rack  int     `json:"rack"`
	Req   int     `json:"req"`
	Phase int     `json:"phase"`
	Name  string  `json:"name,omitempty"`
	DurS  float64 `json:"dur_s"`
}

// Sample is one rolling timeline window: completions and latency
// quantiles over (StartS, EndS], and the instantaneous fleet state at
// the window boundary — in-flight requests, concurrent sprint phases,
// and (with rack power domains enabled) per-rack power draw and buffer
// charge projected to the boundary. P50S/P99S are -1 when the window
// completed nothing.
type Sample struct {
	StartS        float64   `json:"start_s"`
	EndS          float64   `json:"end_s"`
	Phase         int       `json:"phase"`
	Completed     int       `json:"completed"`
	ThroughputRPS float64   `json:"throughput_rps"`
	P50S          float64   `json:"p50_s"`
	P99S          float64   `json:"p99_s"`
	InFlight      int       `json:"in_flight"`
	Sprints       int       `json:"sprints"`
	RackDrawW     []float64 `json:"rack_draw_w,omitempty"`
	RackBufferJ   []float64 `json:"rack_buffer_j,omitempty"`
}

// Record is one line of the recording: exactly one of Decision, Event,
// or Sample, tagged by T ("decision", "event", "sample") and stamped
// with the simulated instant it was recorded at and its position in the
// recorder's append order.
type Record struct {
	T        string    `json:"t"`
	AtS      float64   `json:"at_s"`
	Seq      uint64    `json:"seq"`
	Decision *Decision `json:"decision,omitempty"`
	Event    *Event    `json:"event,omitempty"`
	Sample   *Sample   `json:"sample,omitempty"`
}

// Trace is one run's complete recording: the header plus every record in
// recorder append order — the exact global event order, so two runs of
// the same configuration produce identical Traces at any worker count.
type Trace struct {
	Meta    Meta
	Records []Record
}

// DecisionAt pairs a decision record with its timestamp; the Decision
// pointer aliases the trace.
type DecisionAt struct {
	AtS float64
	*Decision
}

// Decisions returns every decision record with its timestamp, in record
// order.
func (tr *Trace) Decisions() []DecisionAt {
	var out []DecisionAt
	for i := range tr.Records {
		if r := &tr.Records[i]; r.Decision != nil {
			out = append(out, DecisionAt{AtS: r.AtS, Decision: r.Decision})
		}
	}
	return out
}

// Samples returns the timeline sample records in order (aliasing the
// trace).
func (tr *Trace) Samples() []Sample {
	var out []Sample
	for i := range tr.Records {
		if r := &tr.Records[i]; r.Sample != nil {
			out = append(out, *r.Sample)
		}
	}
	return out
}

// Events returns the lifecycle event records of the given kinds (all
// kinds when none are named), with timestamps, in record order.
func (tr *Trace) Events(kinds ...string) []struct {
	AtS float64
	Event
} {
	var out []struct {
		AtS float64
		Event
	}
	for i := range tr.Records {
		r := &tr.Records[i]
		if r.Event == nil {
			continue
		}
		if len(kinds) > 0 {
			ok := false
			for _, k := range kinds {
				if r.Event.Kind == k {
					ok = true
					break
				}
			}
			if !ok {
				continue
			}
		}
		out = append(out, struct {
			AtS float64
			Event
		}{r.AtS, *r.Event})
	}
	return out
}

// Regret is one entry of the regret leaderboard: a completed decision
// whose best resolved alternative is compared against the realized
// completion.
type Regret struct {
	AtS     float64
	Kind    string
	Req     int
	Node    int
	BestAlt int
	DoneS   float64
	RegretS float64
}

// TopRegret returns the n highest-regret decisions — those where the
// best rejected alternative would have finished soonest relative to the
// realized completion — sorted by descending regret (ties by record
// order). Decisions that never completed or resolved no alternative are
// excluded.
func (tr *Trace) TopRegret(n int) []Regret {
	var all []Regret
	for i := range tr.Records {
		r := &tr.Records[i]
		d := r.Decision
		if d == nil || d.BestAlt < 0 || d.DoneS < 0 {
			continue
		}
		all = append(all, Regret{
			AtS: r.AtS, Kind: d.Kind, Req: d.Req, Node: d.Node,
			BestAlt: d.BestAlt, DoneS: d.DoneS, RegretS: d.RegretS,
		})
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].RegretS > all[j].RegretS })
	if n > 0 && len(all) > n {
		all = all[:n]
	}
	return all
}

// sparkBlocks are the eight block glyphs Sparkline scales values onto.
var sparkBlocks = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders the values as a unicode block sparkline scaled
// between their min and max (a flat series renders as all-low blocks);
// negative sentinel values (-1 "no data") render as spaces.
func Sparkline(vals []float64) string {
	lo, hi := 0.0, 0.0
	first := true
	for _, v := range vals {
		if v < 0 {
			continue
		}
		if first || v < lo {
			lo = v
		}
		if first || v > hi {
			hi = v
		}
		first = false
	}
	var b strings.Builder
	for _, v := range vals {
		switch {
		case v < 0:
			b.WriteRune(' ')
		case hi == lo:
			b.WriteRune(sparkBlocks[0])
		default:
			i := int((v - lo) / (hi - lo) * float64(len(sparkBlocks)-1))
			if i < 0 {
				i = 0
			}
			if i >= len(sparkBlocks) {
				i = len(sparkBlocks) - 1
			}
			b.WriteRune(sparkBlocks[i])
		}
	}
	return b.String()
}
