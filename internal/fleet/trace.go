// The flight recorder: when Run is given a Config.Trace level other than
// LevelOff, a recorder hangs off the sim and captures every dispatch
// decision (chosen node, the key that won, the top-k rejected
// alternatives), the lifecycle events around it, and a rolling timeline
// of fleet state — then resolves counterfactual probes against each
// alternative's realized future and emits per-decision regret.
//
// Five invariants shape the implementation:
//
//   - Zero cost when off. The recorder is a nil pointer on the sim
//     unless the trace level is on, and every hook is a nil check on the
//     hot path, so an untraced run never allocates or branches further
//     for it (TestSimulateSteadyStateAllocations pins this).
//
//   - Byte-identical at any worker count. A recorder forces the single
//     loop (parallelOK returns false), which fires events in the exact
//     global (time, seq) order whatever Workers says; the recorder
//     appends in handler order, so the resulting Trace — and its JSONL
//     bytes — are identical at every Workers value
//     (TestTraceShardedMatchesSequential).
//
//   - Observation only. Every hook reads simulation state and writes
//     recorder state, never the reverse: the alternatives come from a
//     read-only best-first walk of the dispatch index that writes no
//     tree (TestAltsReadOnly), and the rotation counter is never
//     advanced; probes watch departures without touching queues, and
//     timeline samples project rack buffers to the window boundary
//     without accruing them — so a traced run's Metrics equal the
//     untraced run's exactly (TestTracedMetricsUnchanged).
//
//   - O(k log N) per decision while the tie sets last. The top-k
//     alternatives are the selector's own next-best nodes under its
//     (key, rotation) order: the walk (altWalk) lists a tree's tied
//     nodes in rotation order, O(log N) each, and reaches past them by
//     bounded best-first expansion on the sim's frontier queue, degrading
//     toward a scan of the fleet only as the ties run out. The O(N) scan
//     survives as the scanAlts oracle (TestIndexedAltsMatchScan).
//
//   - Streamed in seq order, holding only unsettled records. Every record
//     waits in a ring until it and every record before it are final, then
//     goes to the one sink — the JSONL Encoder on TraceConfig.Writer, or
//     the in-memory Trace — so both sinks see the same records in the
//     same order (TestTraceStreamMatchesCollected). An event or a sample
//     is final when emitted; a decision once its request's fate is no
//     longer live (so its completion is known) and every probe it planted
//     has resolved or been aborted. The ring's length is the span from
//     the oldest unsettled decision to the newest record, and resolved
//     probe slots are reused, so the recorder's memory follows in-flight
//     state, not run length (TestTraceHoldBounded). The head advances
//     lazily from tick and finalize; the fate sites carry no hook. A
//     ring slot is pointer-free — kind codes, int32 ids, and the
//     alternatives' position in a queue of their own — so the garbage
//     collector never scans the ring, and a trace.Record is built only
//     as the record reaches the sink.
//
// The counterfactual model: for each recorded alternative the probe
// counts the copies outstanding on that node at decision time. Service
// is FIFO and non-preemptive, so exactly those copies depart (complete
// or cancel) before a hypothetically enqueued copy would have started;
// when the count hits zero the probe resolves at that instant against
// the node's realized governor state using the same governed service
// estimate sprint-aware dispatch scores with (estFinishAt, whose service
// time the node's governor projects: Governor.ProjectS). Rack
// admission is not simulated for the hypothetical copy — like the
// dispatch estimator, the probe answers "when would this node's thermal
// trajectory have finished the work", given everything that actually
// happened to the node. A probe whose node fails first stays unresolved.
package fleet

import (
	"io"
	"math"

	"sprinting/internal/series"
	"sprinting/internal/trace"
)

// TraceConfig configures the flight recorder. The zero value (LevelOff)
// disables it.
type TraceConfig struct {
	// Level selects the capture depth: off, decisions, or full (see
	// trace.Level).
	Level trace.Level
	// TopK is how many rejected alternatives each decision records and
	// probes (0 selects 3).
	TopK int
	// WindowS is the timeline sample window in simulated seconds
	// (0 selects 5).
	WindowS float64
	// Writer, when set, receives the recording as JSONL while the run
	// proceeds, each record as soon as it and every earlier record are
	// final, and Run returns a nil trace; it needs a Level other than
	// LevelOff. Run writes no partial line but may leave a cancelled or
	// failed run's prefix behind.
	Writer io.Writer
}

// withDefaults resolves the recorder knobs.
func (tc TraceConfig) withDefaults() TraceConfig {
	if tc.TopK == 0 {
		tc.TopK = 3
	}
	if tc.WindowS == 0 {
		tc.WindowS = 5
	}
	return tc
}

// cfProbe is one pending counterfactual: the alternative at position alt
// of the recorder's alternatives queue, recorded by the decision with
// sequence number seq, resolves once pending departures have left the
// node whose watch list holds it.
type cfProbe struct {
	seq     uint64
	alt     uint32
	pending int32
	workS   float64
}

// recKind is a record's type and kind in one byte: the decision kinds,
// then the lifecycle event kinds, then the timeline sample.
type recKind uint8

const (
	kindDispatch recKind = iota
	kindHedge
	kindRedispatch
	kindRetry
	kindHedgeWin // the first event kind
	kindHedgeSuppress
	kindPermitDeny
	kindBreakerTrip
	kindBreakerReset
	kindNodeFail
	kindNodeRecover
	kindRackFail
	kindGrayNode
	kindSprintStart
	kindSprintEnd
	kindPhaseStart
	kindServiceStart
	kindComplete
	kindStaleComplete
	kindFault
	kindReqTimeout
	kindTimedOut
	kindShed
	kindSample
)

// kindNames spells each decision and event kind as the recording does.
var kindNames = [...]string{
	kindDispatch:      "dispatch",
	kindHedge:         "hedge",
	kindRedispatch:    "redispatch",
	kindRetry:         "retry",
	kindHedgeWin:      "hedge-win",
	kindHedgeSuppress: "hedge-suppress",
	kindPermitDeny:    "permit-deny",
	kindBreakerTrip:   "breaker-trip",
	kindBreakerReset:  "breaker-reset",
	kindNodeFail:      "node-fail",
	kindNodeRecover:   "node-recover",
	kindRackFail:      "rack-fail",
	kindGrayNode:      "gray-node",
	kindSprintStart:   "sprint-start",
	kindSprintEnd:     "sprint-end",
	kindPhaseStart:    "phase-start",
	kindServiceStart:  "service-start",
	kindComplete:      "complete",
	kindStaleComplete: "stale-complete",
	kindFault:         "fault",
	kindReqTimeout:    "req-timeout",
	kindTimedOut:      "timed-out",
	kindShed:          "shed",
}

// pendingRec is one ring slot: a record not yet handed to the sink, in
// pointer-free fields, so the ring is memory the garbage collector never
// scans. The slot's position is the record's seq, and kind says which
// fields apply:
//   - a decision: node (-1 on an unattributable drop), req, phase, the
//     winning key, workS, enqueued, its nAlts alternatives from position
//     alt of the recorder's alternatives queue, and how many of their
//     probes are still pending;
//   - an event: node, rack, req and phase (-1 where none applies) and
//     durS;
//   - a sample: nothing here; the sample waits in the recorder's sample
//     queue.
type pendingRec struct {
	atS, key, workS, durS  float64
	node, rack, req, phase int32
	alt                    uint32
	nAlts, probes          int32
	kind                   recKind
	enqueued               bool
}

// lifecycle is a lifecycle event as its call site states it: the node,
// rack, request and phase it concerns (-1 where none applies) and its
// duration.
type lifecycle struct {
	kind                   recKind
	node, rack, req, phase int
	durS                   float64
}

// recorder is the live flight-recorder state hanging off a sim. It is
// nil when tracing is off; every hook in the simulator is guarded by
// that nil check and nothing else.
type recorder struct {
	cfg TraceConfig
	// The sink: enc streams to cfg.Writer; without one, tr collects the
	// recording, gathering it in recChunk-record chunks that finalize
	// assembles into tr.Records once, at its exact length, so a long
	// recording never regrows one huge slice. err is the first error the
	// sink returned.
	enc       *trace.Encoder
	tr        *trace.Trace
	collected [][]trace.Record
	err       error
	keyKind   string

	// The ring holds records base..seq-1, record q at position uint32(q);
	// its chunks count the most records it ever spanned.
	seq, base uint64
	ring      fifo[pendingRec]
	// The pending decisions' alternatives and the pending samples, each
	// queued in seq order, which is the order the sink takes them in.
	alts    fifo[trace.Alt]
	samples fifo[trace.Sample]

	// Counterfactual probes: probes is the arena, free its reusable slots,
	// watch[node] the indices of probes waiting on that node's departures.
	probes []cfProbe
	free   []int32
	watch  [][]int32

	// Timeline state: the next window boundary, completions and
	// latencies observed since the last one, the in-flight request
	// count, and the active sprint phases keyed by end time (event.node
	// names the sprinting node).
	winStartS float64
	nextS     float64
	winDone   int
	winLat    []float64
	inflight  int
	sprints   eventQueue

	altScratch []altCand
	walk       altWalk

	// The payloads the sink is handed. The streamed sink reuses one of
	// each for every line; the in-memory one keeps every payload, taking
	// them from slabs: one allocation per chunk of decisions, events,
	// samples or alternatives rather than one per record.
	dec     trace.Decision
	ev      trace.Event
	altOut  []trace.Alt
	decSlab trace.Slab[trace.Decision]
	evSlab  trace.Slab[trace.Event]
	smpSlab trace.Slab[trace.Sample]
	altSlab trace.Slab[trace.Alt]
}

// altCand is one recorded alternative; rot is its rotation distance from
// the selection's start, which only the scan needs.
type altCand struct {
	node int32
	key  float64
	rot  int32
}

// refAlts, when set, routes the recorder's alternatives through the O(N)
// scan instead of the dispatch index, as refDispatch does for selection;
// TestIndexedAltsMatchScan proves both record identical traces.
var refAlts bool

// watchDecision, when set, runs around every traced decision: it is
// called before the decision records anything, and the function it
// returns once the decision has recorded its alternatives.
// TestAltsReadOnly uses it to compare the dispatch trees, and
// TestIndexKeysMatchNodes to recompute their keys.
var watchDecision func(s *sim) func()

// newRecorder builds the recorder from the Config's trace knobs. The
// fleet-shaped state waits for begin — scenario mode finalizes the node
// count after this point.
func newRecorder(cfg Config) *recorder {
	tc := cfg.Trace.withDefaults()
	return &recorder{
		cfg:     tc,
		nextS:   tc.WindowS,
		keyKind: keyKind(cfg.Policy),
	}
}

// begin stamps the recording's header on its sink and sizes the per-node
// probe watch lists; newSim calls it once the fleet exists.
func (rec *recorder) begin(s *sim) {
	rec.watch = make([][]int32, len(s.nodes))
	meta := trace.Meta{
		Policy:       s.cfg.Policy.String(),
		Coordination: s.cfg.Coordination.String(),
		Nodes:        len(s.nodes),
		Racks:        len(s.racks),
		Requests:     s.cfg.Requests,
		Seed:         s.cfg.Seed,
		Level:        rec.cfg.Level.String(),
		WindowS:      rec.cfg.WindowS,
		TopK:         rec.cfg.TopK,
	}
	if rec.cfg.Writer != nil {
		rec.enc = trace.NewEncoder(rec.cfg.Writer, &meta)
	} else {
		rec.tr = &trace.Trace{Meta: meta}
	}
}

// recChunk is the record count of one chunk the in-memory sink collects.
const recChunk = 1 << 12

// emit appends one record of the given kind at instant atS to the ring
// and returns its slot, every other field zero, and its sequence number.
// Every caller fills the slot before it emits again (emitEvent and sample
// at once, decision through collectAlts, which emits nothing), and a
// later write to the record, a resolved probe's, goes through slot.
func (rec *recorder) emit(atS float64, kind recKind) (*pendingRec, uint64) {
	q := rec.seq
	p := rec.ring.at(rec.ring.push(1))
	*p = pendingRec{atS: atS, kind: kind}
	rec.seq++
	return p, q
}

// slot returns the ring slot of record q, which must be in the ring.
func (rec *recorder) slot(q uint64) *pendingRec { return rec.ring.at(uint32(q)) }

// flush hands the ring's settled prefix to the sink in seq order. A
// decision settles once its request's fate is no longer live and none of
// its probes is pending; its counterfactual columns are filled then (see
// settle). With all set, finalize drains the ring whatever remains
// pending.
func (rec *recorder) flush(s *sim, all bool) {
	for ; rec.base < rec.seq; rec.base++ {
		p := rec.slot(rec.base)
		if p.kind < kindHedgeWin && !all && (p.probes > 0 || s.reqs[p.req].fate == live) {
			return
		}
		rec.write(s, p)
		rec.ring.pop(1)
	}
}

// write builds the settled ring record p, record rec.base, as a
// trace.Record and hands it to the sink, releasing its queued
// alternatives or sample. The streamed sink encodes it from the
// recorder's reused payloads; the in-memory sink keeps it, so its
// payloads come from the slabs and a sample's rack arrays move to the
// kept copy.
func (rec *recorder) write(s *sim, p *pendingRec) {
	r := trace.Record{T: "event", AtS: p.atS, Seq: rec.base}
	keep := rec.enc == nil
	switch {
	case p.kind == kindSample:
		r.T = "sample"
		sm := rec.samples.at(rec.samples.head)
		r.Sample = sm
		if keep {
			r.Sample = rec.smpSlab.New()
			*r.Sample = *sm
			sm.RackDrawW, sm.RackBufferJ = nil, nil
		}
		rec.samples.pop(1)
	case p.kind < kindHedgeWin:
		r.T = "decision"
		d := &rec.dec
		var alts []trace.Alt
		if p.nAlts > 0 {
			if keep {
				alts = rec.altSlab.Take(int(p.nAlts))[:0]
			} else {
				alts = rec.altOut[:0]
			}
			for i := uint32(0); i < uint32(p.nAlts); i++ {
				alts = append(alts, *rec.alts.at(p.alt + i))
			}
			rec.alts.pop(int(p.nAlts))
			if !keep {
				rec.altOut = alts
			}
		}
		if keep {
			d = rec.decSlab.New()
		}
		*d = trace.Decision{
			Kind:    kindNames[p.kind],
			Req:     int(p.req),
			Phase:   int(p.phase),
			Node:    int(p.node),
			Outcome: "dropped",
			Key:     p.key,
			KeyKind: rec.keyKind,
			WorkS:   p.workS,
			Alts:    alts,
			DoneS:   -1,
			BestAlt: -1,
		}
		if p.enqueued {
			d.Outcome = "enqueued"
		}
		settle(d, &s.reqs[p.req])
		r.Decision = d
	default:
		ev := &rec.ev
		if keep {
			ev = rec.evSlab.New()
		}
		*ev = trace.Event{Kind: kindNames[p.kind], Node: int(p.node), Rack: int(p.rack), Req: int(p.req), Phase: int(p.phase), DurS: p.durS}
		if p.kind == kindPhaseStart {
			ev.Name = s.scen.spec.Phases[p.phase].Name
		}
		r.Event = ev
	}
	if keep {
		if rec.base%recChunk == 0 {
			rec.collected = append(rec.collected, make([]trace.Record, 0, recChunk))
		}
		c := &rec.collected[len(rec.collected)-1]
		*c = append(*c, r)
	} else if err := rec.enc.Encode(&r); err != nil && rec.err == nil {
		rec.err = err
	}
}

// settle fills a decision's counterfactual columns: DoneS is the
// request's realized completion, BestAlt the resolved alternative with
// the earliest hypothetical completion, and RegretS their difference.
func settle(d *trace.Decision, r *request) {
	if r.doneS >= 0 {
		d.DoneS = r.doneS
	}
	for ai := range d.Alts {
		a := &d.Alts[ai]
		if a.HypoDoneS < 0 {
			continue
		}
		if d.BestAlt < 0 || a.HypoDoneS < d.BestAltDoneS {
			d.BestAlt = a.Node
			d.BestAltDoneS = a.HypoDoneS
		}
	}
	if d.BestAlt >= 0 && d.DoneS >= 0 {
		d.RegretS = d.DoneS - d.BestAltDoneS
	}
}

// event appends a lifecycle event at the current instant.
func (rec *recorder) event(s *sim, ev lifecycle) {
	rec.emitEvent(s.nowS, ev)
}

// emitEvent appends a lifecycle event at the given instant.
func (rec *recorder) emitEvent(atS float64, ev lifecycle) {
	p, _ := rec.emit(atS, ev.kind)
	p.node, p.rack, p.req, p.phase = int32(ev.node), int32(ev.rack), int32(ev.req), int32(ev.phase)
	p.durS = ev.durS
}

// keyKind names the routing key family the policy scores with.
func keyKind(p Policy) string {
	switch p {
	case SprintAware:
		return "budget"
	case RoundRobin:
		return "rotation"
	default:
		return "drain"
	}
}

// altKey is the canonical routing key of a node for the configured
// policy, with the idle drain key's −Inf sanitized to now (an idle
// backlog drains immediately) so every recorded key is JSON-safe.
func altKey(s *sim, n *node, workS float64) float64 {
	if s.cfg.Policy == SprintAware {
		return s.estFinishAt(n, workS)
	}
	if k := n.drainKey(); !math.IsInf(k, -1) {
		return k
	}
	return s.nowS
}

// decision records one dispatch decision — a fresh arrival, a hedge
// duplication, or a churn failover — with the winning key and the top-k
// rejected alternatives, and plants a counterfactual probe per
// alternative. chosen is nil on an unattributable drop; start is the
// rotation counter value the selection ran with (the alternatives
// tie-break on distance from it, exactly like the selector); exclude
// mirrors the selection's exclusion (hedging never duplicates onto the
// original node).
func (rec *recorder) decision(s *sim, ri int32, kind recKind, chosen *node, start, exclude int, enqueued bool) {
	if watchDecision != nil {
		defer watchDecision(s)()
	}
	r := &s.reqs[ri]
	p, q := rec.emit(s.nowS, kind)
	p.node, p.req, p.phase = -1, ri, int32(r.phase)
	p.workS, p.enqueued = r.workS, enqueued
	if chosen != nil {
		p.node = int32(chosen.id)
		if s.cfg.Policy == RoundRobin {
			p.key = float64(chosen.id)
		} else {
			p.key = altKey(s, chosen, r.workS)
		}
	}
	if enqueued && kind == kindDispatch {
		// A hedge or redispatch places a copy of a request that is
		// already counted in flight.
		rec.inflight++
	}
	if s.cfg.Policy != RoundRobin && chosen != nil {
		rec.collectAlts(s, p, q, r.workS, chosen.id, exclude, start)
	}
}

// collectAlts records the top-k rejected alternatives of decision p,
// record q, under the candidate order (key, rotation distance from start)
// — the same total order the selector minimizes — and plants a
// counterfactual probe on each: pending counts the copies outstanding on
// the alternative at decision time, exactly the departures that FIFO
// service retires before a hypothetical copy would have started.
func (rec *recorder) collectAlts(s *sim, p *pendingRec, q uint64, workS float64, chosen, exclude, start int) {
	var cands []altCand
	if s.useRef || refAlts {
		cands = rec.scanAlts(s, workS, chosen, exclude, start)
	} else {
		cands = rec.walk.run(s, rec.altScratch[:0], rec.cfg.TopK, workS, chosen, exclude, start)
	}
	rec.altScratch = cands
	if len(cands) == 0 {
		return // the decision records no alternatives, as a recording reads back
	}
	p.alt, p.nAlts = rec.alts.push(len(cands)), int32(len(cands))
	for ai, c := range cands {
		pos := p.alt + uint32(ai)
		a := rec.alts.at(pos)
		*a = trace.Alt{Node: int(c.node), Key: c.key, HypoDoneS: -1}
		n := &s.nodes[c.node]
		pending := n.outstanding()
		if pending == 0 {
			// The alternative is idle: the hypothetical copy would have
			// started service at the decision instant.
			a.HypoDoneS = s.estFinishAt(n, workS)
			continue
		}
		pr := cfProbe{seq: q, alt: pos, pending: int32(pending), workS: workS}
		var pi int32
		if nf := len(rec.free); nf > 0 {
			pi, rec.free = rec.free[nf-1], rec.free[:nf-1]
			rec.probes[pi] = pr
		} else {
			pi = int32(len(rec.probes))
			rec.probes = append(rec.probes, pr)
		}
		p.probes++
		rec.watch[c.node] = append(rec.watch[c.node], pi)
	}
}

// altWalk takes a decision's top-k alternatives from the dispatch index
// without writing it: a best-first walk over its trees, popping nodes
// off the sim's frontier queue in the recorder's candidate order
// (recorded key, rotation distance). Each tree is an altTree. A tree
// with a tie set — the least-loaded tree, or a sprint-aware class's
// idle tree — first yields the tie set's nodes one at a time in rotation
// order, each pushed when the one before it pops; a tie-set node records
// the same key as every other one, the lowest key in its tree. Then the
// rest of the tree follows, and so does a sprint-aware busy tree from the
// start: slots enter the frontier at a lower bound of every key beneath
// them and open into their children when they pop, and leaves enter at
// their exact key. At equal keys a slot pops before any node, and nodes
// pop by rotation distance, so a node pops only once nothing beneath a
// slot still queued can precede it. The chosen and excluded nodes never
// enter the frontier, and the walk stops at the k-th node, so it costs
// O(k log N) when the tie sets are large and degrades toward the O(N)
// scan (recorder.scanAlts) only as they empty.
type altWalk struct {
	s               *sim
	workS           float64
	rot             int
	chosen, exclude int
	trees           []altTree
	q               *eventQueue
}

// altTree is one dispatch tree the walk reads, entered in rotation order
// at node from. Keys at or below cover form the tie set:
// under least-loaded the keys at or before now, which all record now (an
// idle node's −Inf, and a backlog that drains exactly now); under
// sprint-aware the idle budgets that cover the request at full width,
// which all project the same finish (Governor.CoverKeyS). Past the tie
// set a slot is bounded by the recorded key of its leftmost minimum,
// since the recorded key never falls as the tree key rises. A
// sprint-aware busy tree has no tie set (cover −Inf) and bounds a slot by
// its backlog-drain key plus wow, work/width, as the selector does: no
// node finishes before its backlog drains and a full-width service runs.
type altTree struct {
	t     *dispatchIndex
	from  int
	cover float64
	busy  bool
	wow   float64
}

// The walk's frontier entries, told apart by event.kind; event.req
// indexes altWalk.trees and event.node holds a tree slot or a node id.
const (
	walkSlot eventKind = iota // a tree slot, at its bound
	walkNode                  // a node past its tree's tie set, at its key
	walkTie                   // a tie-set node, at its key
)

// run walks the index for the first k alternatives of a selection that
// started at rotation counter start, passing over the chosen and
// excluded nodes, and appends them to cands. A tie-set node's successor
// is sought only if the walk goes on.
func (w *altWalk) run(s *sim, cands []altCand, k int, workS float64, chosen, exclude, start int) []altCand {
	w.s, w.workS, w.rot, w.q = s, workS, start%len(s.nodes), &s.frontier
	w.chosen, w.exclude = chosen, exclude
	w.trees = w.trees[:0]
	w.q.clear()
	if s.idx != nil {
		w.add(altTree{t: s.idx, from: w.rot, cover: s.nowS})
	} else {
		for ci := range s.classes {
			cl := &s.classes[ci]
			w.add(altTree{t: cl.idle, from: cl.from(w.rot), cover: cl.proto.CoverKeyS(s.nowS, workS, cl.width, cl.sprintW)})
			w.add(altTree{t: cl.busy, from: cl.lo, cover: math.Inf(-1), busy: true, wow: workS / cl.width})
		}
	}
	for len(cands) < k && w.q.len() > 0 {
		key, e := w.q.pop()
		id := int(e.node)
		if e.kind == walkSlot {
			w.pushSlot(e.req, 2*id)
			w.pushSlot(e.req, 2*id+1)
			continue
		}
		cands = append(cands, altCand{node: int32(id), key: key})
		if e.kind == walkTie && len(cands) < k {
			w.nextTie(e.req, id)
		}
	}
	return cands
}

// add registers a tree and seeds the frontier with it: a tree with a
// tie set with that set's first node, a busy tree with its root.
func (w *altWalk) add(tr altTree) {
	w.trees = append(w.trees, tr)
	ti := int32(len(w.trees) - 1)
	if tr.busy {
		w.pushSlot(ti, 1)
	} else {
		w.nextTie(ti, -1)
	}
}

// nextTie pushes the node of tree ti's tie set that follows leaf after in
// rotation order (the first one for -1), passing over the chosen and
// excluded nodes; past the last, it pushes the tree's root, so the rest
// of the tree follows by bound.
func (w *altWalk) nextTie(ti int32, after int) {
	tr := &w.trees[ti]
	for id := tr.t.nextLE(tr.from, after, tr.cover); id >= 0; id = tr.t.nextLE(tr.from, id, tr.cover) {
		if id != w.chosen && id != w.exclude {
			w.pushNode(walkTie, ti, id)
			return
		}
	}
	w.pushSlot(ti, 1)
}

// pushSlot puts slot c of tree ti on the frontier: a leaf as its node, an
// interior slot at a lower bound of every node beneath it that the walk
// has not yet taken. An absent slot, and a tie-set leaf (taken through
// nextTie), are left out; a slot whose minimum lies in the tie set is
// bounded by −Inf, opening at once, since the tie set is spent before any
// slot of its tree enters the frontier.
func (w *altWalk) pushSlot(ti int32, c int) {
	tr := &w.trees[ti]
	t := tr.t
	d := t.d[c]
	if d == math.Inf(1) || c >= t.size && d <= tr.cover {
		return
	}
	if c >= t.size {
		if id := t.node(c); id != w.chosen && id != w.exclude {
			w.pushNode(walkNode, ti, id)
		}
		return
	}
	var bound float64
	switch {
	case d <= tr.cover:
		bound = math.Inf(-1)
	case tr.busy:
		bound = d + tr.wow
	default:
		bound = altKey(w.s, &w.s.nodes[t.minLeaf(c)], w.workS)
	}
	w.q.push(bound, event{kind: walkSlot, req: ti, node: int32(c)}, 0)
}

// pushNode puts node id on the frontier at its recorded key, ordered
// after every slot at that key and by rotation distance among nodes.
// Recorded keys are finite and never −0, so the queue's key round-trips
// them exactly.
func (w *altWalk) pushNode(kind eventKind, ti int32, id int) {
	w.q.push(altKey(w.s, &w.s.nodes[id], w.workS), event{kind: kind, req: ti, node: int32(id)}, uint64(1+w.dist(id)))
}

// dist is node id's rotation distance from the selection's start.
func (w *altWalk) dist(id int) int {
	if d := id - w.rot; d >= 0 {
		return d
	}
	return id - w.rot + len(w.s.nodes)
}

// scanAlts is the O(N) reference for the index walk (altWalk): a
// read-only pass over the whole fleet keeping the k best candidates. It
// backs the recorder when the dispatch index is off (refDispatch) or
// refAlts is set, and the cross-implementation test proves the two
// record identical traces.
func (rec *recorder) scanAlts(s *sim, workS float64, chosen, exclude, start int) []altCand {
	nn := len(s.nodes)
	rot := start % nn
	// Top-k selection by insertion rather than a full sort: the scan is
	// on the dispatch hot path of every traced decision and k is tiny,
	// so keeping the k best in a sorted prefix is O(N·k) instead of
	// O(N log N). The (key, rot) order is strict — rot is distinct per
	// node — so the result matches what a full sort would keep.
	less := func(a, b altCand) bool {
		if a.key != b.key {
			return a.key < b.key
		}
		return a.rot < b.rot
	}
	cands := rec.altScratch[:0]
	for i := range s.nodes {
		n := &s.nodes[i]
		if n.id == chosen || n.id == exclude || !n.alive || s.full(n) {
			continue
		}
		rd := n.id - rot
		if rd < 0 {
			rd += nn
		}
		c := altCand{node: int32(n.id), key: altKey(s, n, workS), rot: int32(rd)}
		if len(cands) == rec.cfg.TopK && !less(c, cands[len(cands)-1]) {
			continue
		}
		pos := len(cands)
		if pos < rec.cfg.TopK {
			cands = append(cands, c)
		} else {
			pos--
		}
		for pos > 0 && less(c, cands[pos-1]) {
			cands[pos] = cands[pos-1]
			pos--
		}
		cands[pos] = c
	}
	return cands
}

// departed notes one copy leaving the node (service completion or lazy
// queue cancellation, both in FIFO order) and resolves every probe whose
// pending count hits zero: the hypothetical copy would start service now,
// on the node's realized governor state — the caller guarantees the node
// is between services at this instant, before any later copy consumes
// budget.
func (rec *recorder) departed(s *sim, n *node) {
	w := rec.watch[n.id]
	if len(w) == 0 {
		return
	}
	kept := w[:0]
	for _, pi := range w {
		p := &rec.probes[pi]
		p.pending--
		if p.pending > 0 {
			kept = append(kept, pi)
			continue
		}
		// The decision is still in the ring: its pending probe holds it.
		rec.alts.at(p.alt).HypoDoneS = s.estFinishAt(n, p.workS)
		rec.slot(p.seq).probes--
		rec.free = append(rec.free, pi)
	}
	rec.watch[n.id] = kept
}

// nodeDown aborts every probe watching a failed node: its realized
// future ends here, so their alternatives stay unresolved.
func (rec *recorder) nodeDown(n *node) {
	for _, pi := range rec.watch[n.id] {
		rec.slot(rec.probes[pi].seq).probes--
		rec.free = append(rec.free, pi)
	}
	rec.watch[n.id] = rec.watch[n.id][:0]
}

// reqDone notes a request's first completion for the timeline and
// in-flight accounting.
func (rec *recorder) reqDone(latS float64) {
	rec.inflight--
	rec.winDone++
	rec.winLat = append(rec.winLat, latS)
}

// reqAbandoned notes a previously in-flight request dropped by a failed
// redispatch.
func (rec *recorder) reqAbandoned() {
	rec.inflight--
}

// sprintStart tracks an admitted sprint phase: a lifecycle event plus an
// entry on the sprint-phase queue (its end is emitted when simulated time
// passes it — sprint phases end silently without rack coordination, so
// the recorder owns the bookkeeping in every mode). The push's tie-break
// is the record count, which the sprint-start record just advanced, so
// phases ending at one instant pop in start order.
func (rec *recorder) sprintStart(s *sim, n *node, sprintS float64) {
	rec.event(s, lifecycle{kind: kindSprintStart, node: n.id, rack: rackOf(s, n), req: -1, phase: -1, durS: sprintS})
	rec.sprints.push(s.nowS+sprintS, event{node: int32(n.id)}, rec.seq)
}

// popSprintsThrough emits sprint-end records for every phase ending at
// or before the instant, in end order. Records surface at the next loop
// step after the phase ends; AtS carries the exact end instant.
func (rec *recorder) popSprintsThrough(atS float64) {
	for rec.sprints.len() > 0 && rec.sprints.topAt() <= atS {
		endS, ph := rec.sprints.pop()
		rec.emitEvent(endS, lifecycle{kind: kindSprintEnd, node: int(ph.node), rack: -1, req: -1, phase: -1})
	}
}

// tick advances the timeline to the sim's current instant, emitting one
// sample per crossed window boundary. The run loops call it after
// setting nowS and before handling the step, so a sample at boundary b
// reflects every event at or before b — windows are (start, b].
func (rec *recorder) tick(s *sim) {
	for s.nowS > rec.nextS {
		rec.popSprintsThrough(rec.nextS)
		rec.sample(s, rec.nextS)
		rec.winStartS = rec.nextS
		rec.nextS += rec.cfg.WindowS
	}
	rec.popSprintsThrough(s.nowS)
	rec.flush(s, false)
}

// sample emits the window ending at boundary b.
func (rec *recorder) sample(s *sim, b float64) {
	sm := rec.samples.at(rec.samples.push(1))
	// A reused queue place keeps its sample's rack arrays: the rack count
	// is fixed.
	draw, buf := sm.RackDrawW, sm.RackBufferJ
	*sm = trace.Sample{
		StartS:        rec.winStartS,
		EndS:          b,
		Phase:         -1,
		Completed:     rec.winDone,
		ThroughputRPS: float64(rec.winDone) / rec.cfg.WindowS,
		P50S:          -1,
		P99S:          -1,
		InFlight:      rec.inflight,
		Sprints:       rec.sprints.len(),
	}
	if s.scen != nil {
		sm.Phase = s.scen.cur
	}
	if len(rec.winLat) > 0 {
		var q [2]float64
		series.SelectQuantiles(rec.winLat, []float64{0.50, 0.99}, q[:])
		sm.P50S, sm.P99S = q[0], q[1]
	}
	if len(s.racks) > 0 {
		if draw == nil {
			draw, buf = make([]float64, len(s.racks)), make([]float64, len(s.racks))
		}
		sm.RackDrawW, sm.RackBufferJ = draw, buf
		for i := range s.racks {
			r := &s.racks[i]
			sm.RackDrawW[i] = r.drawW()
			// The recorder observes, never advances, rack state.
			sm.RackBufferJ[i] = r.bufferAt(b)
		}
	}
	rec.winDone = 0
	rec.winLat = rec.winLat[:0]
	rec.emit(b, kindSample)
}

// finalize flushes the last partial window, retires the remaining sprint
// phases, drains the ring to the sink, and flushes the encoder or
// assembles the collected trace. finish() calls it while the arena is
// live: settling a decision reads its request's realized completion.
func (rec *recorder) finalize(s *sim) {
	rec.popSprintsThrough(math.Inf(1))
	if rec.winDone > 0 || rec.inflight > 0 || len(rec.winLat) > 0 {
		rec.sample(s, rec.nextS)
	}
	rec.flush(s, true)
	if rec.enc != nil {
		if err := rec.enc.Flush(); err != nil && rec.err == nil {
			rec.err = err
		}
		return
	}
	rec.tr.Records = make([]trace.Record, 0, rec.seq)
	for _, c := range rec.collected {
		rec.tr.Records = append(rec.tr.Records, c...)
	}
	rec.collected = nil
}

// rackOf is the node's rack index for event records, -1 when rack power
// domains are off.
func rackOf(s *sim, n *node) int {
	if s.racks == nil {
		return -1
	}
	return n.rackID
}
