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
//     recorder state, never the reverse: the alternatives come from the
//     dispatch index by repeated argmin over temporarily disabled
//     leaves, every one restored to its exact key before the decision
//     returns, and the rotation counter is never advanced; probes watch
//     departures without touching queues, and timeline samples project
//     rack buffers to the window boundary without accruing them — so a
//     traced run's Metrics equal the untraced run's exactly
//     (TestTracedMetricsUnchanged).
//
//   - O(k log N) per decision. The top-k alternatives are the selector's
//     own next-best nodes under its (key, rotation) order, taken from
//     the index rather than by scoring the whole fleet; the O(N) scan
//     survives as the refAlts oracle (TestIndexedAltsMatchScan).
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
//     lazily from tick and finalize; the fate sites carry no hook.
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
	"sort"

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

// cfProbe is one pending counterfactual: alternative alt of the decision
// with sequence number seq resolves once pending departures have left
// the node whose watch list holds it.
type cfProbe struct {
	seq     uint64
	alt     int32
	pending int32
	workS   float64
}

// pendingRec is one ring slot: a record not yet handed to the sink — its
// instant and its one payload — and, for a decision, how many of its
// probes are still pending. The slot's position is the record's seq.
type pendingRec struct {
	atS    float64
	dec    *trace.Decision
	ev     *trace.Event
	sample *trace.Sample
	probes int32
}

// pool hands out payloads of one type: recycled ones first, then fresh
// ones from a slab. A streamed recording recycles each payload once the
// encoder has written it, so the payloads alive are the ring's; an
// in-memory recording keeps every payload it hands out.
type pool[T any] struct {
	slab trace.Slab[T]
	free []*T
}

// get returns a payload, a recycled one with its old contents.
func (p *pool[T]) get() *T {
	if n := len(p.free); n > 0 {
		x := p.free[n-1]
		p.free = p.free[:n-1]
		return x
	}
	return p.slab.New()
}

// put recycles a payload the sink has written; nil is ignored.
func (p *pool[T]) put(x *T) {
	if x != nil {
		p.free = append(p.free, x)
	}
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

	// The ring holds records base..seq-1 in chunks of ringChunk slots,
	// record q at chunks[q/ringChunk-base/ringChunk][q%ringChunk]; a chunk
	// the head leaves goes to spare for the tail to reuse, so chunks and
	// spare together count the most chunks the ring ever spanned.
	seq, base uint64
	chunks    []*[ringChunk]pendingRec
	spare     []*[ringChunk]pendingRec

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
	hidden     []hiddenLeaf

	// Record payloads come from pools over slabs: one allocation per
	// chunk of decisions, events, samples or alternatives rather than one
	// per record, and none once a streamed recording's pools are warm.
	decs    pool[trace.Decision]
	events  pool[trace.Event]
	samples pool[trace.Sample]
	alts    trace.Slab[trace.Alt]
}

// altCand is one recorded alternative; rot is its rotation distance from
// the selection's start, which only the scan needs.
type altCand struct {
	node int32
	key  float64
	rot  int32
}

// hiddenLeaf is a dispatch-tree leaf indexAlts disabled, with the key it
// restores.
type hiddenLeaf struct {
	t   *dispatchIndex
	lid int32
	d   float64
}

// refAlts, when set, routes the recorder's alternatives through the O(N)
// scan instead of the dispatch index, as refDispatch does for selection;
// TestIndexedAltsMatchScan proves both record identical traces.
var refAlts bool

// newRecorder builds the recorder from the Config's trace knobs. The
// fleet-shaped state waits for begin — scenario mode finalizes the node
// count after this point.
func newRecorder(cfg Config) *recorder {
	tc := cfg.Trace.withDefaults()
	return &recorder{
		cfg:   tc,
		nextS: tc.WindowS,
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

// ringChunk is the slot count of one ring chunk, recChunk the record
// count of one chunk the in-memory sink collects.
const (
	ringChunk = 1 << 10
	recChunk  = 1 << 12
)

// emit appends one record, p's payload at instant atS, to the ring and
// returns its sequence number.
func (rec *recorder) emit(atS float64, p pendingRec) uint64 {
	if rec.seq%ringChunk == 0 {
		if n := len(rec.spare); n > 0 {
			rec.chunks = append(rec.chunks, rec.spare[n-1])
			rec.spare = rec.spare[:n-1]
		} else {
			rec.chunks = append(rec.chunks, new([ringChunk]pendingRec))
		}
	}
	p.atS = atS
	*rec.slot(rec.seq) = p
	rec.seq++
	return rec.seq - 1
}

// slot returns the ring slot of record q, which must be in the ring.
func (rec *recorder) slot(q uint64) *pendingRec {
	return &rec.chunks[q/ringChunk-rec.base/ringChunk][q%ringChunk]
}

// flush hands the ring's settled prefix to the sink in seq order. A
// decision settles once its request's fate is no longer live and none of
// its probes is pending; its counterfactual columns are filled then (see
// settle). With all set, finalize drains the ring whatever remains
// pending.
func (rec *recorder) flush(s *sim, all bool) {
	for ; rec.base < rec.seq; rec.base++ {
		p := rec.slot(rec.base)
		r := trace.Record{T: "sample", AtS: p.atS, Seq: rec.base, Decision: p.dec, Event: p.ev, Sample: p.sample}
		switch {
		case p.dec != nil:
			if !all && (p.probes > 0 || s.reqs[p.dec.Req].fate == live) {
				return
			}
			settle(p.dec, &s.reqs[p.dec.Req])
			r.T = "decision"
		case p.ev != nil:
			r.T = "event"
		}
		if rec.enc == nil {
			if rec.base%recChunk == 0 {
				rec.collected = append(rec.collected, make([]trace.Record, 0, recChunk))
			}
			c := &rec.collected[len(rec.collected)-1]
			*c = append(*c, r)
		} else {
			if err := rec.enc.Encode(&r); err != nil && rec.err == nil {
				rec.err = err
			}
			rec.decs.put(p.dec)
			rec.events.put(p.ev)
			rec.samples.put(p.sample)
		}
		*p = pendingRec{}
		if (rec.base+1)%ringChunk == 0 {
			// The head leaves its chunk.
			rec.spare = append(rec.spare, rec.chunks[0])
			rec.chunks = rec.chunks[1:]
		}
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
func (rec *recorder) event(s *sim, ev trace.Event) {
	rec.emitEvent(s.nowS, ev)
}

// emitEvent appends a lifecycle event at the given instant.
func (rec *recorder) emitEvent(atS float64, ev trace.Event) {
	e := rec.events.get()
	*e = ev
	rec.emit(atS, pendingRec{ev: e})
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

// score is the canonical routing key of a node for the configured
// policy, with the idle drain key's −Inf sanitized to now (an idle
// backlog drains immediately) so every recorded key is JSON-safe.
func (rec *recorder) score(s *sim, n *node, workS float64) float64 {
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
func (rec *recorder) decision(s *sim, ri int32, kind string, chosen *node, start, exclude int, enqueued bool) {
	r := &s.reqs[ri]
	d := rec.decs.get()
	// A recycled decision keeps its alternatives' backing array.
	alts := d.Alts[:0]
	*d = trace.Decision{
		Kind:    kind,
		Req:     int(ri),
		Phase:   int(r.phase),
		Node:    -1,
		Outcome: "dropped",
		KeyKind: keyKind(s.cfg.Policy),
		WorkS:   r.workS,
		DoneS:   -1,
		BestAlt: -1,
		Alts:    alts,
	}
	if chosen != nil {
		d.Node = chosen.id
		if s.cfg.Policy == RoundRobin {
			d.Key = float64(chosen.id)
		} else {
			d.Key = rec.score(s, chosen, r.workS)
		}
	}
	if enqueued {
		d.Outcome = "enqueued"
		if kind == "dispatch" {
			// A hedge or redispatch places a copy of a request that is
			// already counted in flight.
			rec.inflight++
		}
	}
	q := rec.emit(s.nowS, pendingRec{dec: d})
	if s.cfg.Policy != RoundRobin && chosen != nil {
		rec.collectAlts(s, d, q, r.workS, chosen.id, exclude, start)
	}
}

// collectAlts records the top-k rejected alternatives under the candidate
// order (key, rotation distance from start) — the same total order the
// selector minimizes — and plants a counterfactual probe on each: pending
// counts the copies outstanding on the alternative at decision time,
// exactly the departures that FIFO service retires before a hypothetical
// copy would have started.
func (rec *recorder) collectAlts(s *sim, d *trace.Decision, q uint64, workS float64, chosen, exclude, start int) {
	var cands []altCand
	if (s.idx == nil && s.segs == nil) || refAlts {
		cands = rec.scanAlts(s, workS, chosen, exclude, start)
	} else {
		cands = rec.indexAlts(s, workS, chosen, exclude, start)
	}
	k := len(cands)
	if k == 0 {
		return // Alts stays nil, as a recording reads back
	}
	if cap(d.Alts) >= k {
		d.Alts = d.Alts[:k]
	} else {
		d.Alts = rec.alts.Take(k)
	}
	for ai := 0; ai < k; ai++ {
		c := cands[ai]
		d.Alts[ai] = trace.Alt{Node: int(c.node), Key: c.key, HypoDoneS: -1}
		n := &s.nodes[c.node]
		pending := n.outstanding()
		if pending == 0 {
			// The alternative is idle: the hypothetical copy would have
			// started service at the decision instant.
			d.Alts[ai].HypoDoneS = s.estFinishAt(n, workS)
			continue
		}
		p := cfProbe{seq: q, alt: int32(ai), pending: int32(pending), workS: workS}
		var pi int32
		if nf := len(rec.free); nf > 0 {
			pi, rec.free = rec.free[nf-1], rec.free[:nf-1]
			rec.probes[pi] = p
		} else {
			pi = int32(len(rec.probes))
			rec.probes = append(rec.probes, p)
		}
		rec.slot(q).probes++
		rec.watch[c.node] = append(rec.watch[c.node], pi)
	}
}

// indexAlts takes the top-k alternatives from the dispatch index in
// O(k log N), the way hedging excludes the original node: the chosen (and
// excluded) node is disabled, then each round takes the argmin under the
// recorder's order (altArgmin) and disables it too. Every disabled leaf
// is restored to its exact key afterwards, so the index the next
// selection reads is unchanged.
func (rec *recorder) indexAlts(s *sim, workS float64, chosen, exclude, start int) []altCand {
	rot := start % len(s.nodes)
	rec.hidden = rec.hidden[:0]
	rec.hide(s, chosen)
	if exclude >= 0 {
		rec.hide(s, exclude)
	}
	cands := rec.altScratch[:0]
	for len(cands) < rec.cfg.TopK {
		id := s.altArgmin(rot, workS)
		if id < 0 {
			break
		}
		cands = append(cands, altCand{node: int32(id), key: rec.score(s, &s.nodes[id], workS)})
		rec.hide(s, id)
	}
	for _, h := range rec.hidden {
		h.t.update(int(h.lid), h.d)
	}
	rec.altScratch = cands
	return cands
}

// hide disables node id's leaf in the dispatch trees that hold it — the
// fleet-wide tree, or its sprint-aware segment's pair — remembering the
// key it held. An absent leaf — at queue capacity, dead, or already
// hidden — is never selected, so it is left alone; that also makes
// hiding a leaf twice a no-op.
func (rec *recorder) hide(s *sim, id int) {
	trees, lid := [...]*dispatchIndex{s.idx, nil}, id
	if s.idx == nil {
		sg := &s.segs[s.segIdx[id]]
		trees, lid = [...]*dispatchIndex{sg.busyIdx, sg.idleIdx}, id-sg.lo
	}
	for _, t := range trees {
		if t != nil && t.d[t.size+lid] < math.Inf(1) {
			rec.hidden = append(rec.hidden, hiddenLeaf{t: t, lid: int32(lid), d: t.disable(lid)})
		}
	}
}

// scanAlts is the O(N) reference for indexAlts: a read-only pass over the
// whole fleet keeping the k best candidates. It backs the recorder when
// the dispatch index is off (refDispatch) or refAlts is set, and the
// cross-implementation test proves the two record identical traces.
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
		if n.id == chosen || n.id == exclude || !n.alive || n.outstanding() >= s.cl(n).queueCap {
			continue
		}
		rd := n.id - rot
		if rd < 0 {
			rd += nn
		}
		c := altCand{node: int32(n.id), key: rec.score(s, n, workS), rot: int32(rd)}
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
	rec.altScratch = cands
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
		d := rec.slot(p.seq)
		d.dec.Alts[p.alt].HypoDoneS = s.estFinishAt(n, p.workS)
		d.probes--
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
	rec.event(s, trace.Event{Kind: "sprint-start", Node: n.id, Rack: rackOf(s, n), Req: -1, Phase: -1, DurS: sprintS})
	rec.sprints.push(s.nowS+sprintS, event{node: int32(n.id)}, rec.seq)
}

// popSprintsThrough emits sprint-end records for every phase ending at
// or before the instant, in end order. Records surface at the next loop
// step after the phase ends; AtS carries the exact end instant.
func (rec *recorder) popSprintsThrough(atS float64) {
	for rec.sprints.len() > 0 && rec.sprints.topAt() <= atS {
		endS, ph := rec.sprints.pop()
		rec.emitEvent(endS, trace.Event{Kind: "sprint-end", Node: int(ph.node), Rack: -1, Req: -1, Phase: -1})
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
	sm := rec.samples.get()
	// A recycled sample keeps its rack arrays: the rack count is fixed.
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
		sort.Float64s(rec.winLat)
		sm.P50S = series.Quantile(rec.winLat, 0.50)
		sm.P99S = series.Quantile(rec.winLat, 0.99)
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
	rec.emit(b, pendingRec{sample: sm})
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
