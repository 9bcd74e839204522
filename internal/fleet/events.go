package fleet

// eventKind distinguishes the event types of the simulation.
type eventKind uint8

const (
	// evHedge re-examines a request HedgeDelayS after arrival and, if it is
	// still unfinished, dispatches a duplicate copy to a second node.
	evHedge eventKind = iota
	// evComplete finishes a node's in-service copy and starts the next
	// queued one.
	evComplete
	// evSprintEnd retires a partial sprint phase (the budget ran out
	// mid-service, or a gray node stretched the service) from its rack's
	// power draw, releasing any TokenPermit grant (rack coordination only).
	evSprintEnd
	// evSprintComplete fuses evSprintEnd and evComplete for a sprint phase
	// that ends at its service's completion instant (see rackSprintStart).
	evSprintComplete
	// evBreakerTrip fires when a rack's energy buffer is projected to run
	// out under sustained overdraw; a stale generation (the draw balance
	// changed since scheduling) is ignored.
	evBreakerTrip
	// evBreakerReset closes a tripped rack's breaker after the recovery
	// window, re-enabling sprint admission.
	evBreakerReset
	// evPhase enters the next scenario phase (req carries the phase
	// index): ambient-temperature shifts retarget every governor and the
	// per-phase accounting cursor advances. Scenario mode only.
	evPhase
	// evNodeFail fails one churn-chosen node: its incarnation counter
	// bumps (staling any scheduled completion/sprint-end), its rack draw
	// and permits are released, and orphaned request copies fail over to
	// live nodes. Scenario mode only.
	evNodeFail
	// evNodeRecover returns a failed node to service with a fresh
	// governor at its class's current (ambient-adjusted) budget.
	// Scenario mode only.
	evNodeRecover
	// evRackFail is a correlated rack-level power loss: every live member
	// of one churn-chosen rack fails at once (each through the same
	// incarnation/redispatch machinery as evNodeFail) and recovers at a
	// common instant. Scenario mode only.
	evRackFail
	// evTimeout expires a request attempt TimeoutS after its enqueue
	// (gen carries the attempt; a mismatch marks an attempt the client
	// already resolved — completion, fault, or an earlier retry).
	// Reliability layer only.
	evTimeout
	// evRetry dispatches a request's next attempt after its seeded
	// exponential backoff (gen carries the attempt it dispatches).
	// Reliability layer only.
	evRetry
)

// event is one entry of the simulation's future-event list. It is a plain
// value — the future-event list is a value-based heap, so scheduling an
// event never allocates — and it refers to its request by arena index
// rather than pointer, keeping the hot structures free of GC-scanned
// references.
//
// Arrivals are not events: the open-loop trace is generated time-sorted,
// so the main loop merges a simple arrival cursor with this heap. On an
// exact timestamp tie the arrival fires first, which reproduces the
// historical ordering in which every arrival carried a smaller tie-break
// sequence than any dynamically scheduled event.
type event struct {
	// atS is the simulated firing time.
	atS float64
	// seq is the push order, the total tie-break: two events at the same
	// instant fire in the order they were scheduled, so the event loop is a
	// deterministic function of the configuration alone.
	seq uint64
	// gen must match the rack's current trip generation for evBreakerTrip
	// to fire, or the node's incarnation for evComplete, evSprintEnd and
	// evSprintComplete (a mismatch marks an event scheduled against a node
	// that has since failed); evTimeout/evRetry reuse it for the request's
	// attempt counter, staled the same way by client-side retries.
	gen uint64
	// req indexes sim.reqs (evHedge) or carries the phase index
	// (evPhase); node and rack index their arrays.
	req  int32
	node int32
	rack int32
	kind eventKind
}

// eventBefore orders events by (atS, seq).
//
//sprint:hotpath
func eventBefore(a, b event) bool {
	if a.atS != b.atS {
		return a.atS < b.atS
	}
	return a.seq < b.seq
}

// eventQueue is a value-based 4-ary min-heap ordered by (atS, seq). A
// 4-ary layout halves the tree depth of a binary heap, trading a few more
// comparisons per level for fewer cache-missing hops — the right trade for
// the sift-downs that dominate a discrete-event loop. No interface boxing,
// no per-event allocation: push and pop move 40-byte values inside one
// backing array that is reused for the whole run.
type eventQueue struct {
	a []event
}

//sprint:hotpath
func (q *eventQueue) len() int { return len(q.a) }

// top returns the earliest event without removing it; the caller must
// ensure the queue is non-empty.
//
//sprint:hotpath
func (q *eventQueue) top() event { return q.a[0] }

// push schedules an event, sifting it up from the tail.
//
//sprint:hotpath
func (q *eventQueue) push(ev event) {
	q.a = append(q.a, ev)
	i := len(q.a) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !eventBefore(q.a[i], q.a[p]) {
			break
		}
		q.a[i], q.a[p] = q.a[p], q.a[i]
		i = p
	}
}

// pop removes and returns the earliest event.
//
//sprint:hotpath
func (q *eventQueue) pop() event {
	ev := q.a[0]
	n := len(q.a) - 1
	q.a[0] = q.a[n]
	q.a = q.a[:n]
	// Sift down: promote the smallest of up to four children each level.
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		best := c
		hi := c + 4
		if hi > n {
			hi = n
		}
		for j := c + 1; j < hi; j++ {
			if eventBefore(q.a[j], q.a[best]) {
				best = j
			}
		}
		if !eventBefore(q.a[best], q.a[i]) {
			break
		}
		q.a[i], q.a[best] = q.a[best], q.a[i]
		i = best
	}
	return ev
}

// push schedules an event, stamping the deterministic tie-break sequence.
//
//sprint:hotpath
func (s *sim) push(ev event) {
	ev.seq = s.seq
	s.seq++
	s.events.push(ev)
}
