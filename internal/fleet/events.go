package fleet

import (
	"errors"
	"math"
	"math/bits"
)

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

// event is one entry of the simulation's future-event list: the 24-byte
// payload the queue keeps beside its sort keys, which carry the firing
// time. It refers to its request by arena index rather than
// pointer, keeping the hot structures free of GC-scanned references, and
// scheduling one never allocates.
//
// Arrivals are not events: the open-loop trace is generated time-sorted,
// so the main loop merges a simple arrival cursor with this heap. On an
// exact timestamp tie the arrival fires first, which reproduces the
// historical ordering in which every arrival carried a smaller tie-break
// sequence than any dynamically scheduled event.
type event struct {
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

// qkey is an event's 16-byte heap key. t is timeKey of the firing time;
// ord is seq<<slotBits | slot, where seq is the push order — the total
// tie-break, so two events at the same instant fire in the order they
// were scheduled and the event loop is a deterministic function of the
// configuration alone — and slot locates the payload. Every seq is
// unique, so comparing (t, ord) as two uint64s orders events exactly by
// (time, seq).
type qkey struct {
	t, ord uint64
}

// The bit split of qkey.ord. A slot is live only while its heap event is
// pending. Timers (hedge checks and timeouts) ride the lanes and hold no
// slot, so the heap keeps at most a retry per request and a few events
// per node or rack (a completion, a sprint end, a breaker trip or reset,
// a recovery): 8 per request and per node still covers requestCap
// requests on maxNodes nodes in 2^28 slots with room to spare (the
// compile-time check below), and 2^28 pending events would take 10 GiB.
// seq keeps the other 36 bits, 2^36 ≈ 6.9e10 pushes, lane pushes
// included: 4096 per request at requestCap, where a run schedules a
// handful. Only a pathological churn storm — failures far faster than
// services finish, piling up stale events — can exceed either field; the
// push then refuses the event and flags the queue, and the run fails with
// errQueueOverflow instead of misordering events.
const (
	slotBits = 28
	maxSlots = 1 << slotBits
	slotMask = maxSlots - 1
	seqLimit = 1 << (64 - slotBits)
)

// A negative constant does not convert to uint64: this fails to compile
// if the slot field cannot address 8 pending events per request and node.
const _ = uint64(maxSlots - 8*requestCap - 8*maxNodes)

var errQueueOverflow = errors.New("fleet: event queue overflow: more than 2^36 scheduled or 2^28 pending events")

// timeKey maps a finite float64 to a uint64 of the same order. Adding +0
// first folds −0 into +0, which it ties as a float; then a negative has
// every bit flipped (a larger magnitude gives a smaller key) and a
// non-negative has its sign bit set (above every negative). It holds for
// every finite time, so nothing depends on the sign of event times.
//
//sprint:hotpath
func timeKey(atS float64) uint64 {
	b := math.Float64bits(atS + 0)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// keyTime inverts timeKey; an event scheduled at −0 fires at +0, its
// equal.
//
//sprint:hotpath
func keyTime(t uint64) float64 {
	return math.Float64frombits(t ^ (uint64(int64(^t)>>63) | 1<<63))
}

//sprint:hotpath
func (a qkey) less(b qkey) bool { return a.lessBit(b) != 0 }

// lessBit is 1 if a sorts before b and 0 otherwise: a branch-free
// 128-bit compare of (t, ord).
//
//sprint:hotpath
func (a qkey) lessBit(b qkey) int {
	_, borrow := bits.Sub64(a.ord, b.ord, 0)
	_, borrow = bits.Sub64(a.t, b.t, borrow)
	return int(borrow)
}

// eventQueue is a 4-ary min-heap of 16-byte keys ordered by (time, seq),
// with the event payloads in a side array whose freed slots a free list,
// threaded through the freed payloads themselves, hands back out. A 4-ary
// layout halves the tree depth of a binary heap, trading a few more
// comparisons per level for fewer cache-missing hops — the right trade
// for the sift-downs that dominate a discrete-event loop — and sifting
// only keys moves 16 bytes per level instead of a whole event. A pending
// event costs 40 bytes, key and payload. No interface boxing, no
// per-event allocation: both arrays are reused for the whole run.
//
// Beside the heap sit FIFO lanes, one per distinct delay, for timers that
// fire a fixed delay after they are scheduled (see pushLane). While the
// clock passed to pushLane never decreases, now+d never decreases either
// (float addition rounds monotonically) and seq only grows, so each lane
// receives its keys in (time, seq) order and its head is its minimum.
// Lane keys carry the global seq, so topAt and pop order a lane head
// against the heap top by the same (t, ord) compare the heap uses, and
// the pop sequence is exactly the one a heap holding every event gives.
// best caches the earliest lane head, refreshed by a scan over the few
// lanes only after a lane pop, so a queue with no timers pays one branch.
//
// It is the package's one priority queue, with three users: the event
// loop's future-event list, the recorder's pending sprint phases, and
// sprint-aware dispatch's best-first frontier over busy-tree slots (see
// sprintAwareMin). Only the event loop's hedge checks and timeouts use
// lanes.
type eventQueue struct {
	k []qkey
	p []event
	// free is 1 + the most recently freed payload slot, 0 when none; a
	// freed payload's req links to the next free slot the same way.
	free int32
	// overflow is set once a push refused an event (see slotBits).
	overflow bool
	lanes    []lane
	// timers counts the events pending on all lanes.
	timers int
	// best is 1 + the index of the lane whose head fires first, 0 when
	// every lane is empty; headK is that head's key.
	best  int
	headK qkey
}

// timer is one lane entry: the event's key, whose slot bits are unused,
// and its payload.
type timer struct {
	k  qkey
	ev event
}

// lane is a FIFO ring of timers that all fire d after their push: ring
// has a power-of-two length, and its n pending timers run from head,
// wrapping.
type lane struct {
	d       uint64 // math.Float64bits of the delay
	ring    []timer
	head, n int
}

// reserve sizes keys and payloads, which hold the free list, together for
// n pending events, so neither grows while the heap stays within n.
func (q *eventQueue) reserve(n int) {
	q.k = make([]qkey, 0, n)
	q.p = make([]event, 0, n)
}

// queueReserve is the pending-event capacity an event loop over n nodes
// reserves: its steady state (a completion per busy node, a sprint end
// where a phase stops short of it, trip bookkeeping per rack) with room
// to spare, so the loop never reallocates its queue.
func queueReserve(n int) int { return 2*n + 64 }

//sprint:hotpath
func (q *eventQueue) len() int { return len(q.k) + q.timers }

// clear empties the queue — keys, payloads, free list and lanes — keeping
// every array's capacity for reuse.
//
//sprint:hotpath
func (q *eventQueue) clear() {
	q.k, q.p, q.free = q.k[:0], q.p[:0], 0
	for i := range q.lanes {
		q.lanes[i].head, q.lanes[i].n = 0, 0
	}
	q.timers, q.best = 0, 0
}

// topAt returns the earliest event's firing time; the caller must ensure
// the queue is non-empty.
//
//sprint:hotpath
func (q *eventQueue) topAt() float64 {
	// lessBit rather than less keeps topAt within the inlining budget.
	k := q.headK
	if q.best == 0 || len(q.k) != 0 && q.k[0].lessBit(k) != 0 {
		k = q.k[0]
	}
	return keyTime(k.t)
}

// push schedules ev at atS as the seq-th push, sifting its key up from
// the tail through a hole: parents move down one level until the key
// fits, and it is stored once.
//
//sprint:hotpath
func (q *eventQueue) push(atS float64, ev event, seq uint64) {
	if seq >= seqLimit || q.free == 0 && len(q.p) == maxSlots {
		q.overflow = true
		return
	}
	var slot uint32
	if q.free != 0 {
		slot = uint32(q.free - 1)
		q.free = q.p[slot].req
		q.p[slot] = ev
	} else {
		slot = uint32(len(q.p))
		q.p = append(q.p, ev)
	}
	key := qkey{timeKey(atS), seq<<slotBits | uint64(slot)}
	q.k = append(q.k, key)
	k := q.k
	i := len(k) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !key.less(k[p]) {
			break
		}
		k[i] = k[p]
		i = p
	}
	k[i] = key
}

// pop removes the earliest event and returns its firing time and
// payload, freeing its slot. The last key sifts down from the root
// through a hole: each level promotes the smallest of up to four
// children until the key fits.
//
//sprint:hotpath
func (q *eventQueue) pop() (float64, event) {
	if q.best != 0 && (len(q.k) == 0 || q.headK.less(q.k[0])) {
		l := &q.lanes[q.best-1]
		h := l.ring[l.head]
		l.head = (l.head + 1) & (len(l.ring) - 1)
		l.n--
		q.timers--
		q.relane()
		return keyTime(h.k.t), h.ev
	}
	k := q.k
	top := k[0]
	slot := uint32(top.ord & slotMask)
	ev := q.p[slot]
	q.p[slot].req = q.free
	q.free = int32(slot) + 1
	n := len(k) - 1
	last := k[n]
	k = k[:n]
	q.k = k
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			best := c
			if c+3 < n {
				// A full group: a two-round tournament whose winner is
				// index arithmetic, not a branch, so the coin-flip
				// comparisons of a sift cost no mispredictions.
				g := k[c : c+4 : c+4]
				x := g[1].lessBit(g[0])
				y := 2 + g[3].lessBit(g[2])
				best = c + x + (y-x)*g[y].lessBit(g[x])
			} else {
				for j := c + 1; j < n; j++ {
					if k[j].less(k[best]) {
						best = j
					}
				}
			}
			if !k[best].less(last) {
				break
			}
			k[i] = k[best]
			i = best
		}
		k[i] = last
	}
	return keyTime(top.t), ev
}

// pushLane schedules ev at nowS+d as the seq-th push, on the lane for
// delay d, which it creates on first use. The caller must never pass a
// nowS below an earlier push's: that is what keeps every lane in
// (time, seq) order.
//
//sprint:hotpath
func (q *eventQueue) pushLane(nowS, d float64, ev event, seq uint64) {
	if seq >= seqLimit {
		q.overflow = true
		return
	}
	db := math.Float64bits(d)
	i := 0
	for i < len(q.lanes) && q.lanes[i].d != db {
		i++
	}
	if i == len(q.lanes) {
		q.lanes = append(q.lanes, lane{d: db})
	}
	l := &q.lanes[i]
	if l.n == len(l.ring) {
		l.grow()
	}
	key := qkey{timeKey(nowS + d), seq << slotBits}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = timer{key, ev}
	l.n++
	q.timers++
	if l.n == 1 && (q.best == 0 || key.less(q.headK)) {
		q.best, q.headK = i+1, key
	}
}

// grow doubles a full lane's ring, 16 entries at first, unwrapping its
// timers to start at 0.
func (l *lane) grow() {
	ring := make([]timer, max(2*len(l.ring), 16))
	m := copy(ring, l.ring[l.head:])
	copy(ring[m:], l.ring[:l.head])
	l.ring, l.head = ring, 0
}

// relane points best at the lane whose head fires first, after a lane
// pop moved one head.
//
//sprint:hotpath
func (q *eventQueue) relane() {
	q.best = 0
	for i := range q.lanes {
		l := &q.lanes[i]
		if l.n == 0 {
			continue
		}
		if h := l.ring[l.head].k; q.best == 0 || h.less(q.headK) {
			q.best, q.headK = i+1, h
		}
	}
}

// push schedules an event at atS, stamping the deterministic tie-break
// sequence.
//
//sprint:hotpath
func (s *sim) push(atS float64, ev event) {
	s.events.push(atS, ev, s.seq)
	s.seq++
}

// pushAfter schedules a timer d after now on the event queue's lane for
// d, stamping the tie-break sequence as push does.
//
//sprint:hotpath
func (s *sim) pushAfter(d float64, ev event) {
	s.events.pushLane(s.nowS, d, ev, s.seq)
	s.seq++
}
