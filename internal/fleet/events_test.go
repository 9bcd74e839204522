package fleet

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sprinting/internal/session"
)

// queueFuzzTimes is FuzzEventQueue's tie-heavy palette of firing times:
// repeated instants, −0 beside +0, negatives, subnormals and the finite
// extremes, so the key's float-to-uint64 map meets every sign and class.
var queueFuzzTimes = [16]float64{
	math.Copysign(0, -1), 0, 1, 1,
	-1, -1, 2.5, -2.5,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
	1e-300, -1e300, 0, math.Copysign(0, -1),
}

// queueFuzzDelays and queueFuzzSteps are FuzzEventQueue's lane palettes:
// the timer delays, with 0 and repeats so several ops share a lane, and
// the steps its clock advances by, with 0 so lane pushes tie each other
// and land on the heap palette's instants.
var (
	queueFuzzDelays = [8]float64{0, 0.5, 1, 0.5, 2.5, 1e-300, 0, 1.5}
	queueFuzzSteps  = [4]float64{0, 0.5, 1, 1e-300}
)

// FuzzEventQueue interleaves heap pushes, lane pushes, pops and clears
// and checks every popped event, payload included, against a reference
// popped by its minimum (atS, seq) under float comparison. A byte below
// 0x80 pushes an event on the heap at queueFuzzTimes[b&15]; 0xC0–0xDF
// advances a clock, which starts at 0 and never goes back, by
// queueFuzzSteps[b>>3&3] and pushes a timer on the lane for delay
// queueFuzzDelays[b&7]; 0x80–0xBF and 0xE0–0xE7 pop one; 0xE8–0xEF clears
// the queue and the reference, after which the slot accounting below
// demands an empty free list and empty lanes; 0xF0–0xFF pops up to
// (b&15)+1, so long pop runs free many slots for the pushes after them to
// reuse and drain lanes. seq0 starts the push count anywhere below
// seqLimit, so the seq field's top bits are exercised too. After every op
// the cached earliest lane head must be the true one. The seed corpus
// lives in testdata/fuzz/FuzzEventQueue.
func FuzzEventQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte, seq0 uint64) {
		type refEvent struct {
			at   float64
			ev   event
			seq  uint64
			lane bool
		}
		seq := seq0 % (seqLimit - uint64(len(ops)))
		var q eventQueue
		var ref []refEvent
		nowS := 0.0
		high, heaped := 0, 0
		popOne := func() {
			best := 0
			for j, r := range ref {
				b := ref[best]
				if r.at < b.at || r.at == b.at && r.seq < b.seq {
					best = j
				}
			}
			want := ref[best]
			ref = append(ref[:best], ref[best+1:]...)
			if !want.lane {
				heaped--
			}
			// A −0 time fires as +0, its equal; every other time keeps
			// its exact bits.
			wantBits := math.Float64bits(want.at + 0)
			if at := q.topAt(); math.Float64bits(at) != wantBits {
				t.Fatalf("topAt %g, want %g", at, want.at)
			}
			at, got := q.pop()
			if got != want.ev || math.Float64bits(at) != wantBits {
				t.Fatalf("popped %+v at %g, want %+v at %g (seq %d)", got, at, want.ev, want.at, want.seq)
			}
		}
		for i, b := range ops {
			ev := event{
				gen:  seq,
				req:  int32(i),
				node: int32(b),
				rack: int32(len(ref)),
				kind: eventKind(b >> 4),
			}
			switch {
			case b < 0x80:
				at := queueFuzzTimes[b&15]
				q.push(at, ev, seq)
				ref = append(ref, refEvent{at, ev, seq, false})
				seq++
				heaped++
				high = max(high, heaped)
			case b >= 0xC0 && b < 0xE0:
				nowS += queueFuzzSteps[b>>3&3]
				d := queueFuzzDelays[b&7]
				q.pushLane(nowS, d, ev, seq)
				ref = append(ref, refEvent{nowS + d, ev, seq, true})
				seq++
			case b >= 0xE8 && b < 0xF0:
				q.clear()
				ref, heaped = ref[:0], 0
			default:
				n := 1
				if b >= 0xF0 {
					n = int(b&15) + 1
				}
				for ; n > 0 && len(ref) > 0; n-- {
					popOne()
				}
			}
			if q.len() != len(ref) {
				t.Fatalf("op %d: queue holds %d events, reference %d", i, q.len(), len(ref))
			}
			free := 0
			for f := q.free; f != 0 && free <= len(q.p); f = q.p[f-1].req {
				if int(f) > len(q.p) {
					t.Fatalf("op %d: the free list links slot %d of %d payload slots", i, f-1, len(q.p))
				}
				free++
			}
			if len(q.p) > high || len(q.k) != heaped || len(q.p) != heaped+free {
				t.Fatalf("op %d: %d payload slots (%d free) for %d pending on the heap, high-water %d; freed slots are not reused",
					i, len(q.p), free, heaped, high)
			}
			timers, best := 0, 0
			var head qkey
			for j := range q.lanes {
				l := &q.lanes[j]
				timers += l.len()
				if l.len() == 0 {
					continue
				}
				if h := l.at(l.head).k; best == 0 || h.less(head) {
					best, head = j+1, h
				}
			}
			if timers != len(ref)-heaped || q.timers != timers {
				t.Fatalf("op %d: lanes hold %d timers and count %d, reference %d", i, timers, q.timers, len(ref)-heaped)
			}
			if q.best != best || best != 0 && q.headK != head {
				t.Fatalf("op %d: cached lane head %d %+v, earliest %d %+v", i, q.best, q.headK, best, head)
			}
		}
		for len(ref) > 0 {
			popOne()
		}
		if q.overflow {
			t.Fatal("queue flagged an overflow below seqLimit")
		}
	})
}

// TestEventQueueSeqLimit pins the overflow contract of the heap key's seq
// field: a run whose pushes end exactly at seqLimit reproduces the run
// that starts at seq 0, and one push more makes the run fail with
// errQueueOverflow rather than misorder events.
func TestEventQueueSeqLimit(t *testing.T) {
	cfg := DefaultConfig(Hedged)
	cfg.Nodes = 16
	cfg.Requests = 2000
	cfg.Coordination = TokenPermit
	cfg.RackSize = 4
	cfg = cfg.withDefaults()
	if err := (Spec{Config: cfg}).Validate(); err != nil {
		t.Fatal(err)
	}
	bursts := session.GenerateBursts(cfg.Requests, 1/cfg.EffectiveRatePerS(), cfg.MeanWorkS, cfg.Seed)
	run := func(seq0 uint64) (Metrics, uint64, error) {
		s := newSim(cfg, nil, nil, nil)
		s.reqs = make([]request, len(bursts))
		for i, b := range bursts {
			s.reqs[i] = request{arrivalS: b.ArrivalS, workS: b.WorkS, doneS: -1, firstNode: -1}
		}
		s.seq = seq0
		m, err := s.start(context.Background())
		return m, s.seq - seq0, err
	}
	want, pushes, err := run(0)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := run(seqLimit - pushes)
	if err != nil {
		t.Fatalf("a run ending at seq %d failed: %v", uint64(seqLimit-1), err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("a run at the top of the seq range diverged from the run at 0:\n got %+v\nwant %+v", got, want)
	}
	if _, _, err := run(seqLimit - pushes + 1); !errors.Is(err, errQueueOverflow) {
		t.Errorf("a run pushing seq %d returned %v, want errQueueOverflow", uint64(seqLimit), err)
	}
}

// TestTimersRideLanes is an exact work count for the heap: a hedged fleet
// with client timeouts and a class hedge override schedules every hedge
// check and timeout on a lane, one lane per distinct delay, so after each
// dispatch the heap holds only the completions.
func TestTimersRideLanes(t *testing.T) {
	cfg := DefaultConfig(Hedged)
	cfg.Nodes = 2
	cfg.Requests = 2
	cfg.Reliability.TimeoutS = 5
	cfg = cfg.withDefaults()
	if err := (Spec{Config: cfg}).Validate(); err != nil {
		t.Fatal(err)
	}
	wl := &workloadRun{disc: wlFIFO, classes: []wlClass{{hedgeS: 0.25}, {}}}
	s := newSim(cfg, nil, nil, wl)
	s.reqs = []request{
		{workS: 1, doneS: -1, firstNode: -1, slo: 0},
		{workS: 1, doneS: -1, firstNode: -1, slo: 1},
	}
	// The lanes in creation order, each as its delay and pending timers:
	// the override class's hedge check and timeout, then the default
	// class's hedge check beside a second timeout.
	for ri, want := range [][][2]float64{
		{{0.25, 1}, {5, 1}},
		{{0.25, 1}, {5, 2}, {cfg.HedgeDelayS, 1}},
	} {
		s.dispatch(int32(ri))
		q := &s.events
		if len(q.k) != ri+1 {
			t.Fatalf("after dispatch %d the heap holds %d events, want %d completions", ri, len(q.k), ri+1)
		}
		for _, k := range q.k {
			if kind := q.p[k.ord&slotMask].kind; kind != evComplete {
				t.Errorf("after dispatch %d the heap holds an event of kind %d, want only completions", ri, kind)
			}
		}
		var got [][2]float64
		for i := range q.lanes {
			l := &q.lanes[i]
			got = append(got, [2]float64{math.Float64frombits(l.d), float64(l.len())})
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("after dispatch %d the lanes (delay, timers) are %v, want %v", ri, got, want)
		}
	}
}

// TestTimeKeyOrder checks the key's float map on neighbours that break a
// naive bit compare — −0 ties +0, and negatives sort below positives in
// magnitude-reversed order — and that keyTime inverts it.
func TestTimeKeyOrder(t *testing.T) {
	if a, b := timeKey(math.Copysign(0, -1)), timeKey(0); a != b {
		t.Errorf("timeKey(−0) = %#x, timeKey(+0) = %#x; they must tie", a, b)
	}
	ordered := []float64{-math.MaxFloat64, -1e300, -2.5, -1, -math.SmallestNonzeroFloat64, 0,
		math.SmallestNonzeroFloat64, 1e-300, 1, 2.5, math.MaxFloat64}
	for i := 1; i < len(ordered); i++ {
		if timeKey(ordered[i-1]) >= timeKey(ordered[i]) {
			t.Errorf("timeKey(%g) >= timeKey(%g)", ordered[i-1], ordered[i])
		}
	}
	for _, x := range ordered {
		if y := keyTime(timeKey(x)); math.Float64bits(y) != math.Float64bits(x) {
			t.Errorf("keyTime(timeKey(%g)) = %g", x, y)
		}
	}
}

// BenchmarkEventQueue is the event queue's per-layer benchmark, shaped
// like scale_sprint's heap: a steady 5,312 pending events (that run's
// high-water mark), and each step pops the earliest and schedules a
// replacement one exponential service time after it, as a completion
// starting the next queued service does. Each op runs 1<<16 steps.
func BenchmarkEventQueue(b *testing.B) {
	const pending, steps = 5312, 1 << 16
	rng := rand.New(rand.NewSource(1))
	svc := make([]float64, steps)
	for i := range svc {
		svc[i] = rng.ExpFloat64()
	}
	var q eventQueue
	q.reserve(pending)
	var seq uint64
	for i := 0; i < pending; i++ {
		q.push(rng.ExpFloat64(), event{kind: evComplete, node: int32(i)}, seq)
		seq++
	}
	b.ReportAllocs()
	b.ResetTimer()
	for op := 0; op < b.N; op++ {
		for k := 0; k < steps; k++ {
			at, ev := q.pop()
			q.push(at+svc[k], ev, seq)
			seq++
		}
	}
}

// BenchmarkEventQueueTimers is the event queue's per-layer benchmark for
// timers, shaped like flash_tenants' queue: a steady 2,000 completions on
// the heap, and each completion popped schedules its replacement one
// exponential service time later plus a 5 s timeout and a 0.5 s hedge
// check on their lanes, which fire stale as most of that run's timers
// do. Each op runs 1<<16 pops.
func BenchmarkEventQueueTimers(b *testing.B) {
	const pending, steps = 2000, 1 << 16
	rng := rand.New(rand.NewSource(1))
	svc := make([]float64, steps)
	for i := range svc {
		svc[i] = 1.5 * rng.ExpFloat64()
	}
	var q eventQueue
	q.reserve(pending)
	var seq uint64
	for i := 0; i < pending; i++ {
		q.push(1.5*rng.ExpFloat64(), event{kind: evComplete, node: int32(i)}, seq)
		seq++
	}
	step := func(k int) {
		at, ev := q.pop()
		if ev.kind != evComplete {
			return
		}
		q.push(at+svc[k], ev, seq)
		q.pushLane(at, 5, event{kind: evTimeout, req: ev.node}, seq+1)
		q.pushLane(at, 0.5, event{kind: evHedge, req: ev.node}, seq+2)
		seq += 3
	}
	for k := 0; k < steps; k++ {
		step(k) // grow the lanes to their steady size
	}
	b.ReportAllocs()
	b.ResetTimer()
	for op := 0; op < b.N; op++ {
		for k := 0; k < steps; k++ {
			step(k)
		}
	}
}

// TestFifo drives a fifo across chunk boundaries and the 2³² wrap of its
// positions against a slice reference, growing it to a few thousand
// values and draining it again: every queued value reads back at its
// position, a pointer from at survives later pushes, and the chunks the
// head leaves are reused, so they never outnumber the positions the queue
// ever spanned.
func TestFifo(t *testing.T) {
	var f fifo[int]
	f.head, f.tail = math.MaxUint32-300, math.MaxUint32-300
	rng := rand.New(rand.NewSource(1))
	var ref []int
	next, spanned := 0, 0
	for step := 0; step < 5000; step++ {
		grow := step < 2000
		if k := 1 + rng.Intn(24); len(ref) == 0 || (rng.Intn(3) == 0) != grow {
			var head *int
			if len(ref) > 0 {
				head = f.at(f.head)
			}
			p := f.push(k)
			for i := range k {
				*f.at(p + uint32(i)) = next
				ref = append(ref, next)
				next++
			}
			if head != nil && (head != f.at(f.head) || *head != ref[0]) {
				t.Fatalf("step %d: the push moved the head value", step)
			}
		} else {
			k = min(k, len(ref))
			f.pop(k)
			ref = ref[k:]
		}
		spanned = max(spanned, int(f.tail-f.head&^(fifoChunk-1)))
		if f.len() != len(ref) {
			t.Fatalf("step %d: len %d, reference %d", step, f.len(), len(ref))
		}
		for i, v := range ref {
			if got := *f.at(f.head + uint32(i)); got != v {
				t.Fatalf("step %d: position head+%d holds %d, want %d", step, i, got, v)
			}
		}
		if want := (spanned + fifoChunk - 1) / fifoChunk; len(f.chunks) != want {
			t.Fatalf("step %d: %d chunks for %d positions spanned, want %d", step, len(f.chunks), spanned, want)
		}
	}
	if spanned < 8*fifoChunk || f.len() > fifoChunk {
		t.Fatalf("the run spanned %d positions and ends holding %d values; it must cross many chunks and drain", spanned, f.len())
	}
}
