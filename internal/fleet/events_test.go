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

// FuzzEventQueue interleaves pushes and pops and checks every popped
// event, payload included, against a reference popped by its minimum
// (atS, seq) under float comparison. A byte below 0x80 pushes an event at
// queueFuzzTimes[b&15]; 0x80–0xEF pops one; 0xF0–0xFF pops up to
// (b&15)+1, so long pop runs free many slots for the pushes after them to
// reuse. seq0 starts the push count anywhere below seqLimit, so the seq
// field's top bits are exercised too. The seed corpus lives in
// testdata/fuzz/FuzzEventQueue.
func FuzzEventQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte, seq0 uint64) {
		type refEvent struct {
			at  float64
			ev  event
			seq uint64
		}
		seq := seq0 % (seqLimit - uint64(len(ops)))
		var q eventQueue
		var ref []refEvent
		high := 0
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
			switch {
			case b < 0x80:
				at := queueFuzzTimes[b&15]
				ev := event{
					gen:  seq,
					req:  int32(i),
					node: int32(b),
					rack: int32(len(ref)),
					kind: eventKind(b >> 4),
				}
				q.push(at, ev, seq)
				ref = append(ref, refEvent{at, ev, seq})
				seq++
				high = max(high, len(ref))
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
				free++
			}
			if len(q.p) > high || len(q.p) != q.len()+free {
				t.Fatalf("op %d: %d payload slots (%d free) for %d pending, high-water %d; freed slots are not reused",
					i, len(q.p), free, q.len(), high)
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
	if err := cfg.Validate(); err != nil {
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
