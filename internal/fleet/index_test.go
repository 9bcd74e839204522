package fleet

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// TestIndexedDispatchMatchesReferenceScan is the cross-implementation
// determinism suite: every policy × rack coordination × seed, at two load
// shapes (healthy, and overloaded into tiny queues so the full-node
// fallback, drop attribution, and hedge suppression paths all fire), each
// also on 1-wide nodes (where every idle sprint-aware node must tie
// exactly), must produce identical Metrics from the O(log N) dispatch
// index and from the retained O(N) linear-scan reference selector. This
// is the proof that the index is an optimization, not a behavior change.
func TestIndexedDispatchMatchesReferenceScan(t *testing.T) {
	if refDispatch {
		t.Fatal("refDispatch already set")
	}
	shapes := []struct {
		name     string
		overload float64
		queueCap int
		width    int // 0: the default sprint width
	}{
		{"healthy", 0.9, 256, 0},
		{"overloaded", 1.6, 3, 0},
		{"healthy-1wide", 0.9, 256, 1},
		{"overloaded-1wide", 1.6, 3, 1},
	}
	for _, sh := range shapes {
		for _, p := range Policies() {
			for _, c := range append([]Coordination{NoCoordination}, Coordinations()...) {
				for _, seed := range []int64{1, 7, 42} {
					cfg := DefaultConfig(p)
					cfg.Nodes = 24
					cfg.Requests = 1500
					cfg.Seed = seed
					cfg.QueueCap = sh.queueCap
					cfg.ArrivalRatePerS = sh.overload * float64(cfg.Nodes) / cfg.MeanWorkS
					cfg.Coordination = c
					if sh.width > 0 {
						cfg.SprintWidth = sh.width
					}
					name := fmt.Sprintf("%s/%s/%s/seed=%d", sh.name, p, c, seed)

					indexed := mustSimulate(t, cfg)
					refDispatch = true
					ref := mustSimulate(t, cfg)
					refDispatch = false
					if !reflect.DeepEqual(indexed, ref) {
						t.Errorf("%s: indexed dispatch diverged from the linear-scan reference:\nindexed: %+v\nref:     %+v",
							name, indexed, ref)
					}
				}
			}
		}
	}
}

func TestIndexArgminRotationTieBreak(t *testing.T) {
	idx := newDispatchIndex(5)
	idx.reset(math.Inf(-1)) // every node idle: a five-way exact tie
	for start, want := range map[int]int{0: 0, 2: 2, 4: 4} {
		if got := idx.argmin(start); got != want {
			t.Errorf("all-tied argmin(start=%d) = %d, want %d", start, got, want)
		}
	}
	// Distinct keys: the minimum wins regardless of rotation.
	for i, d := range []float64{5, 3, 9, 3, 7} {
		idx.update(i, d)
	}
	if got := idx.argmin(0); got != 1 {
		t.Errorf("argmin(0) = %d, want 1 (first of the tied 3s)", got)
	}
	if got := idx.argmin(2); got != 3 {
		t.Errorf("argmin(2) = %d, want 3 (rotation reaches index 3 before 1)", got)
	}
	// Absent (+Inf) nodes lose to any present node whatever its key.
	idx.update(1, math.Inf(1))
	idx.update(3, math.Inf(1))
	if got := idx.argmin(0); got != 0 {
		t.Errorf("argmin(0) with 1,3 absent = %d, want 0 (min present key 5)", got)
	}
	for _, i := range []int{0, 2, 4} {
		idx.update(i, math.Inf(1))
	}
	if got := idx.argmin(0); got != -1 {
		t.Errorf("argmin over an all-absent tree = %d, want -1", got)
	}
}

func TestIndexFirstLE(t *testing.T) {
	idx := newDispatchIndex(6)
	idx.reset(0)
	for i, d := range []float64{4, 1, 8, 2, 1, 9} {
		idx.update(i, d)
	}
	if got := idx.firstLE(0, 2); got != 1 {
		t.Errorf("firstLE(start=0, 2) = %d, want 1", got)
	}
	if got := idx.firstLE(2, 2); got != 3 {
		t.Errorf("firstLE(start=2, 2) = %d, want 3 (rotation order)", got)
	}
	if got := idx.firstLE(5, 2); got != 1 {
		t.Errorf("firstLE(start=5, 2) = %d, want 1 (wraps past 5)", got)
	}
	if got := idx.firstLE(0, 0.5); got != -1 {
		t.Errorf("firstLE below the minimum = %d, want -1", got)
	}
	idx.update(1, math.Inf(1))
	idx.update(4, math.Inf(1))
	if got := idx.firstLE(0, 2); got != 3 {
		t.Errorf("firstLE with 1,4 absent = %d, want 3", got)
	}
	// A +Inf threshold means "first present node", never an absent one.
	if got := idx.firstLE(4, math.Inf(1)); got != 5 {
		t.Errorf("firstLE(start=4, +Inf) with 4 absent = %d, want 5", got)
	}
}

// TestIndexArgminExcept: the exclusion query passes over the excluded
// node, whether it holds the unique minimum, ties it, starts the
// rotation or is the only present node, and writes no slot.
func TestIndexArgminExcept(t *testing.T) {
	idx := newDispatchIndex(5)
	idx.reset(0)
	for i, d := range []float64{2, 1, 3, 1, 5} {
		idx.update(i, d)
	}
	before := slices.Clone(idx.d)
	for _, c := range []struct{ start, ex, want int }{
		{0, 0, 1}, // ex is not the minimum
		{0, 1, 3}, // ex ties the minimum and comes first
		{1, 1, 3}, // ex is the rotation start
		{4, 3, 1}, // ex ties the minimum from the other side of the wrap
		{2, 3, 1},
	} {
		if got := idx.argminExcept(c.start, c.ex); got != c.want {
			t.Errorf("argminExcept(start=%d, ex=%d) = %d, want %d", c.start, c.ex, got, c.want)
		}
	}
	idx.update(3, 4) // node 1 now holds the unique minimum
	if got := idx.argminExcept(0, 1); got != 0 {
		t.Errorf("argminExcept(0, 1) with 1 the unique minimum = %d, want 0", got)
	}
	idx.update(3, 1)
	if !slices.Equal(idx.d, before) {
		t.Error("argminExcept wrote the tree")
	}
	for _, i := range []int{0, 2, 3, 4} {
		idx.update(i, math.Inf(1))
	}
	if got := idx.argminExcept(0, 1); got != -1 {
		t.Errorf("argminExcept with ex the only present node = %d, want -1", got)
	}
}

// FuzzDispatchIndex drives a tree of 1–70 leaves through a bounded op
// sequence — updates to finite, −Inf, or absent keys, whole-tree resets,
// argmin, argminExcept, firstLE, nextLE and minLeaf queries from any
// start — and after every op checks each query against a brute-force
// rotation scan, every interior slot against the minimum of its
// children and every idle bit against its leaf. The first byte sizes
// the tree;
// each op then takes up to three bytes. The seed corpus lives in
// testdata/fuzz/FuzzDispatchIndex.
func FuzzDispatchIndex(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%70
		data = data[1:]
		idx := newDispatchIndex(n)
		want := make([]float64, n) // the leaf keys, maintained by brute force
		for i := range want {
			want[i] = math.Inf(1)
		}
		// key decodes a byte into a small key range so ties are common;
		// the top values map to −Inf and absent.
		key := func(b byte) float64 {
			switch b % 18 {
			case 16:
				return math.Inf(-1)
			case 17:
				return math.Inf(1)
			}
			return float64(int(b%18)-8) / 2
		}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		for ops := 0; len(data) > 0 && ops < 512; ops++ {
			switch op, leaf := next()%5, int(next())%n; op {
			case 0:
				d := key(next())
				idx.update(leaf, d)
				want[leaf] = d
			case 1:
				checkExcept(t, idx, want, int(next())%n, leaf)
			case 2:
				d := key(next())
				idx.reset(d)
				for i := range want {
					want[i] = d
				}
			default:
				checkIndex(t, idx, want, leaf, key(next()))
			}
			checkIndex(t, idx, want, 0, 0)
		}
	})
}

// checkExcept compares argminExcept(start, ex) with a brute-force
// rotation scan that skips ex, and checks the query wrote no slot.
func checkExcept(t *testing.T, idx *dispatchIndex, want []float64, start, ex int) {
	t.Helper()
	m := math.Inf(1)
	for i, d := range want {
		if i != ex {
			m = math.Min(m, d)
		}
	}
	w := -1
	for k := range want {
		if j := (start + k) % len(want); j != ex && want[j] < math.Inf(1) && want[j] == m {
			w = j
			break
		}
	}
	before, idle := slices.Clone(idx.d), slices.Clone(idx.idle)
	if got := idx.argminExcept(start, ex); got != w {
		t.Fatalf("argminExcept(%d, %d) = %d, want %d (keys %v)", start, ex, got, w, want)
	}
	if !slices.Equal(idx.d, before) || !slices.Equal(idx.idle, idle) {
		t.Fatalf("argminExcept(%d, %d) wrote the tree (keys %v)", start, ex, want)
	}
}

// checkIndex compares idx with the brute-force leaf keys want: the tree
// invariant, the idle bitset, argmin(start), and firstLE(start, thresh).
func checkIndex(t *testing.T, idx *dispatchIndex, want []float64, start int, thresh float64) {
	t.Helper()
	for i := 0; i < idx.size; i++ {
		d := math.Inf(1)
		if i < len(want) {
			d = want[i]
		}
		if got := idx.d[idx.size+i]; got != d {
			t.Fatalf("leaf %d holds %g, want %g", i, got, d)
		}
	}
	for i := 1; i < idx.size; i++ {
		if m := math.Min(idx.d[2*i], idx.d[2*i+1]); idx.d[i] != m {
			t.Fatalf("slot %d holds %g, want the children's minimum %g", i, idx.d[i], m)
		}
	}
	// Bit i is set exactly when leaf i holds −Inf; the padding bits past
	// the last leaf stay clear.
	for i := 0; i < 64*len(idx.idle); i++ {
		set := idx.idle[i>>6]&(1<<(i&63)) != 0
		if idle := i < len(want) && want[i] == math.Inf(-1); set != idle {
			t.Fatalf("idle bit %d is %t, want %t (keys %v)", i, set, idle, want)
		}
	}
	// firstIn is the rotation scan: the first present leaf from start
	// whose key is ≤ lim.
	firstIn := func(lim float64) int {
		for k := range want {
			if j := (start + k) % len(want); want[j] < math.Inf(1) && want[j] <= lim {
				return j
			}
		}
		return -1
	}
	m := math.Inf(1)
	for _, d := range want {
		m = math.Min(m, d)
	}
	if got, w := idx.argmin(start), firstIn(m); got != w {
		t.Fatalf("argmin(%d) = %d, want %d (keys %v)", start, got, w, want)
	}
	if got, w := idx.firstLE(start, thresh), firstIn(thresh); got != w {
		t.Fatalf("firstLE(%d, %g) = %d, want %d (keys %v)", start, thresh, got, w, want)
	}
	// nextLE, chained from -1, lists every present leaf ≤ thresh in
	// rotation order from start, each once.
	var walk, scan []int
	for j := idx.nextLE(start, -1, thresh); j >= 0; j = idx.nextLE(start, j, thresh) {
		if len(walk) > len(want) {
			t.Fatalf("nextLE(%d, ·, %g) does not end (keys %v)", start, thresh, want)
		}
		walk = append(walk, j)
	}
	for k := range want {
		if j := (start + k) % len(want); want[j] < math.Inf(1) && want[j] <= thresh {
			scan = append(scan, j)
		}
	}
	if !slices.Equal(walk, scan) {
		t.Fatalf("nextLE from %d at %g walked %v, want %v (keys %v)", start, thresh, walk, scan, want)
	}
	// minLeaf names the leftmost leaf holding each present slot's key.
	for c := 1; c < 2*idx.size; c++ {
		if idx.d[c] == math.Inf(1) {
			continue
		}
		lo, hi := c, c
		for lo < idx.size {
			lo, hi = 2*lo, 2*hi+1
		}
		first := -1
		for i := lo - idx.size; i <= hi-idx.size; i++ {
			if idx.d[idx.size+i] == idx.d[c] {
				first = i
				break
			}
		}
		if got := idx.minLeaf(c); got != first {
			t.Fatalf("minLeaf(%d) = %d, want %d (keys %v)", c, got, first, want)
		}
	}
}

// BenchmarkDispatchIndex is the dispatch index's per-layer benchmark: a
// churn over 10k leaves shaped like sprint-aware dispatch. Each op runs
// 1<<16 steps; a step takes the idle tree's argmin from a rotating
// start, marks that node busy (absent from the idle tree, keyed by its
// drain instant in the busy tree), then re-keys a random node as if its
// service completed (idle again under a fresh budget key).
func BenchmarkDispatchIndex(b *testing.B) {
	const n, steps = 10000, 1 << 16
	idle, busy := newDispatchIndex(n), newDispatchIndex(n)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for op := 0; op < b.N; op++ {
		idle.reset(0)
		busy.reset(math.Inf(1))
		now := 0.0
		for k := 0; k < steps; k++ {
			now += 1e-3
			if id := idle.argmin(k % n); id >= 0 {
				idle.update(id, math.Inf(1))
				busy.update(id, now+1)
			}
			j := rng.Intn(n)
			busy.update(j, math.Inf(1))
			idle.update(j, now-rng.Float64())
		}
	}
}

// BenchmarkDispatchIndexIdle is the idle-heavy churn of least-loaded
// and hedged dispatch: 2,000 leaves, of which the 250 most recent picks
// are busy and the rest idle (−Inf). Each step asks argminExcept from a
// rotating start with ex the previous pick, as a hedge passes over its
// original's node, marks the pick busy, and frees the pick made 250
// steps earlier.
func BenchmarkDispatchIndexIdle(b *testing.B) {
	const n, inflight, steps = 2000, 250, 1 << 16
	idx := newDispatchIndex(n)
	ring := make([]int, inflight)
	b.ReportAllocs()
	b.ResetTimer()
	for op := 0; op < b.N; op++ {
		idx.reset(math.Inf(-1))
		for i := range ring {
			ring[i] = -1
		}
		prev, now := -1, 0.0
		for k := 0; k < steps; k++ {
			now += 1e-3
			id := idx.argminExcept(k%n, prev)
			if done := ring[k%inflight]; done >= 0 {
				idx.update(done, math.Inf(-1))
			}
			ring[k%inflight] = id
			if id >= 0 {
				idx.update(id, now+1)
			}
			prev = id
		}
	}
}

// TestSprintAwareBusyBoundTie pins the strict > of sprint-aware's busy
// search. Node 0's backlog drains exactly now (a completion due at the
// arrival's instant fires after it), and every node holds a full budget,
// so node 0's estimate ties the idle nodes' to the bit and its bound
// drain + work/width equals the idle champion's score. Node 0 comes first
// in rotation, so it must win the tie, as the linear scan picks it; a
// search that prunes a bound tie picks idle node 1 instead.
func TestSprintAwareBusyBoundTie(t *testing.T) {
	cfg := DefaultConfig(SprintAware)
	cfg.Nodes = 3
	cfg = cfg.withDefaults()
	if err := (Spec{Config: cfg}).Validate(); err != nil {
		t.Fatal(err)
	}
	s := newSim(cfg, nil, nil, nil)
	s.nowS = 5
	n := &s.nodes[0]
	n.busy, n.busyUntilS = true, s.nowS
	s.touch(n)
	const workS = 0.01
	for _, id := range []int{0, 1} {
		if a, b := s.estFinishAt(&s.nodes[id], workS), s.nowS+workS/s.cl(n).width; a != b {
			t.Fatalf("node %d estimates %v, want the tied %v", id, a, b)
		}
	}
	if ref := s.refSelect(workS, -1, 0); ref != n {
		t.Fatalf("reference scan picked node %d, want 0", ref.id)
	}
	if got := s.selectNode(workS, -1); got != n {
		t.Errorf("sprint-aware picked node %d, want busy node 0: a bound tie must stay in the search", got.id)
	}
}

// TestIndexedDispatchAtScaleSmoke runs one mid-size simulation per policy
// purely for the index's internal consistency checks (drop accounting,
// rack invariants assert at finish); the interesting regime for the index
// is thousands of nodes, which the unit-level determinism suite cannot
// afford to cross-check exhaustively.
func TestIndexedDispatchAtScaleSmoke(t *testing.T) {
	for _, p := range Policies() {
		cfg := DefaultConfig(p)
		cfg.Nodes = 500
		cfg.Requests = 5000
		m, _, err := Run(context.Background(), Spec{Config: cfg})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if m.Completed+m.Dropped != m.Requests {
			t.Errorf("%s: %d completed + %d dropped != %d requests", p, m.Completed, m.Dropped, m.Requests)
		}
	}
}
