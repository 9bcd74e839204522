package workloads

import (
	"strings"
	"testing"

	"sprinting/internal/archsim"
	"sprinting/internal/isa"
	"sprinting/internal/rt"
)

// testParams keeps unit-test inputs small and fast.
func testParams() Params {
	return Params{Size: SizeA, Scale: 0.3, Shards: 8, Seed: 7}
}

// mix is a program's dynamic instruction mix.
type mix struct {
	ComputeOps uint64 // total ALU ops (expanded run lengths)
	Loads      uint64
	Stores     uint64
	Pauses     uint64
}

// instructions returns the total dynamic instruction count.
func (m mix) instructions() uint64 { return m.ComputeOps + m.Loads + m.Stores + m.Pauses }

// runProgram drains an instance's program through the real scheduler
// (simulating cores round-robin) so kernels compute in phase order, and
// returns the aggregate instruction mix.
func runProgram(t *testing.T, inst *Instance, cores int) mix {
	t.Helper()
	s := rt.NewScheduler(inst.Program, cores)
	buf := make([]isa.Instr, 128)
	var total mix
	done := make([]bool, cores)
	for guard := 0; guard < 50_000_000; guard++ {
		alive := false
		for c := 0; c < cores; c++ {
			if done[c] {
				continue
			}
			alive = true
			n, fin := s.Next(c, buf)
			if fin {
				done[c] = true
				continue
			}
			for _, in := range buf[:n] {
				switch in.Kind {
				case isa.Compute:
					total.ComputeOps += uint64(in.N)
				case isa.Load:
					total.Loads++
				case isa.Store:
					total.Stores++
				case isa.Pause:
					total.Pauses++
				}
			}
		}
		if !alive {
			return total
		}
	}
	t.Fatal("program did not terminate")
	return total
}

func TestRegistryComplete(t *testing.T) {
	ks := All()
	if len(ks) != 6 {
		t.Fatalf("Table 1 lists 6 kernels, registry has %d", len(ks))
	}
	want := []string{"sobel", "feature", "kmeans", "disparity", "texture", "segment"}
	for i, k := range ks {
		if k.Name != want[i] {
			t.Errorf("kernel %d = %q, want %q (paper order)", i, k.Name, want[i])
		}
		if k.Description == "" || k.Build == nil || len(k.Sizes) == 0 {
			t.Errorf("kernel %q incomplete", k.Name)
		}
	}
}

func TestByName(t *testing.T) {
	k, err := ByName("sobel")
	if err != nil || k.Name != "sobel" {
		t.Fatalf("ByName(sobel) = %v, %v", k.Name, err)
	}
	if _, err := ByName("raytrace"); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Fatalf("expected unknown-kernel error, got %v", err)
	}
}

// TestAllKernelsComputeCorrectly is the core correctness gate: every
// kernel, driven through the scheduler on 4 cores, must pass its own
// verification of the real computed output.
func TestAllKernelsComputeCorrectly(t *testing.T) {
	for _, k := range All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			inst := k.Build(testParams())
			count := runProgram(t, inst, 4)
			if count.instructions() == 0 {
				t.Fatal("kernel emitted no instructions")
			}
			if err := inst.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestKernelsDeterministic: same params → identical instruction mixes.
func TestKernelsDeterministic(t *testing.T) {
	for _, k := range All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			a := runProgram(t, k.Build(testParams()), 2)
			b := runProgram(t, k.Build(testParams()), 2)
			// Pause counts depend only on scheduling, which is identical.
			if a != b {
				t.Errorf("nondeterministic mix:\n%+v\n%+v", a, b)
			}
		})
	}
}

// TestWorkScalesWithInput: a larger size class means more instructions.
func TestWorkScalesWithInput(t *testing.T) {
	for _, k := range All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			pa := testParams()
			pb := testParams()
			pb.Size = SizeB
			small := runProgram(t, k.Build(pa), 2)
			large := runProgram(t, k.Build(pb), 2)
			if large.instructions() <= small.instructions() {
				t.Errorf("size B (%d instrs) not larger than size A (%d)",
					large.instructions(), small.instructions())
			}
		})
	}
}

// TestMemoryIntensityOrdering encodes §8.5: disparity and feature must be
// far more memory-intensive (loads+stores per compute op) than kmeans.
func TestMemoryIntensityOrdering(t *testing.T) {
	intensity := func(name string) float64 {
		k, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c := runProgram(t, k.Build(testParams()), 2)
		return float64(c.Loads+c.Stores) / float64(c.ComputeOps)
	}
	km := intensity("kmeans")
	disp := intensity("disparity")
	feat := intensity("feature")
	if disp <= km || feat <= km {
		t.Errorf("memory intensity: disparity %.3f, feature %.3f should exceed kmeans %.3f",
			disp, feat, km)
	}
}

// TestTextureParallelismCapped: texture's phases never expose more tasks
// than its tile cap (the §8.5 parallelism limit).
func TestTextureParallelismCapped(t *testing.T) {
	p := testParams()
	p.Shards = 64
	inst := BuildTexture(p)
	for _, ph := range inst.Program.Phases {
		if len(ph.Tasks) > texMaxTasks {
			t.Errorf("phase %q has %d tasks, cap is %d", ph.Name, len(ph.Tasks), texMaxTasks)
		}
	}
}

// TestSegmentHasSerialTail: segment's last phase is a single task.
func TestSegmentHasSerialTail(t *testing.T) {
	inst := BuildSegment(testParams())
	last := inst.Program.Phases[len(inst.Program.Phases)-1]
	if len(last.Tasks) != 1 {
		t.Errorf("segment's merge-relabel should be serial, has %d tasks", len(last.Tasks))
	}
}

// TestSobelOnMachine runs sobel end to end on the architectural simulator
// and checks correctness plus a plausible runtime.
func TestSobelOnMachine(t *testing.T) {
	inst := BuildSobel(testParams())
	sched := rt.NewScheduler(inst.Program, 4)
	m, err := archsim.New(archsim.DefaultConfig(4), sched)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Verify(); err != nil {
		t.Fatal(err)
	}
	if res.ElapsedPs == 0 || res.EnergyJ <= 0 {
		t.Errorf("degenerate run: %+v", res)
	}
	// CPI sanity: ≥1 cycle per instruction.
	var instrs uint64
	for _, s := range res.PerCore {
		instrs += s.ComputeOps + s.Loads + s.Stores
	}
	if res.ElapsedPs < instrs*1000/4 {
		t.Errorf("elapsed %d ps too small for %d instrs on 4 cores", res.ElapsedPs, instrs)
	}
}

// TestStereoPairGroundTruth: the generator's right image equals the left
// shifted by the per-row disparity.
func TestStereoPairGroundTruth(t *testing.T) {
	space := isa.NewAddressSpace(64)
	l, r, truth := StereoPair(space, 64, 48, 4, 3)
	for y := 0; y < 48; y += 5 {
		d := truth[y]
		for x := 0; x < 64-d-1; x += 7 {
			if r.At(x, y) != l.At(x+d, y) {
				t.Fatalf("stereo shift broken at (%d,%d), d=%d", x, y, d)
			}
		}
	}
}

func TestSceneGeneratorsDiffer(t *testing.T) {
	space := isa.NewAddressSpace(64)
	a := NewImageU8(space, 64, 64)
	b := NewImageU8(space, 64, 64)
	FillScene(a, SceneNatural, 1)
	FillScene(b, SceneNatural, 2)
	same := 0
	for i := range a.Pix {
		if a.Pix[i] == b.Pix[i] {
			same++
		}
	}
	if same == len(a.Pix) {
		t.Error("different seeds produced identical scenes")
	}
}

func TestSizePixels(t *testing.T) {
	w, h := sizePixels(0.12)
	px := w * h
	if px < 90_000 || px > 150_000 {
		t.Errorf("0.12 Mpix → %d pixels (%dx%d)", px, w, h)
	}
	if w%8 != 0 || h%8 != 0 {
		t.Errorf("dimensions not multiples of 8: %dx%d", w, h)
	}
	w, h = sizePixels(0)
	if w < 16 || h < 16 {
		t.Errorf("degenerate size: %dx%d", w, h)
	}
}

// TestInstanceMetadata: every built instance carries its descriptive
// fields.
func TestInstanceMetadata(t *testing.T) {
	for _, k := range All() {
		inst := k.Build(testParams())
		if inst.Kernel != k.Name {
			t.Errorf("instance kernel %q ≠ registry name %q", inst.Kernel, k.Name)
		}
		if inst.Detail == "" || inst.WorkItems == 0 || inst.Space == nil {
			t.Errorf("%s: incomplete metadata %+v", k.Name, inst)
		}
		if err := inst.Program.Validate(); err != nil {
			t.Errorf("%s: %v", k.Name, err)
		}
	}
}
