package workloads

import (
	"testing"
	"testing/quick"

	"sprinting/internal/isa"
)

// TestSobelFullReference checks every pixel (not just the sampled subset
// used by Verify) against a brute-force reference on a small image.
func TestSobelFullReference(t *testing.T) {
	p := Params{Size: SizeA, Scale: 0.02, Shards: 4, Seed: 11}
	inst := BuildSobel(p)
	runProgram(t, inst, 2)
	// Rebuild the reference from the instance's own input by re-running
	// Verify at full density: do it manually here.
	// Reach into the first task's shard to find the images.
	sh := inst.Program.Phases[0].Tasks[0].Stream.(*sobelShard)
	in, out := sh.in, sh.out
	for y := 0; y < in.H; y++ {
		for x := 0; x < in.W; x++ {
			want := 0
			if x > 0 && y > 0 && x < in.W-1 && y < in.H-1 {
				gx, gy := 0, 0
				for dy := -1; dy <= 1; dy++ {
					for dx := -1; dx <= 1; dx++ {
						v := int(in.At(x+dx, y+dy))
						gx += v * sobelKx[dy+1][dx+1]
						gy += v * sobelKy[dy+1][dx+1]
					}
				}
				want = iabs(gx) + iabs(gy)
				if want > 255 {
					want = 255
				}
			}
			if got := int(out.At(x, y)); got != want {
				t.Fatalf("pixel (%d,%d) = %d, want %d", x, y, got, want)
			}
		}
	}
}

// TestSobelShardCountInvariance: the computed output must not depend on
// how the rows are sharded or how many cores drain the program.
func TestSobelShardCountInvariance(t *testing.T) {
	outputs := make([][]uint8, 0, 3)
	for _, cfg := range []struct{ shards, cores int }{{1, 1}, {8, 4}, {16, 3}} {
		p := Params{Size: SizeA, Scale: 0.05, Shards: cfg.shards, Seed: 42}
		inst := BuildSobel(p)
		runProgram(t, inst, cfg.cores)
		sh := inst.Program.Phases[0].Tasks[0].Stream.(*sobelShard)
		outputs = append(outputs, append([]uint8(nil), sh.out.Pix...))
	}
	for i := 1; i < len(outputs); i++ {
		if len(outputs[i]) != len(outputs[0]) {
			t.Fatal("output sizes differ")
		}
		for j := range outputs[i] {
			if outputs[i][j] != outputs[0][j] {
				t.Fatalf("sharding changed output at %d: %d vs %d", j, outputs[i][j], outputs[0][j])
			}
		}
	}
}

// TestSobelInstructionBudget: the emitted instruction mix matches the
// documented per-pixel cost model.
func TestSobelInstructionBudget(t *testing.T) {
	p := Params{Size: SizeA, Scale: 0.05, Shards: 4, Seed: 7}
	inst := BuildSobel(p)
	count := runProgram(t, inst, 1)
	sh := inst.Program.Phases[0].Tasks[0].Stream.(*sobelShard)
	w, h := sh.in.W, sh.in.H
	interior := uint64((w - 2) * (h - 2))
	border := uint64(w*h) - interior
	if count.Loads != interior*9 {
		t.Errorf("loads = %d, want %d (9 per interior pixel)", count.Loads, interior*9)
	}
	if count.Stores != interior+border {
		t.Errorf("stores = %d, want %d (1 per pixel)", count.Stores, interior+border)
	}
	wantCompute := interior*sobelComputeOps + border*2
	if count.ComputeOps != wantCompute {
		t.Errorf("compute = %d, want %d", count.ComputeOps, wantCompute)
	}
}

// TestSobelOutputBounded: magnitudes are clamped to [0, 255] for any
// input content (property-based over seeds).
func TestSobelOutputBounded(t *testing.T) {
	f := func(seed int64) bool {
		p := Params{Size: SizeA, Scale: 0.01, Shards: 2, Seed: seed}
		inst := BuildSobel(p)
		runProgram(t, inst, 1)
		return inst.Verify() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestSobelAddressesWithinImages: every emitted address falls inside the
// instance's allocated address space.
func TestSobelAddressesWithinImages(t *testing.T) {
	p := Params{Size: SizeA, Scale: 0.02, Shards: 2, Seed: 3}
	inst := BuildSobel(p)
	limit := inst.Space.Alloc(1) // the base of a fresh allocation is the top of every earlier one
	s := inst.Program.Phases[0].Tasks[0].Stream
	buf := make([]isa.Instr, 64)
	for {
		n := s.Next(buf)
		if n == 0 {
			break
		}
		for _, in := range buf[:n] {
			if in.Kind == isa.Load || in.Kind == isa.Store {
				if in.Addr >= limit || in.Addr < 1<<20 {
					t.Fatalf("address %#x outside allocated space [1MB, %#x)", in.Addr, limit)
				}
			}
		}
	}
}
