package workloads

import (
	"fmt"
	"sort"

	"sprinting/internal/isa"
	"sprinting/internal/rt"
)

// SizeClass labels the paper's Figure 9 input sizes (A smallest … D
// largest).
type SizeClass string

// Input size classes.
const (
	SizeA SizeClass = "A"
	SizeB SizeClass = "B"
	SizeC SizeClass = "C"
	SizeD SizeClass = "D"
)

// Params selects the input configuration for a kernel build.
type Params struct {
	// Size selects one of the kernel's size classes (default SizeB).
	Size SizeClass
	// Scale multiplies the input size (tests use <1 for speed; 0 = 1).
	Scale float64
	// Shards is the number of tasks per parallel phase (default 64,
	// several per core at the largest machine). Kernels with inherently
	// limited parallelism cap it lower.
	Shards int
	// Seed makes the synthetic inputs deterministic (0 = fixed default).
	Seed int64
}

func (p Params) withDefaults() Params {
	if p.Size == "" {
		p.Size = SizeB
	}
	if p.Scale <= 0 {
		p.Scale = 1
	}
	if p.Shards <= 0 {
		p.Shards = 64
	}
	if p.Seed == 0 {
		p.Seed = 12345
	}
	return p
}

// Instance is a built workload ready to schedule: a phased program plus a
// self-check of the computed (real) results.
type Instance struct {
	// Kernel is the kernel name; Detail describes the concrete input.
	Kernel string
	Detail string
	// Program is the phased task program for rt.NewScheduler.
	Program rt.Program
	// Verify checks the real computed output (nil error = correct). It
	// must be called after the program has been drained or simulated,
	// since kernels compute as they emit.
	Verify func() error
	// Space is the instance's simulated address space.
	Space *isa.AddressSpace
	// WorkItems is the nominal work-unit count (pixels or points).
	WorkItems int
}

// Kernel is one Table 1 entry.
type Kernel struct {
	// Name is the paper's kernel name.
	Name string
	// Description is the Table 1 description column.
	Description string
	// Origin is the Table 1 source note.
	Origin string
	// Sizes lists the supported Figure 9 size classes.
	Sizes []SizeClass
	// Build constructs an instance.
	Build func(p Params) *Instance
}

// All returns the Table 1 kernel registry in the paper's order.
func All() []Kernel {
	return []Kernel{
		{
			Name:        "sobel",
			Description: "Edge detection filter; parallelized with OpenMP",
			Origin:      "classic kernel",
			Sizes:       []SizeClass{SizeA, SizeB, SizeC, SizeD},
			Build:       BuildSobel,
		},
		{
			Name:        "feature",
			Description: "Feature extraction (SURF)",
			Origin:      "from MEVBench [12]",
			Sizes:       []SizeClass{SizeA, SizeB, SizeC},
			Build:       BuildFeature,
		},
		{
			Name:        "kmeans",
			Description: "Partition based clustering; parallelized with OpenMP",
			Origin:      "classic kernel",
			Sizes:       []SizeClass{SizeA, SizeB, SizeC, SizeD},
			Build:       BuildKMeans,
		},
		{
			Name:        "disparity",
			Description: "Stereo image disparity detection",
			Origin:      "adapted from SD-VBS [42]",
			Sizes:       []SizeClass{SizeA, SizeB, SizeC, SizeD},
			Build:       BuildDisparity,
		},
		{
			Name:        "texture",
			Description: "Image composition",
			Origin:      "adapted from SD-VBS [42]",
			Sizes:       []SizeClass{SizeA, SizeB, SizeC},
			Build:       BuildTexture,
		},
		{
			Name:        "segment",
			Description: "Image feature classification",
			Origin:      "adapted from SD-VBS [42]",
			Sizes:       []SizeClass{SizeA, SizeB, SizeC, SizeD},
			Build:       BuildSegment,
		},
	}
}

// ByName looks up a kernel.
func ByName(name string) (Kernel, error) {
	for _, k := range All() {
		if k.Name == name {
			return k, nil
		}
	}
	names := make([]string, 0, 6)
	for _, k := range All() {
		names = append(names, k.Name)
	}
	sort.Strings(names)
	return Kernel{}, fmt.Errorf("workloads: unknown kernel %q (have %v)", name, names)
}

// megapixelsFor maps a size class to input megapixels, scaled down from
// the paper's camera resolutions so single-core simulations complete in
// tens of simulated milliseconds (see DESIGN.md §4 item 6 on scaling).
func megapixelsFor(size SizeClass, scale float64) float64 {
	base := map[SizeClass]float64{
		SizeA: 0.06,
		SizeB: 0.12,
		SizeC: 0.25,
		SizeD: 0.5,
	}
	mp, ok := base[size]
	if !ok {
		mp = base[SizeB]
	}
	return mp * scale
}
