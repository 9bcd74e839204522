package engine_test

import (
	"context"
	"testing"

	"sprinting/internal/engine"
	"sprinting/internal/experiments"
)

// TestFig9MachineRuns pins the machine simulations behind Figure 9 at the
// benchmark's scale. Its 66 points are 22 (kernel, size) rows of a
// sustained baseline and two thermal designs of one parallel sprint; the
// designs share a machine, and only sobel D's and kmeans D's 1.5 mg runs
// trip while the 150 mg run is live and are rerun: 22 + 22 + 2 = 46. A
// count of 66 means the engine is back to one machine per point.
func TestFig9MachineRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("Figure 9 skipped in -short mode")
	}
	experiments.ResetCache()
	before := engine.MachineRuns()
	if _, err := experiments.Fig9(context.Background(), experiments.Options{Scale: 0.12, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if runs := engine.MachineRuns() - before; runs != 46 {
		t.Errorf("Figure 9 started %d machine runs, want 46 for its 66 points", runs)
	}
}
