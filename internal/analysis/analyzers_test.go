package analysis_test

import (
	"testing"

	"sprinting/internal/analysis"
	"sprinting/internal/analysis/analysistest"
)

// Each analyzer runs over its golden fixture: every `// want` regexp
// must be matched by a diagnostic on that line, and any diagnostic
// without a want fails the test. The fixtures pin, per analyzer, at
// least three distinct true positives, at least one exempted
// false-positive pattern (clean lines carry no wants), a reasoned
// //sprintvet:ignore that consumes its finding, and the malformed
// directive shapes (bare, missing reason, unknown analyzer).

func TestNondeterminism(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.NondeterminismAnalyzer, "nondet")
}

// TestFloatOrder runs the nondeterminism analyzer over the float
// fixture: each map-order float accumulation is reported once, with the
// accumulation diagnostic.
func TestFloatOrder(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.NondeterminismAnalyzer, "floatorder")
}

func TestAllocFree(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.AllocFreeAnalyzer, "allocfree")
}

func TestTraceHook(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.TraceHookAnalyzer, "tracehook")
}
