// Package violations is the deliberately-violating fixture: one true
// finding for every sprintvet analyzer. cmd/sprintvet's tests run the
// multichecker over this package and assert it exits non-zero with all
// three analyzers reporting — the guard against a gate that silently
// passes everything.
package violations

import (
	"fmt"
	"time"
)

type recorder struct{ n int }

func (r *recorder) hook() { r.n++ }

// Stamp reads the wall clock (nondeterminism).
func Stamp() int64 { return time.Now().UnixNano() }

// Merge accumulates floats in map order (nondeterminism).
func Merge(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m {
		total += v
	}
	return total
}

// Hot formats on an annotated hot path (allocfree).
//
//sprint:hotpath
func Hot(n int) string { return fmt.Sprintf("%d", n) }
