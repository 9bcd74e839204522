// Package bench stands in for the second module that calls into the
// fixture's internal package.
package bench

import "deadfix/internal/lib"

// Value uses an export nothing in the first module uses.
var Value = lib.BenchOnly()
