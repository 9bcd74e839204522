// Package lib is the dead-export and write-only-field checks' fixture:
// each declaration is used by the module's command, only by the stand-in
// bench module, only by a test, through an interface, or not at all, and
// each unexported field is read, only written, or read only by a test.
package lib

import "errors"

// Used is called by the command.
func Used() error {
	var s Shape = Square{Side: 2}
	if s.Area() > 0 {
		return Err{}
	}
	return nil
}

// Dead has no caller at all.
func Dead() int { return Dead() + 1 }

// TestOnly is called only by lib_test.go.
func TestOnly() int { return 1 }

// BenchOnly is called only by the second module.
func BenchOnly() int { return 2 }

// Allowed has no caller but is allowlisted.
func Allowed() int { return 3 }

func unusedHelper() int { return 4 }

// DeadConst is never referenced.
const DeadConst = 1

// DeadVar is never referenced.
var DeadVar = 2

// DeadType is referenced only by its own field and its own method's
// receiver, neither of which counts as a use; its field is only written.
type DeadType struct{ next *DeadType }

func (d *DeadType) reset() { d.next = nil }

// Tally's hits is only written, testRead is read only by lib_test.go, and
// keyed is set by a composite-literal key and then read.
type Tally struct {
	hits     int
	testRead int
	keyed    int
}

// NewTally writes hits and keyed through composite-literal keys.
func NewTally() *Tally { return &Tally{hits: 1, keyed: 1} }

// Bump writes hits and testRead (a parenthesized selector is still a
// write) and reads keyed.
func (t *Tally) Bump() int {
	t.hits++
	(t.testRead) = t.keyed
	return t.keyed
}

// Shape is the interface Square satisfies.
type Shape interface{ Area() float64 }

// Square satisfies Shape.
type Square struct{ Side float64 }

// Area is reached only through Shape.
func (q Square) Area() float64 { return q.Side * q.Side }

// Perimeter is in no interface and has no caller.
func (q Square) Perimeter() float64 { return 4 * q.Side }

// Err is an error whose methods the standard library reaches by type
// assertion.
type Err struct{}

func (Err) Error() string  { return "err" }
func (Err) String() string { return "err" }
func (Err) Unwrap() error  { return errors.ErrUnsupported }
