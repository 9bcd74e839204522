package circuit

import "fmt"

// SourceCurrent returns the branch current through the i-th voltage source
// (positive flowing pos→neg through the external circuit).
func (s *Sim) SourceCurrent(i int) float64 {
	if i < 0 || i >= s.m {
		panic(fmt.Sprintf("circuit: invalid voltage source index %d", i))
	}
	return -s.x[s.n-1+i]
}
