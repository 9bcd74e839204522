// Package energy implements the §8.1 dynamic-energy model: energy is
// associated with the type of each retired instruction, with constants
// derived from a McPAT-style decomposition of a 1 GHz, 1 W in-order core at
// the 22 nm LOP (low-operating-power) node. The simulator samples
// accumulated energy every 1000 cycles to drive the thermal model, exactly
// as the paper couples its performance and thermal simulations.
package energy

import "fmt"

// Model holds per-event energies in joules. The relative ordering follows
// CACTI/McPAT: DRAM ≫ LLC ≫ L1 ≫ ALU, and the absolute calibration makes a
// busy 1-IPC core dissipate ≈1 W at 1 GHz.
type Model struct {
	// BaseJPerCycle is fetch/decode/clock energy burned every active cycle.
	BaseJPerCycle float64
	// ALUJ is the incremental energy of one ALU op.
	ALUJ float64
	// L1J is the energy of an L1 access (every load/store pays it).
	L1J float64
	// LLCJ is the incremental energy of an LLC access (on L1 miss).
	LLCJ float64
	// DRAMJ is the incremental energy of one line transfer from memory.
	DRAMJ float64
	// StallFrac is the fraction of BaseJPerCycle burned per cycle while
	// stalled on memory (clock still toggling).
	StallFrac float64
	// SleepFrac is the dynamic power of a sleeping core relative to an
	// active one; the paper assumes 10%.
	SleepFrac float64
}

// McPAT22nmLOP returns the calibrated model. A pure-compute instruction
// stream costs Base+ALU ≈ 0.95 nJ/cycle ⇒ ≈0.95 W at 1 GHz; a typical
// kernel mix with ~20% memory operations lands at ≈1 W, the paper's design
// point for one sprint core.
func McPAT22nmLOP() Model {
	return Model{
		BaseJPerCycle: 0.50e-9,
		ALUJ:          0.45e-9,
		L1J:           0.40e-9,
		LLCJ:          2.5e-9,
		DRAMJ:         16e-9,
		StallFrac:     0.15,
		SleepFrac:     0.10,
	}
}

// Validate reports model errors.
func (m Model) Validate() error {
	switch {
	case m.BaseJPerCycle <= 0 || m.ALUJ < 0 || m.L1J < 0 || m.LLCJ < 0 || m.DRAMJ < 0:
		return fmt.Errorf("energy: energies must be non-negative (base positive)")
	case m.LLCJ < m.L1J || m.DRAMJ < m.LLCJ:
		return fmt.Errorf("energy: hierarchy ordering violated (want DRAM ≥ LLC ≥ L1)")
	case m.StallFrac < 0 || m.StallFrac > 1:
		return fmt.Errorf("energy: stall fraction must be in [0,1]")
	case m.SleepFrac < 0 || m.SleepFrac > 1:
		return fmt.Errorf("energy: sleep fraction must be in [0,1]")
	}
	return nil
}

// ComputeJ returns the energy of n back-to-back ALU ops.
func (m Model) ComputeJ(n uint32) float64 {
	return float64(n) * (m.BaseJPerCycle + m.ALUJ)
}

// MemOpJ returns the energy of one load/store issue slot (L1 access
// included; add LLCJ/DRAMJ per the level actually reached).
func (m Model) MemOpJ() float64 { return m.BaseJPerCycle + m.L1J }

// StallJ returns the energy of stalling for the given number of cycles.
func (m Model) StallJ(cycles float64) float64 {
	return cycles * m.BaseJPerCycle * m.StallFrac
}

// SleepJ returns the energy of sleeping for the given number of cycles
// (10% of active dynamic power in the paper's runtime model).
func (m Model) SleepJ(cycles float64) float64 {
	return cycles * (m.BaseJPerCycle + m.ALUJ) * m.SleepFrac
}
