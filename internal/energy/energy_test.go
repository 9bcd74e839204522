package energy

import (
	"math"
	"testing"
)

func TestModelValid(t *testing.T) {
	if err := McPAT22nmLOP().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCalibrationOneWattCore(t *testing.T) {
	// The §8.1 design point: a busy 1-IPC in-order core at 1 GHz and 22 nm
	// LOP dissipates ≈1 W.
	m := McPAT22nmLOP()
	p := (m.BaseJPerCycle + m.ALUJ) * 1e9 // busy-core power at 1 GHz, pure compute
	if p < 0.8 || p > 1.1 {
		t.Errorf("busy-core power = %.3f W, want ≈1 W", p)
	}
}

func TestHierarchyOrdering(t *testing.T) {
	m := McPAT22nmLOP()
	if !(m.DRAMJ > m.LLCJ && m.LLCJ > m.L1J && m.L1J > 0) {
		t.Errorf("energy ordering violated: DRAM %v, LLC %v, L1 %v", m.DRAMJ, m.LLCJ, m.L1J)
	}
}

func TestComputeLinear(t *testing.T) {
	m := McPAT22nmLOP()
	if got, want := m.ComputeJ(10), 10*m.ComputeJ(1); math.Abs(got-want) > 1e-18 {
		t.Errorf("ComputeJ not linear: %v vs %v", got, want)
	}
}

func TestSleepIsTenPercent(t *testing.T) {
	m := McPAT22nmLOP()
	active := m.ComputeJ(1000)
	sleep := m.SleepJ(1000)
	ratio := sleep / active
	if math.Abs(ratio-0.10) > 1e-9 {
		t.Errorf("sleep/active ratio = %.3f, paper assumes 0.10", ratio)
	}
}

func TestStallCheaperThanCompute(t *testing.T) {
	m := McPAT22nmLOP()
	if m.StallJ(100) >= m.ComputeJ(100) {
		t.Error("stalled cycles must cost less than busy cycles")
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	bad := []func(*Model){
		func(m *Model) { m.BaseJPerCycle = 0 },
		func(m *Model) { m.LLCJ = m.L1J / 2 },
		func(m *Model) { m.DRAMJ = m.LLCJ / 2 },
		func(m *Model) { m.StallFrac = 2 },
		func(m *Model) { m.SleepFrac = -0.1 },
	}
	for i, mutate := range bad {
		m := McPAT22nmLOP()
		mutate(&m)
		if m.Validate() == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}
