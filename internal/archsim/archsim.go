// Package archsim is the §8.1 many-core simulator: an event-ordered,
// single-threaded, deterministic engine that executes abstract instruction
// streams on in-order cores (CPI of one plus cache-miss penalties) over the
// shared memory hierarchy, accumulates per-instruction-class energy, and
// reports energy samples every 1000 cycles to a controller — the hook the
// sprint runtime uses to couple the performance simulation to the thermal
// model and to terminate sprints (§7, §8.1).
package archsim

import (
	"fmt"

	"sprinting/internal/cpu"
	"sprinting/internal/energy"
	"sprinting/internal/isa"
	"sprinting/internal/mem"
)

// WorkSource supplies instruction chunks to cores. Implementations must be
// deterministic state machines (the scheduler/runtime in internal/rt).
type WorkSource interface {
	// Next fills buf with the next instructions for the given core and
	// returns the count. done=true means the core will never receive work
	// again. n==0 with done==false means "nothing right now": the core
	// sleeps one pause quantum and asks again (work sources normally emit
	// explicit Pause instructions instead).
	Next(core int, buf []isa.Instr) (n int, done bool)
}

// Migrator is optionally implemented by WorkSources that support the §7
// sprint-termination protocol: move all outstanding work to a single
// target core.
type Migrator interface {
	MigrateAll(target int)
}

// Command instructs the machine after a sample (returned by Controller).
type Command struct {
	Kind CommandKind
	// Freq is the frequency multiplier for SetFrequency.
	Freq float64
	// Voltage is the voltage multiplier for SetFrequency (energy scales V²).
	Voltage float64
}

// CommandKind discriminates controller commands.
type CommandKind uint8

// Controller commands.
const (
	// CmdNone continues unchanged.
	CmdNone CommandKind = iota
	// CmdMigrateToCore0 performs the §7 software sprint exit: all
	// outstanding work migrates to core 0, other cores power-gate, their
	// L1s flush, and core 0 pays the migration penalty and returns to
	// nominal frequency/voltage.
	CmdMigrateToCore0
	// CmdThrottleEmergency is the §7 hardware fallback: divide every
	// active core's frequency by the active-core count so aggregate power
	// falls under the sustainable TDP without migrating threads.
	CmdThrottleEmergency
	// CmdSetFrequency applies Freq/Voltage multipliers to all active
	// cores (used to start and stop DVFS sprints).
	CmdSetFrequency
	// CmdStop aborts the run (used by tests and budget-capped searches).
	CmdStop
)

// Sample is the periodic energy report delivered to the controller.
type Sample struct {
	// TimePs is the sample timestamp.
	TimePs uint64
	// IntervalJ is machine-wide energy accrued since the previous sample.
	IntervalJ float64
	// TotalJ is cumulative energy.
	TotalJ float64
	// ActiveCores counts cores not power-gated and not done.
	ActiveCores int
}

// Controller observes samples and may steer the machine. OnSample is called
// in simulated-time order.
type Controller interface {
	OnSample(m *Machine, s Sample) Command
}

// Config parameterizes the machine.
type Config struct {
	// Cores is the number of cores (≤64).
	Cores int
	// Mem is the memory-system geometry/timing.
	Mem mem.Config
	// Energy is the per-instruction-class energy model.
	Energy energy.Model
	// SamplePeriodPs is the energy sampling interval; the paper samples
	// every 1000 cycles (1 µs at 1 GHz).
	SamplePeriodPs uint64
	// ChunkInstrs bounds the instructions executed per scheduling slot;
	// smaller chunks tighten cross-core time skew at some engine overhead.
	ChunkInstrs int
	// PauseSleepCycles is the PAUSE sleep quantum (paper: 1000 cycles).
	PauseSleepCycles uint64
	// DeepSleepAfter is the number of consecutive pause quanta after which
	// a parked core enters a deep sleep state (deeper C-state) at
	// DeepSleepFrac of its pause power. Zero disables deep sleep.
	DeepSleepAfter int
	// DeepSleepFrac scales pause-sleep energy once deep sleep engages.
	DeepSleepFrac float64
	// MigrationPenaltyPs charges the surviving core for the §7 thread
	// migration (OS context switches plus cold-cache warmup on top of the
	// explicit L1 flush).
	MigrationPenaltyPs uint64
}

// DefaultConfig returns the paper's simulator configuration for n cores.
func DefaultConfig(n int) Config {
	return Config{
		Cores:              n,
		Mem:                mem.DefaultConfig(),
		Energy:             energy.McPAT22nmLOP(),
		SamplePeriodPs:     1_000_000, // 1000 cycles @ 1 GHz
		ChunkInstrs:        128,
		PauseSleepCycles:   1000,
		DeepSleepAfter:     8,
		DeepSleepFrac:      0.2,
		MigrationPenaltyPs: 5_000_000, // 5 µs
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Cores <= 0 || c.Cores > 64:
		return fmt.Errorf("archsim: cores must be in [1,64], got %d", c.Cores)
	case c.SamplePeriodPs == 0:
		return fmt.Errorf("archsim: sample period must be positive")
	case c.ChunkInstrs <= 0:
		return fmt.Errorf("archsim: chunk size must be positive")
	case c.PauseSleepCycles == 0:
		return fmt.Errorf("archsim: pause sleep quantum must be positive")
	}
	if err := c.Mem.Validate(); err != nil {
		return err
	}
	return c.Energy.Validate()
}

// Result summarizes a completed run.
type Result struct {
	// ElapsedPs is the makespan: the time the last core finished.
	ElapsedPs uint64
	// EnergyJ is total dynamic energy.
	EnergyJ float64
	// PerCore carries per-core statistics.
	PerCore []cpu.Stats
	// Mem carries hierarchy statistics.
	Mem mem.Stats
	// Samples is the number of controller samples delivered.
	Samples uint64
	// Migrated reports whether a CmdMigrateToCore0 was executed.
	Migrated bool
	// MigratePs is when the migration happened.
	MigratePs uint64
	// Throttled reports whether the emergency throttle engaged.
	Throttled bool
	// Stopped reports whether the controller aborted the run.
	Stopped bool
}

// ElapsedSeconds converts the makespan to seconds.
func (r Result) ElapsedSeconds() float64 { return float64(r.ElapsedPs) * 1e-12 }

// coreQueue buffers the in-flight instruction chunk of one core so that
// execution can pause exactly at sample boundaries and resume afterwards
// (a partially executed Compute run keeps its remaining count in place).
type coreQueue struct {
	buf  []isa.Instr
	head int
	n    int
}

// Machine is the simulator instance.
type Machine struct {
	cfg   Config
	cores []*cpu.Core
	hier  *mem.Hierarchy
	src   WorkSource

	queues       []coreQueue
	nextSamplePs uint64
	totalJ       float64
	samples      uint64

	// overflow holds in-flight instructions salvaged from power-gated
	// cores during migration; the target core drains it before asking the
	// work source.
	overflow       []isa.Instr
	overflowTarget int

	migrated  bool
	migratePs uint64
	throttled bool
}

// New builds a machine over the given work source.
func New(cfg Config, src WorkSource) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("archsim: nil work source")
	}
	hier, err := mem.New(cfg.Mem, cfg.Cores)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:          cfg,
		hier:         hier,
		src:          src,
		queues:       make([]coreQueue, cfg.Cores),
		nextSamplePs: cfg.SamplePeriodPs,
	}
	for i := 0; i < cfg.Cores; i++ {
		m.cores = append(m.cores, cpu.New(i))
		m.queues[i].buf = make([]isa.Instr, cfg.ChunkInstrs)
	}
	return m, nil
}

// Core exposes a core for controllers and tests.
func (m *Machine) Core(i int) *cpu.Core { return m.cores[i] }

// SetAllFrequency applies frequency/voltage multipliers to every non-done
// core (used by policies to start a DVFS sprint before Run).
func (m *Machine) SetAllFrequency(freq, voltage float64) {
	for _, c := range m.cores {
		if c.Done {
			continue
		}
		c.SetFrequencyMult(freq)
		c.SetVoltageMult(voltage)
	}
}

// ActiveCores counts cores that are neither done nor power-gated.
func (m *Machine) ActiveCores() int {
	n := 0
	for _, c := range m.cores {
		if !c.Done && c.State != cpu.Off {
			n++
		}
	}
	return n
}

// Run executes until every core's work source reports done (or the
// controller stops the run). ctrl may be nil.
func (m *Machine) Run(ctrl Controller) (Result, error) {
	stopped := false
	for !stopped {
		c := m.pickNext()
		if c == nil {
			break // all done
		}
		// Deliver any samples that precede this core's next activity.
		if c.NowPs >= m.nextSamplePs {
			if cmd := m.fireSample(ctrl); cmd.Kind == CmdStop {
				stopped = true
			}
			continue
		}
		m.step(c)
	}
	// Fold the final partial interval into the total.
	m.drainInterval()
	res := Result{
		EnergyJ:   m.totalJ,
		Samples:   m.samples,
		Migrated:  m.migrated,
		MigratePs: m.migratePs,
		Throttled: m.throttled,
		Stopped:   stopped,
		Mem:       m.hier.Stats,
	}
	for _, c := range m.cores {
		res.PerCore = append(res.PerCore, c.Stats)
		if c.FinishPs > res.ElapsedPs {
			res.ElapsedPs = c.FinishPs
		}
		if c.NowPs > res.ElapsedPs && !c.Done && c.State != cpu.Off {
			res.ElapsedPs = c.NowPs
		}
	}
	return res, nil
}

// pickNext returns the runnable core with the smallest local clock, or nil
// when all cores are done/gated.
func (m *Machine) pickNext() *cpu.Core {
	var best *cpu.Core
	for _, c := range m.cores {
		if c.Done || c.State == cpu.Off {
			continue
		}
		if best == nil || c.NowPs < best.NowPs {
			best = c
		}
	}
	return best
}

// step executes instructions on core c until its queued chunk is drained or
// its clock crosses the next sample boundary (so controller commands apply
// with 1000-cycle granularity even across huge coalesced compute runs).
func (m *Machine) step(c *cpu.Core) {
	e := &m.cfg.Energy
	q := &m.queues[c.ID]
	if q.head >= q.n {
		if m.migrated && c.ID == m.overflowTarget && len(m.overflow) > 0 {
			n := copy(q.buf, m.overflow)
			m.overflow = m.overflow[n:]
			q.head, q.n = 0, n
		} else {
			n, done := m.src.Next(c.ID, q.buf)
			if done {
				c.MarkDone()
				return
			}
			if n == 0 {
				// Nothing available right now: sleep a pause quantum.
				m.sleep(c, e)
				return
			}
			q.head, q.n = 0, n
		}
	}
	c.State = cpu.Active
	for q.head < q.n && c.NowPs < m.nextSamplePs {
		in := &q.buf[q.head]
		if in.Kind != isa.Pause {
			c.ConsecutivePauses = 0
		}
		switch in.Kind {
		case isa.Compute:
			// Execute up to the sample boundary; leave the remainder
			// queued.
			ops := uint64(in.N)
			if rem := (m.nextSamplePs - c.NowPs + c.CyclePs - 1) / c.CyclePs; rem < ops {
				ops = rem
			}
			c.NowPs += ops * c.CyclePs
			c.Stats.BusyPs += ops * c.CyclePs
			c.Stats.ComputeOps += ops
			c.AddEnergy(c.ScaledJ(e.ComputeJ(uint32(ops))))
			in.N -= uint32(ops)
			if in.N == 0 {
				q.head++
			}
		case isa.Load, isa.Store:
			write := in.Kind == isa.Store
			lat, level := m.hier.Access(c.ID, in.Addr, write, c.NowPs)
			c.NowPs += c.CyclePs + lat
			c.Stats.BusyPs += c.CyclePs
			c.Stats.StallPs += lat
			if write {
				c.Stats.Stores++
			} else {
				c.Stats.Loads++
			}
			j := e.MemOpJ()
			switch level {
			case mem.LevelLLC:
				j += e.LLCJ
			case mem.LevelDRAM:
				j += e.LLCJ + e.DRAMJ
			}
			j += e.StallJ(float64(lat) / float64(cpu.NominalCyclePs))
			c.AddEnergy(c.ScaledJ(j))
			q.head++
		case isa.Pause:
			c.Stats.Pauses++
			q.head++
			m.sleep(c, e)
			return
		}
	}
}

// sleep parks the core for one pause quantum at 10% dynamic power; cores
// that have been parked for many consecutive quanta drop into a deeper
// sleep state at a fraction of that.
func (m *Machine) sleep(c *cpu.Core, e *energy.Model) {
	c.State = cpu.Sleeping
	dur := m.cfg.PauseSleepCycles * c.CyclePs
	c.NowPs += dur
	c.Stats.SleepPs += dur
	j := e.SleepJ(float64(m.cfg.PauseSleepCycles))
	c.ConsecutivePauses++
	if m.cfg.DeepSleepAfter > 0 && c.ConsecutivePauses > m.cfg.DeepSleepAfter {
		j *= m.cfg.DeepSleepFrac
	}
	c.AddEnergy(c.ScaledJ(j))
}

// drainInterval collects interval energy from all cores.
func (m *Machine) drainInterval() float64 {
	j := 0.0
	for _, c := range m.cores {
		j += c.DrainIntervalJ()
	}
	m.totalJ += j
	return j
}

// fireSample delivers one sample to the controller and applies the command.
func (m *Machine) fireSample(ctrl Controller) Command {
	s := Sample{
		TimePs:      m.nextSamplePs,
		IntervalJ:   m.drainInterval(),
		TotalJ:      m.totalJ,
		ActiveCores: m.ActiveCores(),
	}
	m.nextSamplePs += m.cfg.SamplePeriodPs
	m.samples++
	if ctrl == nil {
		return Command{}
	}
	cmd := ctrl.OnSample(m, s)
	switch cmd.Kind {
	case CmdMigrateToCore0:
		m.migrateToCore0(s.TimePs)
	case CmdThrottleEmergency:
		m.throttleEmergency()
	case CmdSetFrequency:
		m.SetAllFrequency(cmd.Freq, cmd.Voltage)
	}
	return cmd
}

// migrateToCore0 implements the §7 software sprint exit.
func (m *Machine) migrateToCore0(nowPs uint64) {
	if m.migrated {
		return
	}
	m.migrated = true
	m.migratePs = nowPs
	m.overflowTarget = 0
	if mig, ok := m.src.(Migrator); ok {
		mig.MigrateAll(0)
	}
	for _, c := range m.cores {
		if c.ID == 0 {
			continue
		}
		if !c.Done {
			// Salvage the core's in-flight chunk: those instructions move
			// with the migrating thread.
			q := &m.queues[c.ID]
			if q.head < q.n {
				m.overflow = append(m.overflow, q.buf[q.head:q.n]...)
				q.head, q.n = 0, 0
			}
			m.hier.FlushL1(c.ID)
			c.PowerGate()
		}
	}
	c0 := m.cores[0]
	// Back to nominal operation, plus the migration penalty.
	c0.SetFrequencyMult(1)
	c0.SetVoltageMult(1)
	if c0.NowPs < nowPs {
		c0.NowPs = nowPs
	}
	c0.NowPs += m.cfg.MigrationPenaltyPs
	c0.State = cpu.Active
}

// throttleEmergency implements the §7 hardware fallback: frequency divided
// by the number of active cores, bringing aggregate dynamic power under the
// single-core TDP.
func (m *Machine) throttleEmergency() {
	n := m.ActiveCores()
	if n == 0 {
		return
	}
	m.throttled = true
	for _, c := range m.cores {
		if c.Done || c.State == cpu.Off {
			continue
		}
		c.SetFrequencyMult(1 / float64(n))
	}
}
