// Package rt is the §7/§8.1 software runtime: it schedules the phased task
// programs produced by the workload kernels onto simulated cores, inserts
// PAUSE instructions when a core spins at a barrier or fails to obtain a
// task (the paper's energy discipline for load imbalance and busy-waiting),
// and implements the sprint-termination protocol — migrating all in-flight
// threads to a single core when the thermal budget is exhausted.
//
// The scheduler is a deterministic work-sharing pool: tasks within a phase
// are claimed from a shared cursor (the single-threaded simulator's
// equivalent of a work-stealing deque — a core that exhausts its share
// "steals" the next unclaimed task). Phases are barrier-separated: a core
// that finds no claimable task while peers still run spins on PAUSE until
// the phase completes.
package rt

import (
	"fmt"

	"sprinting/internal/isa"
)

// Task is one shard of parallel work: a resumable instruction stream.
type Task struct {
	// Name identifies the task for debugging.
	Name string
	// Stream produces the task's instructions.
	Stream isa.Stream
}

// Phase is a barrier-separated group of tasks: every task in a phase must
// complete before any task of the next phase starts.
type Phase struct {
	Name  string
	Tasks []Task
}

// Program is a phased parallel program (what a workload kernel produces).
type Program struct {
	Name   string
	Phases []Phase
}

// Validate reports structural errors.
func (p Program) Validate() error {
	if len(p.Phases) == 0 {
		return fmt.Errorf("rt: program %q has no phases", p.Name)
	}
	for i, ph := range p.Phases {
		for j, tk := range ph.Tasks {
			if tk.Stream == nil {
				return fmt.Errorf("rt: program %q phase %d task %d has nil stream", p.Name, i, j)
			}
		}
	}
	return nil
}

// Stats counts scheduler events.
type Stats struct {
	// TasksCompleted is the number of finished tasks.
	TasksCompleted int
	// Steals counts task acquisitions beyond a core's static fair share of
	// the phase (dynamic load balancing events).
	Steals uint64
	// BarrierPauses counts PAUSE emissions while waiting at a phase
	// barrier or after failed steal attempts.
	BarrierPauses uint64
	// Migrated reports whether MigrateAll ran.
	Migrated bool
}

// Scheduler implements archsim.WorkSource (and archsim.Migrator) over a
// Program for a fixed number of cores.
type Scheduler struct {
	prog  Program
	cores int

	phase     int
	nextTask  int
	tasksDone int

	// running[core] is the task currently executing on that core.
	running []*Task

	// pending holds partially executed tasks migrated off gated cores.
	pending []*Task

	migrated bool
	target   int

	// acquired[core] counts tasks taken by the core in the current phase,
	// for the steal statistic.
	acquired []int

	Stats Stats
}

// NewScheduler builds a scheduler; it panics on an invalid program (kernels
// construct programs, so an invalid one is a programming error).
func NewScheduler(prog Program, cores int) *Scheduler {
	if err := prog.Validate(); err != nil {
		panic(err)
	}
	if cores <= 0 {
		panic(fmt.Sprintf("rt: cores must be positive, got %d", cores))
	}
	return &Scheduler{
		prog:     prog,
		cores:    cores,
		running:  make([]*Task, cores),
		acquired: make([]int, cores),
	}
}

// Next implements archsim.WorkSource.
func (s *Scheduler) Next(core int, buf []isa.Instr) (int, bool) {
	if s.migrated && core != s.target {
		// The §7 protocol gated this core; its thread has already migrated.
		return 0, true
	}
	for {
		if s.running[core] == nil {
			t, ok := s.acquire(core)
			if !ok {
				if s.phaseComplete() {
					if !s.advancePhase() {
						return 0, true // program finished
					}
					continue
				}
				// Tasks remain in flight on other cores: spin at the
				// barrier with PAUSE (§8.1).
				s.Stats.BarrierPauses++
				buf[0] = isa.Instr{Kind: isa.Pause, N: 1}
				return 1, false
			}
			s.running[core] = t
		}
		n := s.running[core].Stream.Next(buf)
		if n > 0 {
			return n, false
		}
		// Task finished.
		s.running[core] = nil
		s.Stats.TasksCompleted++
		s.tasksDone++
	}
}

// acquire claims the next task: first any migrated pending task, then the
// phase cursor.
func (s *Scheduler) acquire(core int) (*Task, bool) {
	if len(s.pending) > 0 {
		t := s.pending[0]
		s.pending = s.pending[1:]
		return t, true
	}
	if s.phase >= len(s.prog.Phases) {
		return nil, false
	}
	ph := &s.prog.Phases[s.phase]
	if s.nextTask >= len(ph.Tasks) {
		return nil, false
	}
	t := &ph.Tasks[s.nextTask]
	s.nextTask++
	s.acquired[core]++
	// A fair static share is ceil(tasks/cores); anything beyond that is a
	// dynamic steal.
	fair := (len(ph.Tasks) + s.cores - 1) / s.cores
	if s.acquired[core] > fair {
		s.Stats.Steals++
	}
	return t, true
}

// phaseComplete reports whether every task of the current phase has
// finished (including migrated pending work).
func (s *Scheduler) phaseComplete() bool {
	if s.phase >= len(s.prog.Phases) {
		return true
	}
	return s.tasksDone == len(s.prog.Phases[s.phase].Tasks) && len(s.pending) == 0
}

// advancePhase moves to the next non-empty phase; false when the program is
// exhausted.
func (s *Scheduler) advancePhase() bool {
	for {
		s.phase++
		if s.phase >= len(s.prog.Phases) {
			return false
		}
		s.tasksDone = 0
		s.nextTask = 0
		for i := range s.acquired {
			s.acquired[i] = 0
		}
		if len(s.prog.Phases[s.phase].Tasks) > 0 {
			return true
		}
	}
}

// MigrateAll implements archsim.Migrator: all in-flight tasks on cores
// other than target are requeued (their streams resume where they stopped)
// and future work is served only to target.
func (s *Scheduler) MigrateAll(target int) {
	if target < 0 || target >= s.cores {
		panic(fmt.Sprintf("rt: migration target %d out of range", target))
	}
	s.migrated = true
	s.Stats.Migrated = true
	s.target = target
	for c := range s.running {
		if c == target || s.running[c] == nil {
			continue
		}
		s.pending = append(s.pending, s.running[c])
		s.running[c] = nil
	}
}

// ShardStreams splits a half-open range [0, total) into at most shards
// contiguous sub-ranges and invokes mk for each, collecting tasks. Kernels
// use it to build row-band and point-range task sets sized for dynamic load
// balancing (a few tasks per core).
func ShardStreams(name string, total, shards int, mk func(lo, hi int) isa.Stream) []Task {
	if total <= 0 || shards <= 0 {
		return nil
	}
	if shards > total {
		shards = total
	}
	tasks := make([]Task, 0, shards)
	for i := 0; i < shards; i++ {
		lo := total * i / shards
		hi := total * (i + 1) / shards
		if lo >= hi {
			continue
		}
		tasks = append(tasks, Task{
			Name:   fmt.Sprintf("%s[%d:%d]", name, lo, hi),
			Stream: mk(lo, hi),
		})
	}
	return tasks
}
