package rt

import (
	"testing"

	"sprinting/internal/archsim"
	"sprinting/internal/isa"
)

// mkTask returns a task of `ops` compute operations delivered in small
// chunks (so it spans several Next calls).
func mkTask(name string, ops int) Task {
	instrs := []isa.Instr{}
	for ops > 0 {
		n := ops
		if n > 1000 {
			n = 1000
		}
		instrs = append(instrs, isa.Instr{Kind: isa.Compute, N: uint32(n)})
		ops -= n
	}
	return Task{Name: name, Stream: &isa.SliceStream{Instrs: instrs}}
}

func mkProgram(phases ...[]Task) Program {
	p := Program{Name: "test"}
	for i, ts := range phases {
		p.Phases = append(p.Phases, Phase{Name: string(rune('A' + i)), Tasks: ts})
	}
	return p
}

// mix is one core's dynamic instruction mix.
type mix struct {
	ComputeOps, Loads, Stores, Pauses uint64
}

// drainAll pulls from the scheduler like a machine would, round-robin, and
// returns per-core instruction counts.
func drainAll(t *testing.T, s *Scheduler, cores int) []mix {
	t.Helper()
	counts := make([]mix, cores)
	done := make([]bool, cores)
	buf := make([]isa.Instr, 64)
	for iter := 0; iter < 1_000_000; iter++ {
		alive := false
		for c := 0; c < cores; c++ {
			if done[c] {
				continue
			}
			alive = true
			n, fin := s.Next(c, buf)
			if fin {
				done[c] = true
				continue
			}
			for _, in := range buf[:n] {
				switch in.Kind {
				case isa.Compute:
					counts[c].ComputeOps += uint64(in.N)
				case isa.Load:
					counts[c].Loads++
				case isa.Store:
					counts[c].Stores++
				case isa.Pause:
					counts[c].Pauses++
				}
			}
		}
		if !alive {
			return counts
		}
	}
	t.Fatal("scheduler did not terminate")
	return nil
}

func TestAllWorkExecutes(t *testing.T) {
	prog := mkProgram([]Task{mkTask("a", 5000), mkTask("b", 3000), mkTask("c", 2000)})
	s := NewScheduler(prog, 2)
	counts := drainAll(t, s, 2)
	var total uint64
	for _, c := range counts {
		total += c.ComputeOps
	}
	if total != 10000 {
		t.Errorf("total ops = %d, want 10000", total)
	}
	if s.Stats.TasksCompleted != 3 {
		t.Errorf("tasks completed = %d, want 3", s.Stats.TasksCompleted)
	}
}

func TestPhasesAreBarriers(t *testing.T) {
	// Phase A has one long task; phase B has two. With 2 cores, core 1
	// must PAUSE while core 0 finishes phase A.
	prog := mkProgram(
		[]Task{mkTask("long", 50_000)},
		[]Task{mkTask("b1", 1000), mkTask("b2", 1000)},
	)
	s := NewScheduler(prog, 2)
	counts := drainAll(t, s, 2)
	if counts[1].Pauses == 0 {
		t.Error("idle core at barrier should have paused")
	}
	if s.Stats.BarrierPauses == 0 {
		t.Error("scheduler should count barrier pauses")
	}
	total := counts[0].ComputeOps + counts[1].ComputeOps
	if total != 52_000 {
		t.Errorf("total ops = %d, want 52000", total)
	}
}

func TestLoadBalancingSteals(t *testing.T) {
	// 8 equal tasks on 2 cores: each core's fair share is 4; no steals.
	tasks := []Task{}
	for i := 0; i < 8; i++ {
		tasks = append(tasks, mkTask("t", 1000))
	}
	s := NewScheduler(mkProgram(tasks), 2)
	drainAll(t, s, 2)
	if s.Stats.Steals != 0 {
		t.Errorf("balanced load should have no steals, got %d", s.Stats.Steals)
	}
	// 1 giant + 7 tiny tasks: the core not stuck with the giant task takes
	// more than its fair share.
	tasks2 := []Task{mkTask("giant", 1_000_000)}
	for i := 0; i < 7; i++ {
		tasks2 = append(tasks2, mkTask("tiny", 100))
	}
	s2 := NewScheduler(mkProgram(tasks2), 2)
	drainAll(t, s2, 2)
	if s2.Stats.Steals == 0 {
		t.Error("imbalanced load should trigger steals")
	}
}

func TestMigrationPreservesWork(t *testing.T) {
	tasks := []Task{}
	for i := 0; i < 8; i++ {
		tasks = append(tasks, mkTask("t", 10_000))
	}
	s := NewScheduler(mkProgram(tasks), 4)
	buf := make([]isa.Instr, 16)
	var executed uint64
	// Run all 4 cores a little.
	for round := 0; round < 3; round++ {
		for c := 0; c < 4; c++ {
			n, _ := s.Next(c, buf)
			for _, in := range buf[:n] {
				if in.Kind == isa.Compute {
					executed += uint64(in.N)
				}
			}
		}
	}
	// Sprint exhausted: migrate everything to core 0.
	s.MigrateAll(0)
	for c := 1; c < 4; c++ {
		if n, done := s.Next(c, buf); !done || n != 0 {
			t.Fatalf("core %d should be done after migration", c)
		}
	}
	// Core 0 completes the remainder.
	for {
		n, done := s.Next(0, buf)
		if done {
			break
		}
		for _, in := range buf[:n] {
			if in.Kind == isa.Compute {
				executed += uint64(in.N)
			}
		}
	}
	if executed != 80_000 {
		t.Errorf("executed %d ops, want 80000 (work lost in migration)", executed)
	}
	if !s.Stats.Migrated {
		t.Error("stats should record migration")
	}
}

func TestMigrationAcrossPhases(t *testing.T) {
	prog := mkProgram(
		[]Task{mkTask("a1", 5000), mkTask("a2", 5000)},
		[]Task{mkTask("b1", 5000), mkTask("b2", 5000)},
	)
	s := NewScheduler(prog, 2)
	buf := make([]isa.Instr, 8)
	var executed uint64
	count := func(n int) {
		for _, in := range buf[:n] {
			if in.Kind == isa.Compute {
				executed += uint64(in.N)
			}
		}
	}
	n, _ := s.Next(0, buf)
	count(n)
	n, _ = s.Next(1, buf)
	count(n)
	s.MigrateAll(0)
	for {
		n, done := s.Next(0, buf)
		if done {
			break
		}
		for _, in := range buf[:n] {
			if in.Kind == isa.Compute {
				executed += uint64(in.N)
			}
		}
	}
	if executed != 20_000 {
		t.Errorf("executed %d, want 20000", executed)
	}
}

func TestEmptyPhaseSkipped(t *testing.T) {
	prog := Program{Name: "x", Phases: []Phase{
		{Name: "A", Tasks: []Task{mkTask("a", 100)}},
		{Name: "empty"},
		{Name: "B", Tasks: []Task{mkTask("b", 100)}},
	}}
	s := NewScheduler(prog, 1)
	counts := drainAll(t, s, 1)
	if counts[0].ComputeOps != 200 {
		t.Errorf("ops = %d, want 200", counts[0].ComputeOps)
	}
}

func TestValidate(t *testing.T) {
	if (Program{}).Validate() == nil {
		t.Error("empty program should be invalid")
	}
	bad := Program{Name: "bad", Phases: []Phase{{Tasks: []Task{{Name: "nil"}}}}}
	if bad.Validate() == nil {
		t.Error("nil stream should be invalid")
	}
	mustPanic(t, func() { NewScheduler(bad, 1) })
	good := mkProgram([]Task{mkTask("a", 1)})
	mustPanic(t, func() { NewScheduler(good, 0) })
	s := NewScheduler(good, 1)
	mustPanic(t, func() { s.MigrateAll(5) })
}

func TestShardStreams(t *testing.T) {
	mk := func(lo, hi int) isa.Stream {
		return &isa.SliceStream{Instrs: []isa.Instr{{Kind: isa.Compute, N: uint32(hi - lo)}}}
	}
	tasks := ShardStreams("rows", 100, 4, mk)
	if len(tasks) != 4 {
		t.Fatalf("got %d shards, want 4", len(tasks))
	}
	var total uint64
	buf := make([]isa.Instr, 8)
	for _, tk := range tasks {
		for n := tk.Stream.Next(buf); n > 0; n = tk.Stream.Next(buf) {
			for _, in := range buf[:n] {
				total += uint64(in.N)
			}
		}
	}
	if total != 100 {
		t.Errorf("sharded total = %d, want 100", total)
	}
	if got := ShardStreams("x", 2, 8, mk); len(got) != 2 {
		t.Errorf("shards must not exceed items: %d", len(got))
	}
	if got := ShardStreams("x", 0, 4, mk); got != nil {
		t.Error("zero items should give no tasks")
	}
}

// TestSchedulerOnMachine is the integration test: a phased program on the
// real simulator with 4 cores, checking full completion and barrier pauses.
func TestSchedulerOnMachine(t *testing.T) {
	tasks := []Task{}
	for i := 0; i < 6; i++ {
		tasks = append(tasks, mkTask("p1", 200_000))
	}
	prog := mkProgram(tasks, []Task{mkTask("serial", 100_000)})
	s := NewScheduler(prog, 4)
	m, err := archsim.New(archsim.DefaultConfig(4), s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, st := range res.PerCore {
		total += st.ComputeOps
	}
	if total != 6*200_000+100_000 {
		t.Errorf("total ops = %d", total)
	}
	// The serial phase forces 3 cores to pause (6 tasks over 4 cores also
	// leaves 2 cores short at the first barrier).
	var pauses uint64
	for _, st := range res.PerCore {
		pauses += st.Pauses
	}
	if pauses == 0 {
		t.Error("expected barrier pauses on the machine")
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}
