package rt

// Done reports whether the whole program has completed.
func (s *Scheduler) Done() bool {
	return s.phase >= len(s.prog.Phases) ||
		(s.phase == len(s.prog.Phases)-1 && s.phaseComplete() && allNil(s.running))
}

func allNil(ts []*Task) bool {
	for _, t := range ts {
		if t != nil {
			return false
		}
	}
	return true
}
