package engine

// Len counts the currently cached entries.
func (c *Cache) Len() int {
	n := 0
	c.m.Range(func(any, any) bool { n++; return true })
	return n
}

// MachineRuns counts the machine simulations RunGrid has started in this
// process: shared runs, reruns and singletons.
func MachineRuns() int64 { return machineRuns.Load() }
