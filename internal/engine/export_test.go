package engine

// Len counts the currently cached entries.
func (c *Cache) Len() int {
	n := 0
	c.m.Range(func(any, any) bool { n++; return true })
	return n
}
