package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Cache memoizes point results by config key. It is safe for concurrent
// use; concurrent requests for the same key evaluate the point once and
// share the result. Deterministic failures are cached like results, but
// context cancellation errors are evicted so a later run retries the
// point.
type Cache struct {
	m      sync.Map // key → *cacheEntry
	hits   atomic.Int64
	misses atomic.Int64
}

type cacheEntry struct {
	once sync.Once
	val  any
	err  error
}

// NewCache returns an empty cache.
func NewCache() *Cache { return &Cache{} }

// do returns the memoized result for key, computing it with compute on
// first use. compute must already be panic-safe (see callSafe).
func (c *Cache) do(key string, compute func() (any, error)) (any, error) {
	e, loaded := c.m.LoadOrStore(key, &cacheEntry{})
	if loaded {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	ce := e.(*cacheEntry)
	ce.once.Do(func() {
		ce.val, ce.err = compute()
		if ce.err != nil && (errors.Is(ce.err, context.Canceled) || errors.Is(ce.err, context.DeadlineExceeded)) {
			// A canceled evaluation says nothing about the point; drop
			// the entry so the next run recomputes it.
			c.m.Delete(key)
		}
	})
	return ce.val, ce.err
}

// Stats reports cumulative lookups: hits found an existing entry (its
// evaluation may still have been in flight), misses created one.
func (c *Cache) Stats() (hits, misses int64) { return c.hits.Load(), c.misses.Load() }

// Clear drops every cached entry. Safe to call concurrently with lookups:
// evaluations already in flight complete against their old entries, and
// later lookups recompute.
func (c *Cache) Clear() {
	c.m.Range(func(k, _ any) bool {
		c.m.Delete(k)
		return true
	})
}

// Key renders the parts into a deterministic cache key. It uses the full
// %#v rendering rather than a digest, so distinct configurations can never
// collide.
func Key(parts ...any) string {
	return fmt.Sprintf("%#v", parts)
}
