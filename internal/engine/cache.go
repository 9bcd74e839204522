package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"sprinting/internal/core"
)

// Cache memoizes RunGrid's point results by config key. It is safe for
// concurrent use; concurrent requests for the same key evaluate the point
// once and share the result. Deterministic failures are cached like
// results, but context cancellation errors are evicted so a later run
// retries the point.
type Cache struct {
	m      sync.Map // key → *cacheEntry
	hits   atomic.Int64
	misses atomic.Int64
}

type cacheEntry struct {
	done chan struct{} // closed once val and err are set
	val  core.Result
	err  error
}

// NewCache returns an empty cache.
func NewCache() *Cache { return &Cache{} }

// lookup returns key's entry, creating it when absent. The caller that
// created it owns it and must settle it; every other caller waits.
func (c *Cache) lookup(key string) (e *cacheEntry, owner bool) {
	v, loaded := c.m.LoadOrStore(key, &cacheEntry{done: make(chan struct{})})
	if loaded {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v.(*cacheEntry), !loaded
}

// settle fills an owned entry and releases its waiters.
func (c *Cache) settle(key string, e *cacheEntry, val core.Result, err error) {
	e.val, e.err = val, err
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		// A canceled evaluation says nothing about the point; drop the
		// entry so the next run recomputes it.
		c.m.CompareAndDelete(key, e)
	}
	close(e.done)
}

// wait blocks until the entry is settled and returns its result.
func (e *cacheEntry) wait() (core.Result, error) {
	<-e.done
	return e.val, e.err
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
