package storage

import "sync"

// NodeCache is the bounded, guarded decoded-node cache of the baseline
// index structures (btree, rtree): read paths serve repeated node visits
// from it instead of re-decoding page records, standing in for PostgreSQL
// processing tuples directly inside buffer pages. (The SP-GiST core reads
// record bytes through node views instead, see core.nodeTable.)
//
// The mutex guards only the map. The cached values themselves must be
// immutable from the instant they are published — callers finish all
// decoding/memoization before Put and never write to a cached node — so
// any number of concurrent readers share them freely. Writers Drop the
// touched keys; when the cache reaches its bound it is dropped wholesale
// (reads repopulate it quickly).
type NodeCache[K comparable, V any] struct {
	mu  sync.RWMutex
	max int
	m   map[K]V
}

// NewNodeCache returns an empty cache holding at most max entries.
func NewNodeCache[K comparable, V any](max int) *NodeCache[K, V] {
	return &NodeCache[K, V]{max: max, m: make(map[K]V)}
}

// Get returns the cached value for k, if any.
func (c *NodeCache[K, V]) Get(k K) (V, bool) {
	c.mu.RLock()
	v, ok := c.m[k]
	c.mu.RUnlock()
	return v, ok
}

// Put publishes v under k. v must not be written again by anyone.
func (c *NodeCache[K, V]) Put(k K, v V) {
	c.mu.Lock()
	if len(c.m) >= c.max {
		c.m = make(map[K]V)
	}
	c.m[k] = v
	c.mu.Unlock()
}

// Drop invalidates k.
func (c *NodeCache[K, V]) Drop(k K) {
	c.mu.Lock()
	delete(c.m, k)
	c.mu.Unlock()
}
