package engine

import (
	"container/list"
	"sync"

	"lightyear/internal/core"
)

// ResultCache is the engine's persistent-tier seam (Options.Cache): a
// concurrency-safe map from semantic check key (core.Check.Key) to check
// result behind the in-memory lruCache below. The engine probes Get when
// the LRU misses and calls Add with every decided result; internal/store
// provides the disk-persistent implementation, so warm starts survive
// process restarts.
//
// Contract: a result stored under a key may be returned for any check with
// that key — checks with equal keys decide the same formula, and the engine
// relabels Kind/Loc/Desc for the receiving check — so implementations must
// never invent or transform keys.
type ResultCache interface {
	Get(key string) (core.CheckResult, bool)
	Add(key string, val core.CheckResult)
}

// lruCache is a concurrency-safe, capacity-bounded LRU map from check key
// to check result. Both hits and fills refresh recency; when the cache is
// full the least-recently-used entry is evicted. Bounding by entry count is
// adequate because every cached value is a small CheckResult (the SAT
// formulas themselves are never retained).
type lruCache struct {
	capacity int

	mu    sync.Mutex
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type lruEntry struct {
	key string
	val core.CheckResult
}

func newLRUCache(capacity int) *lruCache {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// Get returns the cached result for key, refreshing its recency.
func (c *lruCache) Get(key string) (core.CheckResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return core.CheckResult{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// Add inserts or refreshes key, evicting the least-recently-used entry if
// the cache is over capacity.
func (c *lruCache) Add(key string, val core.CheckResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val})
	if c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

// Len returns the number of cached results.
func (c *lruCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
