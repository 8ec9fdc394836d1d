package engine

import (
	"fmt"
	"sync"
	"testing"

	"lightyear/internal/core"
)

func result(desc string) core.CheckResult {
	return core.CheckResult{Desc: core.Text(desc), OK: true}
}

func TestLRUCacheEvictsLeastRecentlyUsed(t *testing.T) {
	c := newLRUCache(3)
	c.Add("a", result("a"))
	c.Add("b", result("b"))
	c.Add("c", result("c"))

	// Touch "a" so "b" becomes the LRU entry, then overflow.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should be cached")
	}
	c.Add("d", result("d"))

	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted as least recently used")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s should survive eviction", k)
		}
	}
	if c.Len() != 3 {
		t.Errorf("len = %d, want capacity 3", c.Len())
	}
}

func TestLRUCacheUpdateRefreshes(t *testing.T) {
	c := newLRUCache(2)
	c.Add("a", result("a1"))
	c.Add("b", result("b"))
	c.Add("a", result("a2")) // refresh, not insert
	if c.Len() != 2 {
		t.Fatalf("len = %d after refresh, want 2", c.Len())
	}
	if r, ok := c.Get("a"); !ok || r.Desc.String() != "a2" {
		t.Errorf("get(a) = %v/%v, want refreshed value", r.Desc, ok)
	}
	c.Add("c", result("c")) // evicts b (a was refreshed more recently)
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
}

func TestLRUCacheConcurrentAccess(t *testing.T) {
	c := newLRUCache(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (g*31+i)%100)
				c.Add(k, result(k))
				c.Get(k)
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Errorf("len = %d exceeds capacity 64", c.Len())
	}
}
