package session

import (
	"container/list"
	"sync"

	"polyise/internal/checkpoint"
	"polyise/internal/dfg"
	"polyise/internal/faultinject"
)

// CacheStats is a point-in-time summary of the graph cache.
type CacheStats struct {
	Entries   int
	Bytes     int64 // resident graph bytes charged to the budget
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// Cache is the content-addressed graph store. Entries are keyed by
// GraphID (checkpoint.GraphDigest), charged against the shared Budget by
// dfg.Graph.FootprintBytes, and refcounted: a graph acquired by a running
// request is pinned; only idle (refcount-zero) entries are evictable, in
// LRU order. Eviction is triggered by reservation pressure from a new
// graph, never by time.
//
// The concurrency contract leans on dfg.Graph immutability after Freeze:
// Acquire hands the same *dfg.Graph to any number of concurrent
// enumerations.
type Cache struct {
	// mu guards everything below. Hook panics inside the critical section
	// are safe: mutations happen only after the hook returns, and the
	// deferred unlock keeps siblings runnable.
	mu      sync.Mutex
	budget  *Budget
	entries map[GraphID]*entry
	idle    *list.List // of GraphID; front = most recently released

	hits, misses, evictions uint64
	bytes                   int64
}

// entry is one cached graph.
type entry struct {
	g     *dfg.Graph
	bytes int64
	refs  int
	idle  *list.Element // non-nil iff refs == 0 (listed for eviction)
}

// NewCache returns an empty cache charging b.
func NewCache(b *Budget) *Cache {
	return &Cache{budget: b, entries: make(map[GraphID]*entry), idle: list.New()}
}

// Put publishes a frozen graph and returns its content address. An
// identical graph already resident is a hit — the existing instance is
// kept and re-warmed in LRU order. A miss charges the graph's footprint to
// the budget, evicting idle entries as needed; when even a fully drained
// cache cannot afford it, Put fails with *OverloadError (CauseMemory).
func (c *Cache) Put(g *dfg.Graph) (GraphID, error) {
	id := GraphID(checkpoint.GraphDigest(g))
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[id]; ok {
		c.hits++
		c.touch(id, e)
		return id, nil
	}
	c.misses++
	if h := faultinject.OnCacheInsert; h != nil {
		h()
	}
	bytes := g.FootprintBytes()
	if !c.reserveEvicting(bytes) {
		return GraphID{}, &OverloadError{Cause: CauseMemory}
	}
	e := &entry{g: g, bytes: bytes}
	e.idle = c.idle.PushFront(id)
	c.entries[id] = e
	c.bytes += bytes
	return id, nil
}

// Acquire pins the graph for a request. The caller must Release(id) when
// the request finishes; until then the entry cannot be evicted.
func (c *Cache) Acquire(id GraphID) (*dfg.Graph, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[id]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	e.refs++
	if e.idle != nil {
		c.idle.Remove(e.idle)
		e.idle = nil
	}
	return e.g, true
}

// Release unpins one Acquire. The last release lists the entry for
// eviction at the warm end of the LRU order.
func (c *Cache) Release(id GraphID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[id]
	if !ok || e.refs <= 0 {
		panic("session: Cache.Release without matching Acquire")
	}
	e.refs--
	if e.refs == 0 {
		e.idle = c.idle.PushFront(id)
	}
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   len(c.entries),
		Bytes:     c.bytes,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}

// touch re-warms an entry in the idle order (pinned entries have no idle
// position to move).
func (c *Cache) touch(id GraphID, e *entry) {
	if e.idle != nil {
		c.idle.MoveToFront(e.idle)
	}
}

// reserveEvicting reserves n bytes from the budget, evicting idle entries
// coldest-first until the reservation fits or nothing evictable remains.
// Called with c.mu held. Each eviction is completed — entry dropped, bytes
// released — before the next reservation attempt, so a hook panic between
// steps leaves the accounting balanced.
func (c *Cache) reserveEvicting(n int64) bool {
	for {
		if c.budget.TryReserve(n) {
			return true
		}
		victim := c.idle.Back()
		if victim == nil {
			return false
		}
		if h := faultinject.OnCacheEvict; h != nil {
			h()
		}
		id := victim.Value.(GraphID)
		e := c.entries[id]
		c.idle.Remove(victim)
		delete(c.entries, id)
		c.bytes -= e.bytes
		c.budget.Release(e.bytes)
		c.evictions++
	}
}
