package session

import (
	"math/rand"
	"sync"
	"testing"

	"polyise/internal/dfg"
	"polyise/internal/workload"
)

// testGraphs builds distinct frozen graphs for cache tests.
func testGraphs(t testing.TB, n int) []*dfg.Graph {
	t.Helper()
	out := make([]*dfg.Graph, n)
	for i := range out {
		out[i] = workload.MiBenchLike(rand.New(rand.NewSource(int64(i+1))), 40, workload.DefaultProfile())
	}
	return out
}

func TestCachePutDeduplicatesByContent(t *testing.T) {
	c := NewCache(0)
	g := testGraphs(t, 1)[0]
	id1, err := c.Put(g)
	if err != nil {
		t.Fatal(err)
	}
	// A structurally identical graph built independently must hit.
	g2 := workload.MiBenchLike(rand.New(rand.NewSource(1)), 40, workload.DefaultProfile())
	id2, err := c.Put(g2)
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Fatalf("identical graphs got distinct ids %v, %v", id1, id2)
	}
	st := c.Stats()
	if st.Entries != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 entry, 1 hit, 1 miss", st)
	}
	// The hit keeps the first instance: Acquire returns pointer-identical g.
	got, ok := c.Acquire(id1)
	if !ok || got != g {
		t.Fatalf("Acquire returned %p, want the first cached instance %p", got, g)
	}
	c.Release(id1)
}

func TestCacheEvictionUnderBudgetPressure(t *testing.T) {
	gs := testGraphs(t, 4)
	per := gs[0].FootprintBytes()
	for _, g := range gs {
		if b := g.FootprintBytes(); b > per {
			per = b
		}
	}
	// Room for roughly two graphs: inserting four must evict coldest-first.
	limit := 2*per + per/2
	c := NewCache(limit)
	var ids []GraphID
	for _, g := range gs {
		id, err := c.Put(g)
		if err != nil {
			t.Fatalf("Put under pressure: %v", err)
		}
		ids = append(ids, id)
		if used := c.Stats().Bytes; used > limit {
			t.Fatalf("limit exceeded: %d bytes cached > %d", used, limit)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions despite budget pressure")
	}
	// The most recent insert must still be resident, the oldest gone.
	if _, ok := c.Acquire(ids[len(ids)-1]); !ok {
		t.Fatal("most recently inserted graph was evicted")
	}
	if _, ok := c.Acquire(ids[0]); ok {
		t.Fatal("coldest graph survived eviction pressure")
	}
}

func TestCachePinnedEntriesAreNotEvicted(t *testing.T) {
	gs := testGraphs(t, 2)
	c := NewCache(gs[0].FootprintBytes() + gs[1].FootprintBytes()/2)
	id0, err := c.Put(gs[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Acquire(id0); !ok {
		t.Fatal("Acquire of fresh entry failed")
	}
	// gs[1] does not fit and the only resident entry is pinned: Put must
	// refuse with the typed overload, not evict the pinned graph.
	if _, err := c.Put(gs[1]); err == nil {
		t.Fatal("Put evicted a pinned entry (or oversubscribed the budget)")
	} else if _, ok := err.(*OverloadError); !ok {
		t.Fatalf("Put error = %T (%v), want *OverloadError", err, err)
	}
	if _, ok := c.Acquire(id0); !ok {
		t.Fatal("pinned entry vanished")
	}
	c.Release(id0)
	c.Release(id0)
	// Unpinned, the entry is evictable and the second graph fits.
	if _, err := c.Put(gs[1]); err != nil {
		t.Fatalf("Put after unpin: %v", err)
	}
	if _, ok := c.Acquire(id0); ok {
		t.Fatal("idle entry survived eviction it should have lost")
	}
}

// TestCacheConcurrentStorm hammers one cache from many goroutines with a
// budget that forces constant eviction, under -race. Invariants: the
// budget is never oversubscribed, acquired graphs are always usable, and
// the refcount accounting never underflows (Release panics would fail the
// test).
func TestCacheConcurrentStorm(t *testing.T) {
	gs := testGraphs(t, 6)
	per := int64(0)
	for _, g := range gs {
		if b := g.FootprintBytes(); b > per {
			per = b
		}
	}
	limit := 3 * per
	c := NewCache(limit)
	const workers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	monitorDone := make(chan struct{})
	// Budget monitor: the invariant must hold at every instant, not just
	// at the end.
	go func() {
		defer close(monitorDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if used := c.Stats().Bytes; used > limit {
				t.Errorf("budget oversubscribed: %d > %d", used, limit)
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				g := gs[r.Intn(len(gs))]
				id, err := c.Put(g)
				if err != nil {
					continue // budget refusal under pin pressure is legal
				}
				got, ok := c.Acquire(id)
				if !ok {
					continue // evicted between Put and Acquire: legal
				}
				if got.N() != g.N() {
					t.Errorf("acquired graph has %d nodes, want %d", got.N(), g.N())
				}
				c.Release(id)
			}
		}(int64(w))
	}
	wg.Wait()
	close(stop)
	<-monitorDone
	st := c.Stats()
	if st.Bytes > limit {
		t.Fatalf("final cache bytes %d exceed budget %d", st.Bytes, limit)
	}
	if st.Evictions == 0 {
		t.Fatal("storm produced no evictions; budget pressure not exercised")
	}
}
