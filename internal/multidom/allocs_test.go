package multidom

// Allocation regression tests for the query hot paths: once an Enumerator
// is warmed up, reachability checks, definition-5 verification and
// reduced-graph dominator extraction must not allocate — they run once per
// node of the seed-set search tree, and per-call allocation used to
// dominate dominator-rich graphs.

import (
	"math/rand"
	"testing"

	"polyise/internal/bitset"
)

func TestQueryPathsAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	g := randDFG(r, 60)
	e := New(g)

	// Pick a query output with a non-trivial ancestor cone.
	o := -1
	for v := g.N() - 1; v >= 0; v-- {
		if !g.IsForbidden(v) && g.ReachTo(v).Count() >= 4 {
			o = v
			break
		}
	}
	if o < 0 {
		t.Skip("no suitable output in random graph")
	}
	anc := g.ReachTo(o).Members()
	seeds := bitset.New(g.N())
	seeds.Add(anc[0])
	V := []int{anc[0], anc[len(anc)-1]}
	doms := make([]int, 0, g.N())

	// Warm-up: grows the BFS queue and scratch buffers.
	e.Separates(seeds, o)
	e.Check(V, o)
	doms, _ = e.ReducedDominators(seeds, o, doms[:0])
	_ = doms

	allocs := testing.AllocsPerRun(20, func() {
		e.Separates(seeds, o)
		e.Check(V, o)
		doms, _ = e.ReducedDominators(seeds, o, doms[:0])
	})
	if allocs > 0 {
		t.Fatalf("query paths allocated %.1f times per run, want 0", allocs)
	}
}
