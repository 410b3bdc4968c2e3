package dfg

// Property tests for the word-parallel traversal engine: every kernel must
// agree with its scalar reference (the cut.go implementations, or a plain
// BFS written here) on randomized graphs, seeds and avoid-sets. Graph sizes
// deliberately cross the 64/128/192/256-vertex stride boundaries so every
// specialized closure and the generic fallback are exercised.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"polyise/internal/bitset"
)

// randTraverseGraph is randGraph plus random live-out marks, so the
// kernels also meet Oext members that still have successors.
func randTraverseGraph(r *rand.Rand, n int) *Graph {
	g := New()
	for i := 0; i < n; i++ {
		if i == 0 || r.Intn(5) == 0 {
			g.MustAddNode(OpVar, "")
		} else {
			k := 1 + r.Intn(2)
			preds := make([]int, 0, k)
			for j := 0; j < k; j++ {
				preds = append(preds, r.Intn(i))
			}
			op := OpAdd
			if r.Intn(10) == 0 {
				op = OpLoad
			}
			id := g.MustAddNode(op, "", preds...)
			if op == OpLoad {
				if err := g.MarkForbidden(id); err != nil {
					panic(err)
				}
			}
		}
		if r.Intn(12) == 0 {
			if err := g.MarkLiveOut(i); err != nil {
				panic(err)
			}
		}
	}
	g.MustFreeze()
	return g
}

// traverseSize spans all closure specializations (strides 1–4) and the
// generic fallback (stride ≥ 5).
func traverseSize(r *rand.Rand) int { return 2 + r.Intn(330) }

func randSubset(r *rand.Rand, n, den int) *bitset.Set {
	s := bitset.New(n)
	for v := 0; v < n; v++ {
		if r.Intn(den) == 0 {
			s.Add(v)
		}
	}
	return s
}

// scalarReach is the reference BFS: everything reachable from the seeds
// (seeds outside within\avoid dropped, as the kernels specify) along edges
// given by next, never stepping on avoid or outside within.
func scalarReach(g *Graph, seeds []int, avoid, within *bitset.Set, next func(int) []int) *bitset.Set {
	dst := bitset.New(g.N())
	ok := func(v int) bool {
		return !avoid.Has(v) && (within == nil || within.Has(v))
	}
	var stack []int
	for _, s := range seeds {
		if ok(s) && !dst.Has(s) {
			dst.Add(s)
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range next(v) {
			if ok(w) && !dst.Has(w) {
				dst.Add(w)
				stack = append(stack, w)
			}
		}
	}
	return dst
}

func TestReachAvoidingMatchesScalarBFS(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randTraverseGraph(r, traverseSize(r))
		tr := g.NewTraverser()
		n := g.N()
		fwd := bitset.New(n)
		bwd := bitset.New(n)
		for trial := 0; trial < 8; trial++ {
			avoid := randSubset(r, n, 4)
			var within *bitset.Set
			if r.Intn(2) == 0 {
				within = randSubset(r, n, 2)
			}
			var seeds []int
			for k := 1 + r.Intn(3); k > 0; k-- {
				seeds = append(seeds, r.Intn(n))
			}
			tr.ReachForwardAvoiding(fwd, bitset.FromMembers(n, seeds...).Words(), avoid, within)
			if want := scalarReach(g, seeds, avoid, within, g.Succs); !fwd.Equal(want) {
				t.Logf("seed=%d fwd %v want %v (seeds=%v)", seed, fwd, want, seeds)
				return false
			}
			tr.ReachBackwardAvoiding(bwd, seeds, avoid, within)
			if want := scalarReach(g, seeds, avoid, within, g.Preds); !bwd.Equal(want) {
				t.Logf("seed=%d bwd %v want %v (seeds=%v)", seed, bwd, want, seeds)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestTraverserCutNodesMatchesScalar(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randTraverseGraph(r, traverseSize(r))
		tr := g.NewTraverser()
		n := g.N()
		got := bitset.New(n)
		want := bitset.New(n)
		for trial := 0; trial < 8; trial++ {
			avoid := randSubset(r, n, 5)
			var outs []int
			for k := 1 + r.Intn(3); k > 0; k-- {
				outs = append(outs, r.Intn(n))
			}
			tr.CutNodesInto(got, outs, avoid)
			g.CutNodesInto(want, outs, avoid)
			if !got.Equal(want) {
				t.Logf("seed=%d outs=%v got %v want %v", seed, outs, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestRowIntersectAndEntries(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randTraverseGraph(r, traverseSize(r))
		n := g.N()
		s := randSubset(r, n, 3)
		for v := 0; v < n; v++ {
			wantP, wantS := false, false
			for _, p := range g.Preds(v) {
				wantP = wantP || s.Has(p)
			}
			for _, w := range g.Succs(v) {
				wantS = wantS || s.Has(w)
			}
			if g.PredsIntersect(v, s) != wantP || g.SuccsIntersect(v, s) != wantS {
				return false
			}
		}
		// Entries must be exactly Iext ∪ user-forbidden, and EntrySet must
		// agree with the list.
		want := bitset.New(n)
		for v := 0; v < n; v++ {
			if g.IsRoot(v) || g.IsUserForbidden(v) {
				want.Add(v)
			}
		}
		if !g.EntrySet().Equal(want) {
			return false
		}
		es := g.Entries()
		if len(es) != want.Count() {
			return false
		}
		for _, v := range es {
			if !want.Has(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestTraverserSeedsOutsideAllowedKept pins the low-level closure contract
// GrowCut's slow path relies on: pre-seeded vertices survive even when the
// allowed set excludes them, while expansion stays inside it.
func TestTraverserSeedsOutsideAllowedKept(t *testing.T) {
	g := New()
	a := g.MustAddNode(OpVar, "a")
	b := g.MustAddNode(OpNot, "b", a)
	c := g.MustAddNode(OpNeg, "c", b)
	g.MustFreeze()
	tr := g.NewTraverser()
	dst := bitset.New(g.N())
	dst.Add(a)
	allowed := bitset.FromMembers(g.N(), b, c)
	tr.closure(dst, g.succBits, allowed)
	for _, v := range []int{a, b, c} {
		if !dst.Has(v) {
			t.Fatalf("closure missing %d: %v", v, dst)
		}
	}
	// With b disallowed the closure cannot get past it.
	dst.Clear()
	dst.Add(a)
	allowed = bitset.FromMembers(g.N(), c)
	tr.closure(dst, g.succBits, allowed)
	if dst.Has(b) || dst.Has(c) {
		t.Fatalf("closure crossed a disallowed vertex: %v", dst)
	}
}

func TestTraverserZeroAllocSteadyState(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g := randTraverseGraph(r, 200)
	tr := g.NewTraverser()
	n := g.N()
	dst := bitset.New(n)
	avoid := randSubset(r, n, 6)
	seeds := []int{n - 1, n / 2}
	seedWords := bitset.FromMembers(n, seeds...).Words()
	allocs := testing.AllocsPerRun(50, func() {
		tr.ReachBackwardAvoiding(dst, seeds, avoid, nil)
		tr.ReachForwardAvoiding(dst, seedWords, avoid, nil)
		tr.CutNodesInto(dst, seeds, avoid)
	})
	if allocs != 0 {
		t.Fatalf("traversal kernels allocated %.1f times per run, want 0", allocs)
	}
}
