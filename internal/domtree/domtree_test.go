package domtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"polyise/internal/bitset"
	"polyise/internal/dfg"
)

// augmented materialises the augmented graph of g as explicit successor
// lists, independently of the solver: vertex n is the virtual source
// (feeding every root and user-forbidden vertex), n+1 the virtual sink (fed
// by every live-out vertex). With reverse set the edges are flipped, the
// graph the postdominator pass works on.
func augmented(g *dfg.Graph, reverse bool) [][]int {
	n := g.N()
	succs := make([][]int, n+2)
	edge := func(a, b int) {
		if reverse {
			a, b = b, a
		}
		succs[a] = append(succs[a], b)
	}
	for v := 0; v < n; v++ {
		for _, s := range g.Succs(v) {
			edge(v, s)
		}
		if g.IsRoot(v) || g.IsUserForbidden(v) {
			edge(n, v)
		}
		if g.IsLiveOut(v) {
			edge(v, n+1)
		}
	}
	return succs
}

// bruteDominates is the oracle: a dominates v iff v is reachable from root,
// and unreachable once a is removed too. Reflexive.
func bruteDominates(root int, succs [][]int, blocked *bitset.Set, a, v int) bool {
	reach := func(skip int) []bool {
		seen := make([]bool, len(succs))
		if root == skip {
			return seen
		}
		stack := []int{root}
		seen[root] = true
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, s := range succs[x] {
				if s == skip || seen[s] || (blocked != nil && s < blocked.Cap() && blocked.Has(s)) {
					continue
				}
				seen[s] = true
				stack = append(stack, s)
			}
		}
		return seen
	}
	if !reach(-1)[v] {
		return false
	}
	if a == v {
		return true
	}
	return !reach(a)[v]
}

// chainDominates answers Dominates by walking the solver's idom chain.
func chainDominates(s *Solver, a, v int) bool {
	if !s.Reachable(v) {
		return false
	}
	for x := v; x != -1; x = s.IDom(x) {
		if x == a {
			return true
		}
	}
	return false
}

// chain builds a→b→c→d.
func chain() *dfg.Graph {
	g := dfg.New()
	a := g.MustAddNode(dfg.OpVar, "a")
	b := g.MustAddNode(dfg.OpNot, "b", a)
	c := g.MustAddNode(dfg.OpNeg, "c", b)
	g.MustAddNode(dfg.OpAbs, "d", c)
	return g.MustFreeze()
}

// diamond builds a→{b,c}→d.
func diamond() *dfg.Graph {
	g := dfg.New()
	a := g.MustAddNode(dfg.OpVar, "a")
	b := g.MustAddNode(dfg.OpNot, "b", a)
	c := g.MustAddNode(dfg.OpNeg, "c", a)
	g.MustAddNode(dfg.OpAdd, "d", b, c)
	return g.MustFreeze()
}

func TestLinearChain(t *testing.T) {
	g := chain()
	s := NewSolver(g)
	s.Dominators(nil)
	// source(4) → 0 → 1 → 2 → 3 → sink(5).
	for v, w := range []int{4, 0, 1, 2, -1, 3} {
		if s.IDom(v) != w {
			t.Errorf("IDom(%d) = %d, want %d", v, s.IDom(v), w)
		}
	}
	s.Postdominators(nil)
	for v, w := range []int{1, 2, 3, 5, 0, -1} {
		if s.IDom(v) != w {
			t.Errorf("postdom IDom(%d) = %d, want %d", v, s.IDom(v), w)
		}
	}
}

func TestDiamond(t *testing.T) {
	g := diamond()
	s := NewSolver(g)
	s.Dominators(nil)
	if s.IDom(1) != 0 || s.IDom(2) != 0 || s.IDom(3) != 0 {
		t.Fatalf("diamond idoms = %d %d %d, want 0 0 0", s.IDom(1), s.IDom(2), s.IDom(3))
	}
	s.Postdominators(nil)
	if s.IDom(0) != 3 || s.IDom(1) != 3 || s.IDom(2) != 3 {
		t.Fatalf("diamond postdom idoms = %d %d %d, want 3 3 3", s.IDom(0), s.IDom(1), s.IDom(2))
	}
}

func TestUnreachableAndBlocked(t *testing.T) {
	g := diamond()
	s := NewSolver(g)
	// b blocked: idom(d) = c.
	s.Dominators(bitset.FromMembers(g.N(), 1))
	if s.IDom(3) != 2 {
		t.Fatalf("blocked diamond IDom(3) = %d, want 2", s.IDom(3))
	}
	if s.Reachable(1) || s.IDom(1) != -1 {
		t.Error("blocked vertex reported reachable")
	}
	// Blocking the only root reaches nothing but the source.
	s.Dominators(bitset.FromMembers(g.N(), 0))
	for v := 0; v < g.N()+2; v++ {
		if s.Reachable(v) != (v == s.Source()) {
			t.Errorf("root blocked: Reachable(%d) = %v", v, s.Reachable(v))
		}
	}
	// Blocking the sink's only predecessor cuts the postdominator tree off
	// at the sink.
	s.Postdominators(bitset.FromMembers(g.N(), 3))
	for v := 0; v < g.N()+2; v++ {
		if s.Reachable(v) != (v == s.Sink()) {
			t.Errorf("sink pred blocked: Reachable(%d) = %v", v, s.Reachable(v))
		}
	}
}

func TestSolverReuse(t *testing.T) {
	g := diamond()
	s := NewSolver(g)
	s.Dominators(bitset.FromMembers(g.N(), 1))
	if s.IDom(3) != 2 {
		t.Fatalf("first run IDom(3) = %d, want 2", s.IDom(3))
	}
	s.Dominators(nil)
	if s.IDom(3) != 0 {
		t.Fatalf("second run IDom(3) = %d, want 0", s.IDom(3))
	}
	s.Dominators(bitset.FromMembers(g.N(), 2))
	if s.IDom(3) != 1 {
		t.Fatalf("third run IDom(3) = %d, want 1", s.IDom(3))
	}
}

func TestTreeQueries(t *testing.T) {
	// a→b→{c,d}→e→f: f's dominators are e, b, a and the source.
	g := dfg.New()
	a := g.MustAddNode(dfg.OpVar, "a")
	b := g.MustAddNode(dfg.OpNot, "b", a)
	c := g.MustAddNode(dfg.OpNeg, "c", b)
	d := g.MustAddNode(dfg.OpAbs, "d", b)
	e := g.MustAddNode(dfg.OpAdd, "e", c, d)
	f := g.MustAddNode(dfg.OpNot, "f", e)
	g.MustFreeze()
	s := NewSolver(g)
	s.Dominators(nil)
	tr := s.Tree()
	for x := 0; x < g.N()+2; x++ {
		for v := 0; v < g.N()+2; v++ {
			if got, want := tr.Dominates(x, v), chainDominates(s, x, v); got != want {
				t.Errorf("tree Dominates(%d,%d) = %v, idom chain says %v", x, v, got, want)
			}
		}
	}
	if !tr.Dominates(b, f) || tr.Dominates(c, f) || !tr.Dominates(s.Source(), f) || !tr.Dominates(f, s.Sink()) {
		t.Error("Dominates wrong on the chain through the diamond")
	}
}

// TestForwardReverseSolverOnDFG runs both passes on a ladder: three roots,
// two middle layers, one sink.
func TestForwardReverseSolverOnDFG(t *testing.T) {
	g := dfg.New()
	a := g.MustAddNode(dfg.OpVar, "a")
	b := g.MustAddNode(dfg.OpVar, "b")
	c := g.MustAddNode(dfg.OpVar, "c")
	d := g.MustAddNode(dfg.OpAdd, "d", a, b)
	e := g.MustAddNode(dfg.OpMul, "e", b, c)
	f := g.MustAddNode(dfg.OpSub, "f", d, e)
	h := g.MustAddNode(dfg.OpOr, "h", f, e)
	g.MustFreeze()

	s := NewSolver(g)
	s.Dominators(nil)
	// Every vertex is reachable from the source.
	for v := 0; v < g.N()+2; v++ {
		if !s.Reachable(v) {
			t.Errorf("forward: %d unreachable", v)
		}
	}
	// d's only single dominator is the source (a and b are siblings).
	if s.IDom(d) != s.Source() {
		t.Errorf("IDom(d) = %d, want source %d", s.IDom(d), s.Source())
	}
	// f's preds are d and e, so idom(f) = source.
	if s.IDom(f) != s.Source() {
		t.Errorf("IDom(f) = %d, want source", s.IDom(f))
	}
	// h is the only live-out vertex, so it dominates the sink.
	if s.IDom(s.Sink()) != h {
		t.Errorf("IDom(sink) = %d, want h=%d", s.IDom(s.Sink()), h)
	}

	s.Postdominators(nil)
	// Every path from b (b→d→f→h, b→e→f→h, b→e→h) passes through h, so h
	// postdominates b.
	if s.IDom(b) != h {
		t.Errorf("postdom IDom(b) = %d, want h=%d", s.IDom(b), h)
	}
	// h's immediate postdominator is the sink.
	if s.IDom(h) != s.Sink() {
		t.Errorf("postdom IDom(h) = %d, want sink", s.IDom(h))
	}
	// d's unique successor is f, so f postdominates d.
	if s.IDom(d) != f {
		t.Errorf("postdom IDom(d) = %d, want f=%d", s.IDom(d), f)
	}
	// The source's paths to the sink all end in h.
	if s.IDom(s.Source()) != h {
		t.Errorf("postdom IDom(source) = %d, want h=%d", s.IDom(s.Source()), h)
	}
}

// randDFG builds a random DFG with forbidden loads and live-out vertices.
func randDFG(r *rand.Rand, n int) *dfg.Graph {
	g := dfg.New()
	for i := 0; i < n; i++ {
		if i == 0 || r.Intn(4) == 0 {
			g.MustAddNode(dfg.OpVar, "")
			continue
		}
		preds := make([]int, 1+r.Intn(3))
		for j := range preds {
			preds[j] = r.Intn(i)
		}
		op := dfg.OpAdd
		if r.Intn(6) == 0 {
			op = dfg.OpLoad
		}
		id := g.MustAddNode(op, "", preds...)
		if op == dfg.OpLoad {
			if err := g.MarkForbidden(id); err != nil {
				panic(err)
			}
		}
		if r.Intn(8) == 0 {
			if err := g.MarkLiveOut(id); err != nil {
				panic(err)
			}
		}
	}
	return g.MustFreeze()
}

// TestQuickAgainstBruteForce checks every Dominates(a, v) of both passes,
// virtual vertices included, and every Related row against path
// enumeration on the explicit augmented graph, with random blocked sets.
func TestQuickAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randDFG(r, 2+r.Intn(24))
		n := g.N()
		var blocked *bitset.Set
		if r.Intn(2) == 0 {
			blocked = bitset.New(n)
			for i := 0; i < n/4; i++ {
				blocked.Add(r.Intn(n))
			}
		}
		s := NewSolver(g)
		for _, reverse := range []bool{false, true} {
			root := s.Source()
			if reverse {
				root = s.Sink()
				s.Postdominators(blocked)
			} else {
				s.Dominators(blocked)
			}
			tr := s.Tree()
			rel := s.Related()
			succs := augmented(g, reverse)
			for a := 0; a < n+2; a++ {
				for v := 0; v < n+2; v++ {
					want := bruteDominates(root, succs, blocked, a, v)
					if tr.Dominates(a, v) != want || chainDominates(s, a, v) != want {
						t.Logf("seed=%d n=%d reverse=%v a=%d v=%d want=%v got=%v/%v",
							seed, n, reverse, a, v, want, tr.Dominates(a, v), chainDominates(s, a, v))
						return false
					}
					if a < n && v < n {
						related := want || bruteDominates(root, succs, blocked, v, a)
						if rel[v].Has(a) != related {
							t.Logf("seed=%d n=%d reverse=%v: Related row %d has %d = %v, want %v",
								seed, n, reverse, v, a, rel[v].Has(a), related)
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSolverChain1000(b *testing.B) {
	g := dfg.New()
	g.MustAddNode(dfg.OpVar, "")
	for v := 1; v < 1000; v++ {
		g.MustAddNode(dfg.OpNot, "", v-1)
	}
	g.MustFreeze()
	s := NewSolver(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Dominators(nil)
	}
}

func BenchmarkSolverRandom1000(b *testing.B) {
	s := NewSolver(randDFG(rand.New(rand.NewSource(42)), 1000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Dominators(nil)
	}
}
