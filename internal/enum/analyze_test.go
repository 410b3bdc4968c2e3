package enum

// White-box tests for the crossing-count path analysis that replaces
// Lengauer–Tarjan inside PICK-INPUTS: its reduced-graph dominator chains
// must match the real dominator solver on arbitrary graphs and blocked
// sets.

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"polyise/internal/bitset"
	"polyise/internal/dfg"
	"polyise/internal/domtree"
)

// newAnalyzer builds a minimal incEnum for direct analyzePaths calls.
func newAnalyzer(g *dfg.Graph) *incEnum {
	n := g.N()
	e := &incEnum{
		g:     g,
		tr:    g.NewTraverser(),
		Iuser: bitset.New(n),
	}
	for v := 0; v < n; v++ {
		if g.IsRoot(v) || g.IsUserForbidden(v) {
			e.entries = append(e.entries, v)
		}
	}
	return e
}

// oracle computes the reduced-graph dominators of o with the Lengauer–
// Tarjan solver on the augmented graph.
func oracle(g *dfg.Graph, blocked []int, o int) (reachable bool, doms []int) {
	aug := g.Augmented()
	solver := domtree.ForwardSolver(g)
	b := bitset.New(aug.N)
	for _, v := range blocked {
		b.Add(v)
	}
	solver.Run(b)
	if !solver.Reachable(o) {
		return false, nil
	}
	for u := solver.IDom(o); u >= 0 && u != aug.Source; u = solver.IDom(u) {
		doms = append(doms, u)
	}
	sort.Ints(doms)
	return true, doms
}

func randDFGLocal(r *rand.Rand, n int) *dfg.Graph {
	g := dfg.New()
	for i := 0; i < n; i++ {
		if i == 0 || r.Intn(4) == 0 {
			g.MustAddNode(dfg.OpVar, "")
			continue
		}
		k := 1 + r.Intn(2)
		preds := make([]int, 0, k)
		for j := 0; j < k; j++ {
			preds = append(preds, r.Intn(i))
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
	}
	g.MustFreeze()
	return g
}

func TestAnalyzePathsMatchesSolver(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randDFGLocal(r, 3+r.Intn(30))
		e := newAnalyzer(g)
		onPath := bitset.New(g.N())
		back := bitset.New(g.N())
		for trial := 0; trial < 12; trial++ {
			o := r.Intn(g.N())
			if g.IsForbidden(o) {
				continue
			}
			// Random blocked set among o's ancestors.
			anc := g.ReachTo(o).Members()
			e.Iuser.Clear()
			var blocked []int
			for _, a := range anc {
				if r.Intn(4) == 0 {
					e.Iuser.Add(a)
					blocked = append(blocked, a)
				}
			}
			gotReach, gotChain := e.analyzePaths(o, back, onPath, nil, -1, nil, true, nil)
			wantReach, wantChain := oracle(g, blocked, o)
			if gotReach != wantReach {
				t.Logf("seed=%d o=%d blocked=%v reach %v want %v", seed, o, blocked, gotReach, wantReach)
				return false
			}
			if !gotReach {
				continue
			}
			sort.Ints(gotChain)
			if !reflect.DeepEqual(gotChain, wantChain) &&
				!(len(gotChain) == 0 && len(wantChain) == 0) {
				t.Logf("seed=%d o=%d blocked=%v chain %v want %v", seed, o, blocked, gotChain, wantChain)
				return false
			}
			// onPath sanity: every chain member lies on a surviving path,
			// and o itself is on-path.
			if !onPath.Has(o) {
				return false
			}
			for _, u := range gotChain {
				if !onPath.Has(u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzePathsParentRestriction(t *testing.T) {
	// Computing with parent sets from a previous (smaller) blocked set must
	// give identical results to computing from scratch.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randDFGLocal(r, 5+r.Intn(25))
		e := newAnalyzer(g)
		o := r.Intn(g.N())
		if g.IsForbidden(o) {
			return true
		}
		anc := g.ReachTo(o).Members()
		if len(anc) < 2 {
			return true
		}
		// Parent level: block one ancestor.
		first := anc[r.Intn(len(anc))]
		e.Iuser.Add(first)
		pBack := bitset.New(g.N())
		pOnPath := bitset.New(g.N())
		pReach, _ := e.analyzePaths(o, pBack, pOnPath, nil, -1, nil, true, nil)
		if !pReach {
			return true
		}
		// Child level: block another.
		second := anc[r.Intn(len(anc))]
		if second == first {
			return true
		}
		e.Iuser.Add(second)

		backScratch := bitset.New(g.N())
		onScratch := bitset.New(g.N())
		reach1, chain1 := e.analyzePaths(o, backScratch, onScratch, nil, -1, nil, true, nil)
		sort.Ints(chain1)
		on1 := onScratch.Clone()

		reach2, chain2 := e.analyzePaths(o, backScratch, onScratch, pBack, second, nil, true, nil)
		sort.Ints(chain2)

		if reach1 != reach2 {
			return false
		}
		if reach1 && !reflect.DeepEqual(chain1, chain2) &&
			!(len(chain1) == 0 && len(chain2) == 0) {
			t.Logf("seed=%d o=%d chains differ: %v vs %v", seed, o, chain1, chain2)
			return false
		}
		if reach1 && !on1.Equal(onScratch) {
			t.Logf("seed=%d o=%d onPath differs", seed, o)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzePathsChainOnKnownGraph(t *testing.T) {
	// a → b → c → d: dominators of d are a, b, c in topological order.
	g := dfg.New()
	a := g.MustAddNode(dfg.OpVar, "a")
	b := g.MustAddNode(dfg.OpNot, "b", a)
	c := g.MustAddNode(dfg.OpNeg, "c", b)
	d := g.MustAddNode(dfg.OpAbs, "d", c)
	g.MustFreeze()
	e := newAnalyzer(g)
	onPath := bitset.New(g.N())
	back := bitset.New(g.N())
	reach, chain := e.analyzePaths(d, back, onPath, nil, -1, nil, true, nil)
	if !reach {
		t.Fatal("d unreachable")
	}
	if want := []int{a, b, c}; !reflect.DeepEqual(chain, want) {
		t.Fatalf("chain = %v, want %v", chain, want)
	}
	// Blocking b separates d entirely.
	e.Iuser.Add(b)
	reach, _ = e.analyzePaths(d, back, onPath, nil, -1, nil, true, nil)
	if reach {
		t.Fatal("d should be separated with b blocked")
	}
}
