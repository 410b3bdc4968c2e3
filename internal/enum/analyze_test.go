package enum

// White-box tests for the crossing-count path analysis that replaces the
// dominator solver inside PICK-INPUTS: its reduced-graph dominator chains
// must match the real dominator solver on arbitrary graphs and blocked
// sets.

import (
	"math/rand"
	"reflect"
	"slices"
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

// analyzeStart runs analyzePaths at a phase start of o, with back loaded
// as the output push leaves it there: B(I, o) ∪ {o}, every vertex reaching
// o along a path avoiding the chosen inputs. Like the search, it passes o
// as the last input: the sweep runs up to o.
func (e *incEnum) analyzeStart(o int, back, onPath *bitset.Set, chain []int, tree []treeNode) (bool, []int) {
	e.tr.ReachBackwardAvoiding(back, []int{o}, e.Iuser, nil)
	return e.analyzePaths(o, back, onPath, o, chain, tree)
}

// analyzeSeed runs analyzePaths at a seed level of o whose last seed s has
// just joined the inputs: back is derived from the parent's pBack by the
// delta kernel, as the search derives it.
func (e *incEnum) analyzeSeed(o, s int, back, onPath, pBack *bitset.Set, chain []int, tree []treeNode) (bool, []int) {
	e.tr.ShrinkReachInto(back, pBack, o, s)
	return e.analyzePaths(o, back, onPath, s, chain, tree)
}

// below returns the members of xs below v.
func below(xs []int, v int) []int {
	var out []int
	for _, x := range xs {
		if x < v {
			out = append(out, x)
		}
	}
	return out
}

// oracle computes the reduced-graph dominators of o with the dominator
// solver on the augmented graph.
func oracle(g *dfg.Graph, blocked []int, o int) (reachable bool, doms []int) {
	solver := domtree.NewSolver(g)
	b := bitset.New(g.N())
	for _, v := range blocked {
		b.Add(v)
	}
	solver.Dominators(b)
	if !solver.Reachable(o) {
		return false, nil
	}
	for u := solver.IDom(o); u >= 0 && u != solver.Source(); u = solver.IDom(u) {
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
			gotReach, gotChain := e.analyzeStart(o, back, onPath, nil, nil)
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
	// give identical results to computing from scratch, below the new
	// input: a seed level's sweep stops there.
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
		pReach, _ := e.analyzeStart(o, pBack, pOnPath, nil, nil)
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
		reach1, chain1 := e.analyzeStart(o, backScratch, onScratch, nil, nil)
		chain1 = below(chain1, second)
		on1 := below(onScratch.Members(), second)

		reach2, chain2 := e.analyzeSeed(o, second, backScratch, onScratch, pBack, nil, nil)

		if reach1 != reach2 {
			t.Logf("seed=%d o=%d second=%d: reachable %v from scratch, %v derived", seed, o, second, reach1, reach2)
			return false
		}
		if reach1 && !slices.Equal(chain1, chain2) {
			t.Logf("seed=%d o=%d chains below %d differ: %v vs %v", seed, o, second, chain1, chain2)
			return false
		}
		if on2 := below(onScratch.Members(), second); reach1 && !slices.Equal(on1, on2) {
			t.Logf("seed=%d o=%d onPath below %d differs: %v vs %v", seed, o, second, on1, on2)
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
	reach, chain := e.analyzeStart(d, back, onPath, nil, nil)
	if !reach {
		t.Fatal("d unreachable")
	}
	if want := []int{a, b, c}; !reflect.DeepEqual(chain, want) {
		t.Fatalf("chain = %v, want %v", chain, want)
	}
	// Blocking b separates d entirely.
	e.Iuser.Add(b)
	reach, _ = e.analyzeStart(d, back, onPath, nil, nil)
	if reach {
		t.Fatal("d should be separated with b blocked")
	}
}

// TestAnalyzeBelowLastInputMatchesSolver checks a seed level's analysis,
// which stops at its last input lastIn, against the dominator solver over
// the last-level corpus: for random blocked sets among o's ancestors with
// lastIn one of them, the verdict (the running maximum past lastIn) must
// be the solver's reachability of o, and the chain must be the solver's
// dominators of o below lastIn. The plain sweep and the folding sweep
// must agree on the verdict, the chain and the on-path set below lastIn,
// which must also match a phase-start analysis of the same inputs.
func TestAnalyzeBelowLastInputMatchesSolver(t *testing.T) {
	for _, blk := range lastLevelCorpus() {
		g := blk.g
		n := g.N()
		r := rand.New(rand.NewSource(int64(n) + 7))
		e := newAnalyzer(g)
		back, onPath, fullBack, fullOn := bitset.New(n), bitset.New(n), bitset.New(n), bitset.New(n)
		unreachable := 0
		for trial := 0; trial < 200; trial++ {
			o := r.Intn(n)
			anc := g.ReachTo(o).Members()
			if g.IsForbidden(o) || len(anc) == 0 {
				continue
			}
			e.Iuser.Clear()
			var blocked []int
			for k := 1 + r.Intn(4); k > 0; k-- {
				v := anc[r.Intn(len(anc))]
				if !e.Iuser.Has(v) {
					e.Iuser.Add(v)
					blocked = append(blocked, v)
				}
			}
			lastIn := blocked[r.Intn(len(blocked))]
			wantReach, wantDoms := oracle(g, blocked, o)
			_, fullChain := e.analyzeStart(o, fullBack, fullOn, nil, nil)
			fullOnBelow := below(fullOn.Members(), lastIn)
			for _, tree := range [][]treeNode{nil, e.last.scratchTree(g)} {
				e.tr.ReachBackwardAvoiding(back, []int{o}, e.Iuser, nil)
				reach, chain := e.analyzePaths(o, back, onPath, lastIn, nil, tree)
				if reach != wantReach {
					t.Fatalf("%s o=%d I=%v lastIn=%d tree=%v: reachable %v, solver %v", blk.name, o, blocked, lastIn, tree != nil, reach, wantReach)
				}
				if !reach {
					continue
				}
				if want := below(wantDoms, lastIn); !slices.Equal(chain, want) {
					t.Fatalf("%s o=%d I=%v lastIn=%d tree=%v: chain %v, solver's below lastIn %v", blk.name, o, blocked, lastIn, tree != nil, chain, want)
				}
				if !slices.Equal(chain, below(fullChain, lastIn)) {
					t.Fatalf("%s o=%d I=%v lastIn=%d: chain %v, phase-start chain %v", blk.name, o, blocked, lastIn, chain, fullChain)
				}
				if on := below(onPath.Members(), lastIn); !slices.Equal(on, fullOnBelow) {
					t.Fatalf("%s o=%d I=%v lastIn=%d tree=%v: on-path below lastIn %v, phase start %v", blk.name, o, blocked, lastIn, tree != nil, on, fullOnBelow)
				}
			}
			if !wantReach {
				unreachable++
			}
		}
		if unreachable == 0 {
			t.Fatalf("%s: every trial left o reachable", blk.name)
		}
	}
}

// TestRejectedVerticesDominateNothing checks the fact a seed level the flow
// bound prunes rests on (docs/ALGORITHM.md §5, "Rejected vertices dominate
// nothing"): with input budget left, no dominator of o in the reduced
// graph is a vertex the output–input pruning rejects (inputRejectsInto).
// Over the last-level corpus, for Nin 1–4 and random input sets of at most
// Nin−1 of o's ancestors, the solver's dominators must miss the rejected
// set. o's forbidden predecessors must come out below, at and above Nin.
func TestRejectedVerticesDominateNothing(t *testing.T) {
	cases := map[int]int{} // by the sign of forbidden predecessors − Nin
	for _, blk := range lastLevelCorpus() {
		g := blk.g
		n := g.N()
		r := rand.New(rand.NewSource(int64(n) + 11))
		e := newAnalyzer(g)
		rej := bitset.New(n)
		for trial := 0; trial < 300; trial++ {
			o := r.Intn(n)
			anc := g.ReachTo(o).Members()
			if g.IsForbidden(o) || len(anc) == 0 {
				continue
			}
			e.opt.MaxInputs = 1 + r.Intn(4)
			var blocked []int
			for k := r.Intn(e.opt.MaxInputs); k > 0; k-- {
				blocked = append(blocked, anc[r.Intn(len(anc))])
			}
			reach, doms := oracle(g, blocked, o)
			if !reach {
				continue
			}
			e.inputRejectsInto(rej, o)
			for _, d := range doms {
				if rej.Has(d) {
					t.Fatalf("%s o=%d Nin=%d I=%v: dominator %d is rejected (dominators %v)", blk.name, o, e.opt.MaxInputs, blocked, d, doms)
				}
			}
			c := g.ForbiddenPreds(o).Count() - e.opt.MaxInputs
			cases[min(max(c, -1), 1)]++
		}
	}
	if cases[-1] == 0 || cases[0] == 0 || cases[1] == 0 {
		t.Fatalf("forbidden predecessors below/at/above Nin in %d/%d/%d trials; each must occur", cases[-1], cases[0], cases[1])
	}
	t.Logf("forbidden predecessors below/at/above Nin in %d/%d/%d trials", cases[-1], cases[0], cases[1])
}
