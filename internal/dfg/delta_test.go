package dfg

// Property tests for the delta-maintenance kernels of the incremental
// search-state engine: across randomized push/pop sequences of outputs and
// inputs, the cut S maintained by GrowCut/ShrinkCut plus their undo
// journals must stay identical to the from-scratch reference CutNodesInto
// (package enum's rebuildS) after every single operation. Graph sizes cross
// every closure stride class.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"polyise/internal/bitset"
)

// deltaOp is one recorded push, with its journaled delta for undoing.
type deltaOp struct {
	isOutput bool
	v        int
	delta    *bitset.Set
}

// checkAgainstRebuild compares the maintained S with the from-scratch
// reference for the current outs/inputs.
func checkAgainstRebuild(t *testing.T, tr *Traverser, S *bitset.Set, outs []int, inputs *bitset.Set, step string) bool {
	t.Helper()
	ref := bitset.New(S.Cap())
	tr.CutNodesInto(ref, outs, inputs)
	if !S.Equal(ref) {
		t.Logf("%s: maintained S %v != rebuilt %v (outs=%v inputs=%v)",
			step, S.Members(), ref.Members(), outs, inputs.Members())
		return false
	}
	return true
}

// runDeltaSequence drives one randomized push/pop sequence on g, verifying
// S against the reference after every operation, and returns false on the
// first mismatch. Each step pops, pushes an output or pushes an input with
// weights 1 : 1 : inputWeight.
func runDeltaSequence(t *testing.T, r *rand.Rand, g *Graph, steps, inputWeight int) bool {
	t.Helper()
	n := g.N()
	tr := g.NewTraverser()
	S := bitset.New(n)
	inputs := bitset.New(n)
	outSet := bitset.New(n)
	var outs []int
	var stack []deltaOp

	for step := 0; step < steps; step++ {
		op := r.Intn(2 + inputWeight)
		switch {
		case op == 0 && len(stack) > 0: // pop
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if top.isOutput {
				S.Subtract(top.delta)
				outs = outs[:len(outs)-1]
				outSet.Remove(top.v)
			} else {
				S.Union(top.delta)
				inputs.Remove(top.v)
			}
		case op == 1: // push output: any vertex outside S and I
			o := r.Intn(n)
			if S.Has(o) || inputs.Has(o) || outSet.Has(o) {
				continue
			}
			delta := bitset.New(n)
			tr.GrowCut(S, delta, o, inputs)
			outs = append(outs, o)
			outSet.Add(o)
			stack = append(stack, deltaOp{isOutput: true, v: o, delta: delta})
		default: // push input: any member of S that is not a chosen output
			if S.Empty() {
				continue
			}
			w := -1
			for probe := 0; probe < 8; probe++ {
				c := r.Intn(n)
				if S.Has(c) && !outSet.Has(c) {
					w = c
					break
				}
			}
			if w < 0 {
				continue
			}
			removed := bitset.New(n)
			inputs.Add(w)
			tr.ShrinkCut(S, removed, outs, inputs)
			stack = append(stack, deltaOp{isOutput: false, v: w, delta: removed})
		}
		if !checkAgainstRebuild(t, tr, S, outs, inputs, "after op") {
			return false
		}
	}
	// Unwind everything: the journal must restore the empty cut exactly.
	for len(stack) > 0 {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if top.isOutput {
			S.Subtract(top.delta)
			outs = outs[:len(outs)-1]
			outSet.Remove(top.v)
		} else {
			S.Union(top.delta)
			inputs.Remove(top.v)
		}
		if !checkAgainstRebuild(t, tr, S, outs, inputs, "during unwind") {
			return false
		}
	}
	if !S.Empty() {
		t.Logf("S not empty after full unwind: %v", S.Members())
		return false
	}
	return true
}

// TestDeltaCutMatchesRebuild pins the delta-maintained cut to the
// from-scratch reference across random push/pop sequences: "production"
// with the search's even mix of pops, output pushes and input pushes, and
// "fallback-always" weighted towards input pushes, so that ShrinkCut's
// confined backward closure from the outputs — once the fallback of an
// incremental removal, now its only path — runs on most steps and on cuts
// already shrunk by several inputs.
func TestDeltaCutMatchesRebuild(t *testing.T) {
	for _, tc := range []struct {
		name        string
		inputWeight int
	}{
		{"production", 1},
		{"fallback-always", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := func(seed int64) bool {
				r := rand.New(rand.NewSource(seed))
				g := randTraverseGraph(r, traverseSize(r)) // crosses stride 1–4 + generic
				return runDeltaSequence(t, r, g, 40, tc.inputWeight)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShrinkReachMatchesReference pins ShrinkReachInto — the delta
// derivation of a child analysis frontier — to the from-scratch confined
// backward closure it replaces, across random graphs, outputs and
// incrementally blocked vertices: "production" blocks up to 4 vertices, as
// deep as the search's input budgets usually go, and "incremental-only"
// keeps blocking until the frontier is down to the output, so each child
// is derived from a long chain of derived parents and never recomputed.
func TestShrinkReachMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name   string
		rounds func(n int) int
	}{
		{"production", func(int) int { return 4 }},
		{"incremental-only", func(n int) int { return n }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := func(seed int64) bool {
				r := rand.New(rand.NewSource(seed))
				g := randTraverseGraph(r, traverseSize(r))
				return runShrinkReach(t, r, g, seed, tc.rounds(g.N()))
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// runShrinkReach blocks up to rounds frontier members of a random output's
// backward closure one at a time, deriving each child frontier from its
// parent and checking it against both references.
func runShrinkReach(t *testing.T, r *rand.Rand, g *Graph, seed int64, rounds int) bool {
	t.Helper()
	n := g.N()
	tr := g.NewTraverser()
	inputs := bitset.New(n)
	parent := bitset.New(n)
	child := bitset.New(n)
	ref := bitset.New(n)
	o := r.Intn(n)
	// Parent frontier: everything reaching o (no inputs yet).
	tr.ReachBackwardAvoiding(parent, []int{o}, inputs, nil)
	for round := 0; round < rounds; round++ {
		w := -1
		for probe := 0; probe < 8; probe++ {
			c := r.Intn(n)
			if parent.Has(c) && c != o {
				w = c
				break
			}
		}
		if w < 0 {
			return true
		}
		inputs.Add(w)
		tr.ShrinkReachInto(child, parent, o, w)
		tr.ReachBackwardAvoiding(ref, []int{o}, inputs, parent)
		if !child.Equal(ref) {
			t.Logf("seed=%d o=%d w=%d: child %v != ref %v (parent %v)",
				seed, o, w, child.Members(), ref.Members(), parent.Members())
			return false
		}
		// The unconfined recomputation must agree too (the
		// confinement argument of analyzePaths).
		tr.ReachBackwardAvoiding(ref, []int{o}, inputs, nil)
		if !child.Equal(ref) {
			t.Logf("seed=%d o=%d w=%d: child %v != unconfined %v",
				seed, o, w, child.Members(), ref.Members())
			return false
		}
		parent.Copy(child)
	}
	return true
}

// TestGrowCutConeFastPath drives the memoized-cone OR fast path (no input
// inside the new output's ancestor cone) and the backward-closure path on
// the same graph, checking both against the expected cut.
func TestGrowCutConeFastPath(t *testing.T) {
	// Chain a→b→c→d plus side root e feeding c: cone(d) = {a,b,c,e}.
	g := New()
	a := g.MustAddNode(OpVar, "a")
	b := g.MustAddNode(OpAdd, "b", a)
	e := g.MustAddNode(OpVar, "e")
	c := g.MustAddNode(OpAdd, "c", b, e)
	d := g.MustAddNode(OpNot, "d", c)
	g.MustFreeze()

	tr := g.NewTraverser()
	n := g.N()

	// Fast path: no inputs at all.
	S := bitset.New(n)
	delta := bitset.New(n)
	inputs := bitset.New(n)
	tr.GrowCut(S, delta, d, inputs)
	want := bitset.FromMembers(n, a, b, e, c, d)
	if !S.Equal(want) || !delta.Equal(want) {
		t.Fatalf("fast path: S=%v delta=%v want %v", S.Members(), delta.Members(), want.Members())
	}

	// Slow path: input b sits inside cone(d), so only {c,d,e} join.
	S.Clear()
	delta.Clear()
	inputs.Add(b)
	tr.GrowCut(S, delta, d, inputs)
	want = bitset.FromMembers(n, e, c, d)
	if !S.Equal(want) || !delta.Equal(want) {
		t.Fatalf("slow path: S=%v delta=%v want %v", S.Members(), delta.Members(), want.Members())
	}
}
