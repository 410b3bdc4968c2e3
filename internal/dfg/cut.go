package dfg

import "polyise/internal/bitset"

// This file implements the cut-level primitives of §3 and §4: computing
// I(S) and O(S), convexity, def. 4 connectedness, and the technical
// condition the paper adds to the problem statement (every input must have a
// "private" path to the cut that avoids all other inputs).
//
// These are the scalar reference implementations. The enumeration hot path
// runs on the word-parallel equivalents (traverse.go kernels and
// enum.Validator); property tests check those against the functions here
// on randomized graphs, so the scalar forms stay load-bearing as the
// executable specification.

// CutNodesInto computes into dst the vertex set of the cut identified by
// the chosen outputs and the input set `avoid`:
//
//	S = { u ∉ avoid : u reaches some chosen output along a path that
//	      avoids every vertex in avoid } ∪ outs
//
// This is the constructive form of theorems 2 and 3. (Note it is NOT the
// literal union of the B(V,w) sets of definition 6: a path from one input
// that crosses another input is cut at the second input, so only the
// avoid-free suffixes contribute. The distinction matters whenever one
// input lies on a path between another input and an output.) Implemented as
// one backward traversal from the outputs, blocked at avoid; O(E) total.
func (g *Graph) CutNodesInto(dst *bitset.Set, outs []int, avoid *bitset.Set) *bitset.Set {
	dst.Clear()
	stack := make([]int, 0, 64)
	for _, o := range outs {
		if avoid.Has(o) || dst.Has(o) {
			continue
		}
		dst.Add(o)
		stack = append(stack, o)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, p := range g.preds[x] {
				if !avoid.Has(p) && !dst.Has(p) {
					dst.Add(p)
					stack = append(stack, p)
				}
			}
		}
	}
	return dst
}

// InputsInto computes I(S) (definition 1) into dst: the predecessors of
// edges entering S from the rest of the graph. Returns dst.
func (g *Graph) InputsInto(dst *bitset.Set, S *bitset.Set) *bitset.Set {
	dst.Clear()
	S.ForEach(func(v int) bool {
		for _, p := range g.preds[v] {
			if !S.Has(p) {
				dst.Add(p)
			}
		}
		return true
	})
	return dst
}

// Inputs returns I(S) in ascending order.
func (g *Graph) Inputs(S *bitset.Set) []int {
	return g.InputsInto(bitset.New(g.N()), S).Members()
}

// OutputsInto computes O(S) (definition 1) into dst: the members of S with
// at least one successor outside S. Members of Oext inside S are always
// outputs because their values are observed outside the block (they have an
// edge to the virtual sink). Returns dst.
func (g *Graph) OutputsInto(dst *bitset.Set, S *bitset.Set) *bitset.Set {
	dst.Clear()
	S.ForEach(func(v int) bool {
		if g.oext.Has(v) {
			dst.Add(v)
			return true
		}
		for _, s := range g.succs[v] {
			if !S.Has(s) {
				dst.Add(v)
				return true
			}
		}
		return true
	})
	return dst
}

// Outputs returns O(S) in ascending order.
func (g *Graph) Outputs(S *bitset.Set) []int {
	return g.OutputsInto(bitset.New(g.N()), S).Members()
}

// IsConvex reports whether S is a convex cut (definition 2): no path leaves
// S and re-enters it.
func (g *Graph) IsConvex(S *bitset.Set) bool {
	c := g.closures()
	for v := 0; v < g.N(); v++ {
		if S.Has(v) {
			continue
		}
		if c.reachTo[v].Intersects(S) && c.reachFrom[v].Intersects(S) {
			return false
		}
	}
	return true
}

// IsConnectedCut reports whether the convex cut S is connected per
// definition 4: it has at most one output, or every pair of outputs shares
// a vertex that is an input to both.
//
// "Input to a vertex" follows the generalized-dominator sense established
// by theorem 1: input i is an input to output o when some root→o path
// passes through i and avoids every other input of S. Plain reachability
// would be too lax — an input whose only route to o runs through another
// input does not feed o.
func (g *Graph) IsConnectedCut(S *bitset.Set) bool {
	outs := g.Outputs(S)
	if len(outs) <= 1 {
		return true
	}
	ins := g.Inputs(S)
	inSet := bitset.FromMembers(g.N(), ins...)
	visited := bitset.New(g.N())
	// inputsTo[k] = the inputs feeding outs[k], as a set over vertex ids.
	inputsTo := make([]*bitset.Set, len(outs))
	for k, o := range outs {
		inputsTo[k] = bitset.New(g.N())
		for _, i := range ins {
			if g.inputFeeds(inSet, i, o, visited) {
				inputsTo[k].Add(i)
			}
		}
	}
	for a := 0; a < len(outs); a++ {
		for b := a + 1; b < len(outs); b++ {
			if !inputsTo[a].Intersects(inputsTo[b]) {
				return false
			}
		}
	}
	return true
}

// inputFeeds reports whether some root→o path passes through input i and
// avoids every other member of inSet.
func (g *Graph) inputFeeds(inSet *bitset.Set, i, o int, visited *bitset.Set) bool {
	// Phase 1: the root must reach i while avoiding the other inputs.
	if !g.rootReachesAvoiding(i, inSet, visited) {
		return false
	}
	// Phase 2: i must reach o while avoiding the other inputs.
	visited.Clear()
	stack := []int{i}
	visited.Add(i)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.succs[v] {
			if s == o {
				return true
			}
			if !visited.Has(s) && !inSet.Has(s) {
				visited.Add(s)
				stack = append(stack, s)
			}
		}
	}
	return false
}

// rootReachesAvoiding reports whether the virtual root reaches w while
// avoiding every member of inSet other than w itself.
func (g *Graph) rootReachesAvoiding(w int, inSet *bitset.Set, visited *bitset.Set) bool {
	visited.Clear()
	stack := make([]int, 0, 64)
	push := func(v int) {
		if !visited.Has(v) && !(inSet.Has(v) && v != w) {
			visited.Add(v)
			stack = append(stack, v)
		}
	}
	for _, v := range g.entries {
		push(v)
	}
	for len(stack) > 0 && !visited.Has(w) {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.succs[v] {
			push(s)
		}
	}
	return visited.Has(w)
}

// TechnicalConditionHolds implements the extra validity condition of §3:
// for each input w ∈ I(S) there must be a vertex v ∈ S such that at least
// one path from the (virtual) root to v contains w but no other input of S.
//
// The virtual root precedes every Iext vertex and every forbidden vertex, so
// the search starts from those. The check runs one forward traversal per
// input, each blocked at the remaining inputs.
func (g *Graph) TechnicalConditionHolds(S *bitset.Set) bool {
	ins := g.Inputs(S)
	if len(ins) <= 1 {
		return true
	}
	inSet := bitset.FromMembers(g.N(), ins...)
	visited := bitset.New(g.N())
	for _, w := range ins {
		if !g.privatePathExists(S, inSet, w, visited) {
			return false
		}
	}
	return true
}

// privatePathExists reports whether a path root→…→w→…→v (v ∈ S) exists that
// avoids every input other than w.
func (g *Graph) privatePathExists(S, inSet *bitset.Set, w int, visited *bitset.Set) bool {
	if !g.rootReachesAvoiding(w, inSet, visited) {
		return false
	}
	// From w, reach some v ∈ S avoiding the other inputs.
	visited.Clear()
	stack := []int{w}
	visited.Add(w)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if S.Has(v) {
			return true
		}
		for _, s := range g.succs[v] {
			if !visited.Has(s) && !inSet.Has(s) {
				visited.Add(s)
				stack = append(stack, s)
			}
		}
	}
	return false
}
