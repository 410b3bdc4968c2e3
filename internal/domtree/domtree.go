// Package domtree implements the Lengauer–Tarjan dominator algorithm
// (TOPLAS 1979) in its O(m log n) path-compression variant, the one the
// paper selects in §5.4 ("we implemented the O(n log n) variant of the
// Lengauer–Tarjan algorithm, which employs path compression but no tree
// balancing").
//
// Two properties drive the design:
//
//   - The multi-vertex dominator search (package multidom) runs the solver
//     on many *reduced* graphs — the original graph with a seed set of
//     vertices deleted. The Solver therefore accepts a set of blocked
//     vertices per run and reuses all its scratch arrays across runs, and
//     both the depth-first search and the eval function are iterative so
//     that thousand-node graphs do not exhaust goroutine stacks (§5.4 notes
//     the iterative eval cut memory accesses by a third).
//
//   - Ancestor queries on the resulting tree must be O(1) (§5.4); the Tree
//     type provides them via pre/post intervals of a depth-first walk.
package domtree

import (
	"polyise/internal/bitset"
	"polyise/internal/dfg"
)

// none marks an absent vertex in the int32 scratch arrays.
const none = int32(-1)

// Solver computes immediate dominators of a fixed rooted digraph, optionally
// with a subset of vertices blocked (treated as deleted). A Solver is not
// safe for concurrent use; create one per goroutine.
type Solver struct {
	n     int
	root  int32 // root of the most recent run (Reset may move it)
	croot int32 // construction root, the one Run always uses
	succs [][]int32
	preds [][]int32

	// Lengauer–Tarjan state, indexed by vertex.
	dfnum    []int32    // depth-first number, or -1 if unreached
	vertex   []int32    // dfnum → vertex
	parent   []int32    // DFS tree parent
	semi     []int32    // semidominator as a dfnum
	idom     []int32    // immediate dominator (vertex), none for root/unreached
	ancestor []int32    // link-eval forest
	label    []int32    // link-eval labels
	buckets  []int32    // bucket linked lists: head per vertex
	bnext    []int32    // next pointers for bucket lists
	stack    []int32    // scratch for path compression
	dfsStack [][2]int32 // scratch for the depth-first search
	reached  int        // number of vertices reached by last Run
	primed   bool       // arena invariant established (see Reset)
}

// NewSolver creates a solver for the digraph with n vertices, the given
// root, and the given adjacency. The adjacency slices are retained (not
// copied) and must not change while the solver is in use.
func NewSolver(n, root int, succs, preds [][]int32) *Solver {
	s := &Solver{
		n:     n,
		root:  int32(root),
		croot: int32(root),
		succs: succs,
		preds: preds,
	}
	s.dfnum = make([]int32, n)
	s.vertex = make([]int32, n)
	s.parent = make([]int32, n)
	s.semi = make([]int32, n)
	s.idom = make([]int32, n)
	s.ancestor = make([]int32, n)
	s.label = make([]int32, n)
	s.buckets = make([]int32, n)
	s.bnext = make([]int32, n)
	s.stack = make([]int32, 0, n)
	return s
}

// ForwardSolver returns a solver for the augmented graph of g rooted at the
// virtual source (dominators).
func ForwardSolver(g *dfg.Graph) *Solver {
	a := g.Augmented()
	return NewSolver(a.N, a.Source, a.Succs, a.Preds)
}

// ReverseSolver returns a solver for the reverse augmented graph of g rooted
// at the virtual sink (postdominators).
func ReverseSolver(g *dfg.Graph) *Solver {
	a := g.Augmented()
	return NewSolver(a.N, a.Sink, a.Preds, a.Succs)
}

// Run computes immediate dominators, ignoring any vertex in blocked (nil
// means no blocking). Blocked vertices and vertices unreachable from the
// root get IDom == -1. It returns the number of reached vertices.
//
// Run is Reset at the construction root (always, even after Reset has
// solved at a different root): successive runs reuse the solver arena and
// pay initialization only for the region the previous run reached.
func (s *Solver) Run(blocked *bitset.Set) int {
	return s.Reset(int(s.croot), blocked)
}

// Reset re-arms the solver arena and solves immediately: it clears only the
// per-vertex state the previous run touched (the renumbered region —
// Lengauer–Tarjan only ever writes dominator state for vertices its
// depth-first search numbered), moves the root to the given vertex, and
// runs the algorithm with every vertex in seeds blocked (nil means no
// blocking). This is the per-step entry point of the multiple-vertex
// dominator search, which solves thousands of reduced graphs per
// enumeration: each solve costs O(region reached) rather than O(n) in
// initialization, and no per-run state is allocated.
//
// The arena invariant — dfnum/idom/ancestor/buckets are `none` outside the
// previously reached region — is established on the first call and
// maintained by the confined clear afterwards. Results are identical to a
// fresh NewSolver + Run (the property tests pin this).
func (s *Solver) Reset(root int, seeds *bitset.Set) int {
	if !s.primed {
		for i := 0; i < s.n; i++ {
			s.dfnum[i] = none
			s.idom[i] = none
			s.ancestor[i] = none
			s.buckets[i] = none
		}
		s.primed = true
	} else {
		for i := 0; i < s.reached; i++ {
			v := s.vertex[i]
			s.dfnum[v] = none
			s.idom[v] = none
			s.ancestor[v] = none
			s.buckets[v] = none
		}
	}
	s.root = int32(root)
	blocked := seeds

	// Iterative depth-first search from the root, skipping blocked vertices.
	// Vertices are numbered in true preorder (when first visited), which the
	// Lengauer–Tarjan semidominator theory depends on. The stack holds
	// (vertex, tentative parent) pairs; a vertex may be pushed several times
	// but is numbered only once.
	num := int32(0)
	if cap(s.dfsStack) < s.n {
		s.dfsStack = make([][2]int32, 0, 2*s.n)
	}
	st := s.dfsStack[:0]
	if blocked == nil || !blocked.Has(int(s.root)) {
		st = append(st, [2]int32{s.root, none})
	}
	for len(st) > 0 {
		top := st[len(st)-1]
		st = st[:len(st)-1]
		v, p := top[0], top[1]
		if s.dfnum[v] != none {
			continue
		}
		s.parent[v] = p
		s.dfnum[v] = num
		s.vertex[num] = v
		s.semi[v] = num
		s.label[v] = v
		num++
		for _, w := range s.succs[v] {
			if blocked != nil && blocked.Has(int(w)) {
				continue
			}
			if s.dfnum[w] == none {
				st = append(st, [2]int32{w, v})
			}
		}
	}
	s.dfsStack = st[:0]
	s.reached = int(num)

	// Main Lengauer–Tarjan loop, in reverse pre-order.
	for i := num - 1; i >= 1; i-- {
		w := s.vertex[i]
		// Compute semidominator of w.
		for _, v := range s.preds[w] {
			if s.dfnum[v] == none { // blocked or unreachable
				continue
			}
			u := s.eval(v)
			if s.semi[u] < s.semi[w] {
				s.semi[w] = s.semi[u]
			}
		}
		// Add w to the bucket of its semidominator vertex.
		sv := s.vertex[s.semi[w]]
		s.bnext[w] = s.buckets[sv]
		s.buckets[sv] = w
		p := s.parent[w]
		s.ancestor[w] = p // link(p, w)
		// Process the bucket of p.
		for v := s.buckets[p]; v != none; v = s.bnext[v] {
			u := s.eval(v)
			if s.semi[u] < s.semi[v] {
				s.idom[v] = u // deferred: resolved in final pass
			} else {
				s.idom[v] = p
			}
		}
		s.buckets[p] = none
	}

	// Final pass in pre-order resolves deferred immediate dominators.
	for i := int32(1); i < num; i++ {
		w := s.vertex[i]
		if s.idom[w] != s.vertex[s.semi[w]] {
			s.idom[w] = s.idom[s.idom[w]]
		}
	}
	if num > 0 {
		s.idom[s.root] = none
	}
	return s.reached
}

// eval returns the vertex with minimum semidominator on the forest path
// above v, applying iterative path compression.
func (s *Solver) eval(v int32) int32 {
	if s.ancestor[v] == none {
		return s.label[v]
	}
	// Collect the path from v up to the forest root.
	s.stack = s.stack[:0]
	u := v
	for s.ancestor[s.ancestor[u]] != none {
		s.stack = append(s.stack, u)
		u = s.ancestor[u]
	}
	// u's ancestor is a forest root; fold labels back down.
	for i := len(s.stack) - 1; i >= 0; i-- {
		w := s.stack[i]
		a := s.ancestor[w]
		if s.semi[s.label[a]] < s.semi[s.label[w]] {
			s.label[w] = s.label[a]
		}
		s.ancestor[w] = s.ancestor[a]
	}
	return s.label[v]
}

// IDom returns the immediate dominator of v after Run, or -1 for the root,
// blocked or unreachable vertices.
func (s *Solver) IDom(v int) int { return int(s.idom[v]) }

// Reachable reports whether v was reached from the root in the last Run.
func (s *Solver) Reachable(v int) bool { return s.dfnum[v] != none }

// Dominates reports whether a dominates v (reflexively) according to the
// last Run, by walking the idom chain; O(depth). For O(1) queries build a
// Tree.
func (s *Solver) Dominates(a, v int) bool {
	if !s.Reachable(v) || !s.Reachable(a) {
		return false
	}
	for x := int32(v); x != none; x = s.idom[x] {
		if int(x) == a {
			return true
		}
	}
	return false
}

// DominatorsOf returns all strict dominators of v (excluding v itself and
// the root), innermost first.
func (s *Solver) DominatorsOf(v int) []int {
	var out []int
	if !s.Reachable(v) {
		return nil
	}
	for x := s.idom[int32(v)]; x != none && x != s.root; x = s.idom[x] {
		out = append(out, int(x))
	}
	return out
}
