// Package domtree computes dominator and postdominator trees on the
// augmented graph of §3: the DFG's vertices 0..n-1, plus a virtual source n
// that precedes every root and every user-forbidden vertex, and a virtual
// sink n+1 that succeeds every Oext vertex. Connecting forbidden vertices to
// the source encodes that any path through a forbidden node must be cut at
// that node or later, since the node itself can never join a cut. The
// augmented graph is implicit: the source's successors are Graph.Entries,
// the sink's predecessors are Graph.Oext, and every other edge is the DFG's
// own.
//
// The paper uses Lengauer–Tarjan (§5.4) because it targets general graphs.
// Here every graph is a DAG whose vertex ids are a topological order
// (dfg.Graph.AddNode only accepts existing predecessors), and on a DAG the
// Cooper–Harvey–Kennedy dominance iteration ("A Simple, Fast Dominance
// Algorithm", 2001) converges in one pass in that order: the immediate
// dominator of v is the nearest common ancestor, in the tree folded so far,
// of v's reached predecessors. The forward pass folds the ids ascending over
// predecessors, the reverse pass descending over successors. A solve costs
// O(E·h) in the worst case, h the height of the tree, against
// Lengauer–Tarjan's O(E log n); dominator trees are unique, so the result
// is the same.
//
// Ancestor queries on a Tree are O(1) (§5.4), via preorder intervals.
package domtree

import (
	"polyise/internal/bitset"
	"polyise/internal/dfg"
)

// none marks an absent vertex in the int32 arrays.
const none = int32(-1)

// Solver folds dominator or postdominator trees of one frozen graph, with a
// set of user vertices optionally blocked (treated as deleted). Its arrays
// are reused across runs, so a run allocates nothing. A Solver is not safe
// for concurrent use; create one per goroutine.
type Solver struct {
	g     *dfg.Graph
	oext  []int   // the virtual sink's predecessors
	root  int32   // root of the last run: the source or the sink
	idom  []int32 // immediate dominator; none for the root and unreached vertices
	depth []int32 // depth in the tree; -1 for unreached vertices
}

// NewSolver returns a solver for the augmented graph of the frozen graph g.
func NewSolver(g *dfg.Graph) *Solver {
	n := g.N() + 2
	return &Solver{g: g, oext: g.Oext(), idom: make([]int32, n), depth: make([]int32, n)}
}

// PostdominatorTree returns the postdominator tree of g's augmented graph,
// rooted at the virtual sink.
func PostdominatorTree(g *dfg.Graph) *Tree {
	s := NewSolver(g)
	s.Postdominators(nil)
	return s.Tree()
}

// PostdominanceRelation returns, for each vertex v of g, the vertices
// related to v by postdominance in g's augmented graph: those v
// postdominates and those that postdominate v (Solver.Related).
func PostdominanceRelation(g *dfg.Graph) []*bitset.Set {
	s := NewSolver(g)
	s.Postdominators(nil)
	return s.Related()
}

// Related returns, for each user vertex v, the user vertices related to v
// in the tree of the last run: v's ancestors and descendants, and v itself
// when reached. Row u has v exactly when Tree().Dominates(u, v) or
// Tree().Dominates(v, u). The rows cost one union per tree edge in each
// direction: every vertex follows its (post)dominator in pass order, so
// the first pass hands each row its parent's ancestors and the second,
// backward, folds each finished row into its parent's.
func (s *Solver) Related() []*bitset.Set {
	n := s.g.N()
	at := func(i int) int { return i } // pass order: ascending ids forward
	if int(s.root) != s.Source() {
		at = func(i int) int { return n - 1 - i }
	}
	rows := bitset.NewRows(n, n)
	for i := 0; i < n; i++ {
		v := at(i)
		if s.depth[v] < 0 {
			continue
		}
		rows[v].Add(v)
		if d := int(s.idom[v]); d < n {
			rows[v].Union(rows[d])
		}
	}
	for i := n - 1; i >= 0; i-- {
		v := at(i)
		if d := int(s.idom[v]); d >= 0 && d < n {
			rows[d].Union(rows[v])
		}
	}
	return rows
}

// Source returns the id of the virtual source.
func (s *Solver) Source() int { return s.g.N() }

// Sink returns the id of the virtual sink.
func (s *Solver) Sink() int { return s.g.N() + 1 }

// Dominators folds the dominator tree rooted at the virtual source, with
// every user vertex in blocked (nil means none) deleted.
func (s *Solver) Dominators(blocked *bitset.Set) {
	n := s.g.N()
	s.setRoot(n)
	entry := s.g.EntrySet()
	for v := 0; v < n; v++ {
		d := none
		if blocked == nil || !blocked.Has(v) {
			if entry.Has(v) {
				d = int32(n)
			}
			for _, p := range s.g.Preds(v) {
				d = s.meet(d, p)
			}
		}
		s.set(v, d)
	}
	s.setLast(n+1, s.oext)
}

// Postdominators folds the postdominator tree rooted at the virtual sink,
// with every user vertex in blocked (nil means none) deleted.
func (s *Solver) Postdominators(blocked *bitset.Set) {
	n := s.g.N()
	s.setRoot(n + 1)
	out := s.g.OextSet()
	for v := n - 1; v >= 0; v-- {
		d := none
		if blocked == nil || !blocked.Has(v) {
			if out.Has(v) {
				d = int32(n + 1)
			}
			for _, p := range s.g.Succs(v) {
				d = s.meet(d, p)
			}
		}
		s.set(v, d)
	}
	s.setLast(n, s.g.Entries())
}

func (s *Solver) setRoot(r int) {
	s.root = int32(r)
	s.idom[r] = none
	s.depth[r] = 0
}

// setLast folds the virtual vertex at the far end of the pass, whose
// predecessors (in the pass direction) are preds.
func (s *Solver) setLast(v int, preds []int) {
	d := none
	for _, p := range preds {
		d = s.meet(d, p)
	}
	s.set(v, d)
}

func (s *Solver) set(v int, d int32) {
	s.idom[v] = d
	s.depth[v] = -1
	if d != none {
		s.depth[v] = s.depth[d] + 1
	}
}

// meet folds the predecessor p into d, the nearest common ancestor of the
// reached predecessors seen so far (none before the first).
func (s *Solver) meet(d int32, p int) int32 {
	b := int32(p)
	if s.depth[b] < 0 {
		return d
	}
	if d == none {
		return b
	}
	for d != b {
		if s.depth[d] >= s.depth[b] {
			d = s.idom[d]
		} else {
			b = s.idom[b]
		}
	}
	return d
}

// IDom returns the immediate dominator of v after the last run, or -1 for
// the root and for blocked or unreached vertices.
func (s *Solver) IDom(v int) int { return int(s.idom[v]) }

// Reachable reports whether v was reached from the root in the last run.
func (s *Solver) Reachable(v int) bool { return s.depth[v] >= 0 }
