// Package multidom enumerates multiple-vertex (generalized) dominators of
// data-flow graph vertices.
//
// Generalized dominators were introduced by Gupta (POPL 1992); definition 5
// of the paper: a set V dominates o iff (1) every path from the root to o
// meets V, and (2) every w ∈ V lies on at least one root→o path that avoids
// the rest of V. Dubrova et al. (ISCAS 2004) showed k-vertex dominators can
// be enumerated in O(n^k): fix a seed set of k−1 vertices, delete it (with
// everything it dominates) from the graph, and read the single-vertex
// dominators of o off a dominator solve on the reduced graph (§5.2).
//
// Enumerate derives each dominator exactly once — from its own largest
// member as the completion of the remaining seeds — so it needs no dedup
// table.
//
// The Enumerator wraps a reusable dominator solver (package domtree) over
// the augmented graph of one DFG. Package enum drives the same machinery
// incrementally with the §5.3 prunings; the full enumeration here is the
// reference implementation used by EnumerateBasic, by tests and by
// standalone dominator queries.
package multidom

import (
	"sort"

	"polyise/internal/bitset"
	"polyise/internal/dfg"
	"polyise/internal/domtree"
)

// Enumerator answers generalized-dominator queries for one frozen graph.
// Not safe for concurrent use.
//
// All query entry points run allocation-free in steady state: the solver
// reuses its arrays across reduced-graph runs, and the traversal/check
// scratch below is owned by the Enumerator instead of being allocated per
// call (the AllocsPerRun regression test pins this).
type Enumerator struct {
	g      *dfg.Graph
	solver *domtree.Solver

	// scratch
	seeds    *bitset.Set // current seed set during Enumerate
	visited  *bitset.Set // reachesAvoiding BFS marks, the virtual source included
	queue    []int32     // reachesAvoiding BFS worklist
	checkSet *bitset.Set // Check's member set
	doms     []int       // ReducedDominators result buffer
	cand     []int       // candidate member list buffer
}

// New creates an Enumerator for g (which must be frozen).
func New(g *dfg.Graph) *Enumerator {
	n := g.N()
	return &Enumerator{
		g:        g,
		solver:   domtree.NewSolver(g),
		seeds:    bitset.New(n),
		visited:  bitset.New(n + 1),
		checkSet: bitset.New(n),
	}
}

// Graph returns the underlying DFG.
func (e *Enumerator) Graph() *dfg.Graph { return e.g }

// reachesAvoiding reports whether `to` is reachable from `from` in the
// augmented graph when every vertex in avoid (except `from` itself) is
// blocked. from may be the virtual source g.N(), whose successors are
// g.Entries(); `to` is a user vertex, so the virtual sink is never needed.
func (e *Enumerator) reachesAvoiding(from, to int, avoid *bitset.Set) bool {
	if from == to {
		return true
	}
	e.visited.Clear()
	e.queue = e.queue[:0]
	e.visited.Add(from)
	e.queue = append(e.queue, int32(from))
	for len(e.queue) > 0 {
		v := int(e.queue[len(e.queue)-1])
		e.queue = e.queue[:len(e.queue)-1]
		succs := e.g.Entries()
		if v < e.g.N() {
			succs = e.g.Succs(v)
		}
		for _, s := range succs {
			if s == to {
				return true
			}
			if e.visited.Has(s) || (avoid != nil && avoid.Has(s)) {
				continue
			}
			e.visited.Add(s)
			e.queue = append(e.queue, int32(s))
		}
	}
	return false
}

// Separates reports whether blocking V disconnects the virtual source from
// o — condition 1 of definition 5.
func (e *Enumerator) Separates(V *bitset.Set, o int) bool {
	if V.Has(o) {
		// A set containing o itself trivially "separates", but such sets are
		// not interesting dominators; treat per condition 1 literally.
		return true
	}
	return !e.reachesAvoiding(e.g.N(), o, V)
}

// Check reports whether V is a generalized dominator of o per definition 5:
// it must separate the root from o and every member must have a private
// root→o path avoiding the other members.
func (e *Enumerator) Check(V []int, o int) bool {
	if len(V) == 0 {
		return false
	}
	vs := e.checkSet
	vs.Clear()
	for _, w := range V {
		if w == o || w < 0 || w >= e.g.N() {
			return false
		}
		vs.Add(w)
	}
	if vs.Count() != len(V) {
		return false // duplicates
	}
	if !e.Separates(vs, o) {
		return false
	}
	for _, w := range V {
		vs.Remove(w)
		// Private path: source→w avoiding V\{w}, then w→o avoiding V\{w}.
		ok := e.reachesAvoiding(e.g.N(), w, vs) && e.reachesAvoiding(w, o, vs)
		vs.Add(w)
		if !ok {
			return false
		}
	}
	return true
}

// ReducedDominators folds the dominator tree with the given seed vertices
// blocked and appends to out every vertex u (u ≠ o, u ≠ source) that
// single-dominates o in the reduced graph: each seeds ∪ {u} is a candidate
// generalized dominator of o. If o is unreachable in the reduced graph, it
// returns (out, false): the seeds already separate o.
func (e *Enumerator) ReducedDominators(seeds *bitset.Set, o int, out []int) ([]int, bool) {
	e.solver.Dominators(seeds)
	if !e.solver.Reachable(o) {
		return out, false
	}
	for u := e.solver.IDom(o); u != -1 && u != e.solver.Source(); u = e.solver.IDom(u) {
		out = append(out, u)
	}
	return out, true
}

// Enumerate returns every generalized dominator of o with at most maxSize
// members, each sorted ascending, in deterministic order (lexicographic on
// the sorted member lists). Candidates are generated with the Dubrova
// seed-set method and verified with Check, so redundant separator supersets
// are filtered out.
//
// Each candidate is derived exactly once: seeds are pushed in ascending id
// order, and a completion u is accepted only when it exceeds every seed, so
// a dominator D can only arise from seeds D∖{max D} and completion max D.
// That derivation always exists. By definition 5's condition 2, max D has
// a private root→o path avoiding the rest of D, so o stays reachable on
// every prefix of the ascending seed walk; once D∖{max D} is blocked, every
// remaining root→o path meets max D, so max D dominates o. No dedup table
// is needed, and Check runs at most once per candidate.
func (e *Enumerator) Enumerate(o, maxSize int) [][]int {
	if maxSize <= 0 {
		return nil
	}
	// Candidate members are the ancestors of o in the augmented graph:
	// every user-graph ancestor (forbidden vertices included — they may feed
	// a cut) but never the virtual source/sink or o itself.
	anc := e.g.ReachTo(o).Members()

	seeds := e.seeds
	seeds.Clear()
	var out [][]int
	var cur []int

	var visit func(startIdx int)
	visit = func(startIdx int) {
		var reachable bool
		// e.doms is consumed before the recursion below reuses its backing.
		e.doms, reachable = e.ReducedDominators(seeds, o, e.doms[:0])
		if !reachable {
			// Seeds already separate o; no extension can give every member a
			// private path, so this branch is done.
			return
		}
		for _, u := range e.doms {
			if len(cur) > 0 && u <= cur[len(cur)-1] {
				continue // derived from its own largest member instead
			}
			cand := append(e.cand[:0], cur...)
			cand = append(cand, u)
			e.cand = cand
			if e.Check(cand, o) {
				out = append(out, append([]int(nil), cand...))
			}
		}
		if len(cur) >= maxSize-1 {
			return
		}
		for idx := startIdx; idx < len(anc); idx++ {
			a := anc[idx]
			seeds.Add(a)
			cur = append(cur, a)
			visit(idx + 1)
			cur = cur[:len(cur)-1]
			seeds.Remove(a)
		}
	}
	visit(0)

	sort.Slice(out, func(i, j int) bool { return lessSets(out[i], out[j]) })
	return out
}

// lessSets orders sorted vertex sets lexicographically by their members.
func lessSets(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
