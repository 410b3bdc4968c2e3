package enum

import (
	"fmt"
	"math/bits"

	"polyise/internal/bitset"
	"polyise/internal/dfg"
)

// lastLevel resolves the last input level inside its parent. A seed level
// with two inputs left pushes one seed s at a time and would recurse into a
// child with one input left, whose only uses of its analysis are the
// reachability verdict and the chain of reduced-graph dominators of o once
// s is blocked as well: with one input left it runs no seed loop and no
// flow bound. Both derive from the parent's surviving-path region H and its
// chain D: o stays reachable exactly when s is not in D, and the
// dominators of o in H \ {s} are D \ {s} plus the partners of s — the
// vertices v with {s, v} a separating pair of o in H. The child reads
// only the dominators below s, and the separation rule (docs/ALGORITHM.md
// §5, "Batched last input level") reads their partners off H's forward
// dominator tree as one tree path.
//
// The seed loop never reaches a seed below the highest entry of H (the
// cutoff, docs/ALGORITHM.md §5): nothing below such a seed can complete
// the phase. Of the children it does reach, those whose seed is on D are
// decided by dominated in O(1), before any push: blocking the seed leaves
// o unreachable. Only the rest are served, by chainFor, which the parent
// calls itself: a child whose chain holds no admissible completion is
// decided there too, and the others read the chain their parent left
// (incEnum.decideLastLevel).
//
// The tree comes from the parent's own analysis: at a level that will arm
// a table, analyzePaths ranks H and records each vertex's immediate
// dominator and highest successor in its ascending sweep (sweep). What
// is left is one L value per rank, folded by chainFor on the first served
// child up to that child's seed, so a parent whose children are all
// dominated folds nothing. A table armed from the cone memo (coneMemo)
// arrives with its L values folded up to o−1.
//
// arm hands the table the parent's finished analysis when the seed loop
// starts: its on-path set and chain, held in the parent's depth buffers,
// and its tree, in the worker's scratch tree or in a memo entry. None of
// them is touched while the loop runs: a served child runs no analysis,
// and its completions' cut checks recurse with no input budget, where no
// analysis runs either.
//
// The scratch tree is worker-owned, and one suffices: every descendant of
// a two-inputs-left level has at most one input left and never folds into
// it, so two such tables are never live at once. The arrays are sized once
// per worker, so the steady state is allocation-free.
//
// Vertices are handled by rank, their position in H in ascending id order.
// Ids are topological, so a tree parent always has the smaller rank, and a
// vertex's rank is the number of H members below it (rankIn).
type lastLevel struct {
	onPath *bitset.Set // H: the armed parent's surviving-path vertices, below its last input
	chain  []int       // D: the armed parent's dominator chain, ascending
	next   int         // chain[:next]: the members not above the last seed asked about
	top    int         // highest entry of H: the virtual source's farthest edge
	tree   []treeNode  // the armed parent's tree, by rank
	built  bool        // the armed tree's L values cover every seed a child can ask about
	served bool        // a child of the armed loop was served (Stats.LastLevelTables)
	swept  bool        // the armed tree was folded by the parent's own sweep (work.ServedFolds)

	scratch []treeNode // what analyses at two inputs left fold into, sized n
	rank    []int32    // vertex → rank, valid only within one sweep
	open    []int32    // foldL's scratch: the tails whose edges still jump ahead
}

// treeNode is one rank of H's forward dominator tree below o.
type treeNode struct {
	vert  int32 // the vertex of this rank
	idom  int32 // immediate dominator; -1 is the virtual source
	reach int32 // highest successor inside the parent's reaches-o set, as a vertex
	lca   int32 // L: LCA of the tails of the H-edges jumping over the vertex, from top's rank on; -1 if none
}

// noVertex is predLCA's verdict for a vertex with no on-path predecessor.
const noVertex = -2

// scratchTree returns the worker's scratch tree, sized for g on first use.
func (t *lastLevel) scratchTree(g *dfg.Graph) []treeNode {
	if len(t.scratch) < g.N() {
		t.scratch = make([]treeNode, g.N())
	}
	return t.scratch
}

// arm makes an analysis the live parent once its seed loop starts: onPath
// and chain are its buffers, which must stay intact until the loop ends,
// top is the highest entry of onPath, and tree is the parent's tree, with
// its L values folded up to o−1 when built is set.
func (t *lastLevel) arm(onPath *bitset.Set, chain []int, top int, tree []treeNode, built bool) {
	t.onPath, t.chain, t.top, t.tree = onPath, chain, top, tree
	t.next, t.built, t.served, t.swept = len(chain), built, false, !built
}

// dominated reports whether seed s (an H vertex from top up to o) is on D,
// so that blocking it leaves o unreachable. Seeds must come in descending
// order after arm — the seed loop's order — so the cursor over D only
// moves down; chainFor reads where it stopped.
func (t *lastLevel) dominated(s int) bool {
	for t.next > 0 && t.chain[t.next-1] > s {
		t.next--
	}
	return t.next > 0 && t.chain[t.next-1] == s
}

// sweep is analyzePaths' ascending pass for a level that may arm a table:
// besides onPath, the chain and the reachability verdict, it ranks H below
// lastIn into dst, with each vertex's immediate dominator and highest
// successor inside back; like analyzePaths it stops at lastIn, and no
// child reads a rank above its seed. Every predecessor is ranked before
// its successors, so a vertex's immediate dominator is the LCA of its
// on-path predecessors (predLCA), or the virtual source for an entry; and
// a vertex is on-path exactly when it is an entry or that LCA exists, so
// predLCA also decides what analyzePaths asks of PredsIntersect. A
// vertex's highest successor is the row scan analyzePaths runs for its
// running maximum, here run on every vertex. dst must hold a rank per
// on-path vertex below lastIn.
func (t *lastLevel) sweep(g *dfg.Graph, o, lastIn int, back, onPath *bitset.Set, chain []int, dst []treeNode) (bool, []int) {
	if len(t.rank) < g.N() {
		t.rank = make([]int32, g.N())
	}
	onPath.CopyIntersect(g.EntrySet(), back)
	bw := back.Words()
	opw := onPath.Words()
	runMax := dfg.HighestMaskedBit(g.EntrySet().Words(), bw)
	h := int32(0)
	for wi, w := range bw {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			v := wi<<6 + b
			w &= w - 1
			if v > lastIn {
				return runMax > lastIn, chain
			}
			idom := int32(-1) // an entry: the virtual source
			if opw[wi]&(1<<uint(b)) == 0 {
				if idom = t.predLCA(g.PredRow(v), opw, dst); idom == noVertex {
					continue // on no surviving source path
				}
				opw[wi] |= 1 << uint(b)
			}
			if v == o {
				return true, chain
			}
			if runMax <= v {
				chain = append(chain, v)
			}
			reach := dfg.HighestMaskedBit(g.SuccRow(v), bw)
			runMax = max(runMax, reach)
			t.rank[v] = h
			dst[h] = treeNode{vert: int32(v), idom: idom, reach: int32(reach)}
			h++
		}
	}
	return runMax > lastIn, chain
}

// predLCA folds the dominator-tree LCA over the predecessors of a vertex
// whose row ∧ on-path words are given, in ascending order; it stops early
// at the virtual source and returns noVertex when no predecessor is
// on-path. The predecessors' ranks come from the running sweep.
func (t *lastLevel) predLCA(row, onPath []uint64, tree []treeNode) int32 {
	d := int32(noVertex)
	for i, r := range row {
		r &= onPath[i]
		for r != 0 {
			p := t.rank[i<<6+bits.TrailingZeros64(r)]
			r &= r - 1
			if d == noVertex {
				d = p
			} else if d = ancestor(tree, d, p); d < 0 {
				return d
			}
		}
	}
	return d
}

// ancestor returns the lowest common ancestor of ranks a and b in the
// dominator tree: a tree parent always has the smaller rank, so
// stepping the larger of the two walks both up to their meeting point. The
// virtual source (-1) is below every rank and never stepped.
func ancestor(tree []treeNode, a, b int32) int32 {
	for a != b {
		if a > b {
			a = tree[a].idom
		} else {
			b = tree[b].idom
		}
	}
	return a
}

// rankIn returns v's rank in the on-path set whose words are opw: the
// number of its members below v.
func rankIn(opw []uint64, v int) int32 {
	n := bits.OnesCount64(opw[v>>6] & (1<<uint(v&63) - 1))
	for _, w := range opw[:v>>6] {
		n += bits.OnesCount64(w)
	}
	return int32(n)
}

// foldL derives L for the ranks of tree from top's (low) up to h−1. Served
// seeds lie at or above the highest entry (the seed loop's cutoff), so only
// those ranks need an L; the ranks below low only supply the tails that
// jump over top. Fold the tails still jumping ahead, dropping each once
// passed. An edge (a, b) jumps over the vertex of rank r when b is above
// it; ranks follow ids.
func (t *lastLevel) foldL(tree []treeNode, top int, low, h int32) {
	open := t.open[:0]
	for a := int32(0); a < low; a++ {
		if tree[a].reach > int32(top) {
			open = append(open, a)
		}
	}
	for r := low; r < h; r++ {
		v := tree[r].vert
		l, keep := int32(noVertex), 0
		for _, a := range open {
			if tree[a].reach > v {
				open[keep] = a
				keep++
				if l == noVertex {
					l = a
				} else {
					l = ancestor(tree, l, a)
				}
			}
		}
		tree[r].lca = max(l, -1) // no tail at all: r is a chain vertex
		open = append(open[:keep], r)
	}
	t.open = open
}

// chainFor appends to dst, in ascending order, the reduced-graph
// dominators of o below s once seed s is blocked too; s must be the seed
// of the last dominated call, which reported false. They are the members of
// D below s and the lower partners of s. By the separation rule, v < s is
// a partner exactly when v is an ancestor-or-self of L(s). Partners lie
// strictly between the chain vertices that bracket s — a chain vertex
// between the two would make the lower one a dominator — so the lower
// partners are the tree path from L(s) up to the chain vertex below s.
// The child's completion loop stops at the first vertex above its last
// seed s, so the rest is never read.
//
// The first served child of a table whose L values are not yet folded
// folds them up to its seed s: children come in descending seed order, so
// no later one reads more.
//
// Precondition: s ≥ top. L is derived only from top's rank on, so a seed
// below top would read values left over from an earlier table. The seed
// loop's cutoff (docs/ALGORITHM.md §5, rule C) guarantees it; a seed below
// top panics here, and the run ends with a contained *PanicError instead
// of a wrong chain.
func (t *lastLevel) chainFor(s int, dst []int) []int {
	if s < t.top {
		panic(fmt.Sprintf("enum: last-level chain asked for seed %d, below the table's top %d", s, t.top))
	}
	opw := t.onPath.Words()
	r := rankIn(opw, s)
	if !t.built {
		t.built = true
		t.foldL(t.tree, t.top, rankIn(opw, t.top), r+1)
	}
	k := t.next // dominated left the cursor at the members below s
	dst = append(dst, t.chain[:k]...)
	mark, floor := len(dst), int32(-1) // floor: the chain vertex below s
	if k > 0 {
		floor = int32(t.chain[k-1])
	}
	for x := t.tree[r].lca; x >= 0 && t.tree[x].vert > floor; x = t.tree[x].idom {
		dst = append(dst, int(t.tree[x].vert))
	}
	for i, j := mark, len(dst)-1; i < j; i, j = i+1, j-1 {
		dst[i], dst[j] = dst[j], dst[i]
	}
	return dst
}

// coneMemo is a worker's memo of input-free phase starts. At a phase start
// of output o where no chosen input lies in o's ancestor cone, the reduced
// graph around o is the graph itself: back and onPath are ReachTo(o) ∪ {o}
// (every ancestor of a cone vertex is in the cone, and the cone's roots are
// entries, so every cone vertex is on a source path), and the dominators
// of o in it are its dominators in the whole graph. So the analysis, the
// chain, top and the last-level tree depend on o alone, and the first such
// phase start of o stores them; every later one reads them back.
//
// An entry's tree has one rank per cone vertex, with its L values folded up
// to o−1, so that a table armed from it serves any first seed and re-arming
// resets only the table's cursor. Entries are immutable once filled. Their
// chains and trees live in two slabs that only grow, so a worker's memo
// holds O(Σ|cone(o)|) values over the outputs it has met, and its steady
// state is allocation-free.
type coneMemo struct {
	ents   []coneEntry // by output; nil until the first fill
	chains []int       // slab: the entries' chains
	trees  []treeNode  // slab: the entries' trees
}

type coneEntry struct {
	filled bool
	reach  bool  // the verdict; always true, as every cone vertex is on-path
	top    int32 // highest entry of the cone ∪ {o}
	chain  int32 // offset of the chain in the chains slab
	nChain int32
	tree   int32 // offset of the tree in the trees slab
	h      int32 // ranks: |ReachTo(o)|
}

// chainOf and treeOf read an entry's chain and tree out of the slabs.
func (m *coneMemo) chainOf(c *coneEntry) []int {
	return m.chains[c.chain : c.chain+c.nChain]
}

func (m *coneMemo) treeOf(c *coneEntry) []treeNode {
	return m.trees[c.tree : c.tree+c.h]
}

// growSlab extends s by k values. When it must move, it at least doubles
// its capacity, to no less than minCap.
func growSlab[T any](s []T, k, minCap int) []T {
	if need := len(s) + k; need > cap(s) {
		t := make([]T, len(s), max(2*cap(s), need, minCap))
		copy(t, s)
		s = t
	}
	return s[:len(s)+k]
}
