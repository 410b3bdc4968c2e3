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
// o unreachable. Only the rest are served, by chainFor, from a table built
// on the first such child: build ranks H up to that child's seed, folds
// its dominator tree and derives one L value per rank. A parent whose
// children are all dominated builds nothing.
//
// arm hands the table the parent's finished analysis when the seed loop
// starts: its on-path set, reaches-o set and chain, all held in the
// parent's depth buffers, which no child touches — a served child runs no
// analysis, and its completions' cut checks recurse deeper.
//
// The table is worker-owned, and one suffices: every descendant of a
// two-inputs-left seed loop has at most one input left, so two such loops
// are never live at once. The arrays are sized once per worker, so the
// steady state is allocation-free.
//
// Vertices are handled by rank, their position in H in ascending id order.
// Ids are topological, so a tree parent always has the smaller rank.
type lastLevel struct {
	g      *dfg.Graph
	onPath *bitset.Set // H and o: the armed parent's surviving-path vertices
	back   *bitset.Set // the armed parent's vertices reaching o
	chain  []int       // D: the armed parent's dominator chain, ascending
	next   int         // chain[:next]: the members not above the last seed asked about
	top    int         // highest entry of H: the virtual source's farthest edge
	built  bool        // the tree and L values of the armed parent are derived

	rank []int32 // vertex → rank

	// Per rank.
	verts []int32 // rank → vertex
	idom  []int32 // immediate dominator; -1 is the virtual source
	reach []int32 // highest successor inside H, as a vertex
	lca   []int32 // L: LCA of the tails of the H-edges jumping over the vertex, from top's rank on; -1 if none
	open  []int32 // scratch: the tails whose edges still jump ahead; at most one per rank
}

// noVertex is predLCA's verdict for a vertex with no on-path predecessor.
const noVertex = -2

// arm makes an analysis of g the live parent once its seed loop starts:
// onPath, back and chain are its buffers, which must stay intact until the
// loop ends, and top is the highest entry of onPath.
func (t *lastLevel) arm(g *dfg.Graph, onPath, back *bitset.Set, chain []int, top int) {
	t.g, t.onPath, t.back, t.chain, t.top = g, onPath, back, chain, top
	t.next, t.built = len(chain), false
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

// predLCA folds the dominator-tree LCA over the predecessors of a vertex
// whose row ∧ on-path words are given, in ascending order; it stops early
// at the virtual source and returns noVertex when no predecessor is
// on-path.
func (t *lastLevel) predLCA(row, onPath []uint64) int32 {
	d := int32(noVertex)
	for i, r := range row {
		r &= onPath[i]
		for r != 0 {
			p := t.rank[i<<6+bits.TrailingZeros64(r)]
			r &= r - 1
			if d == noVertex {
				d = p
			} else if d = t.ancestor(d, p); d < 0 {
				return d
			}
		}
	}
	return d
}

// ancestor returns the lowest common ancestor of ranks a and b in the
// dominator tree: a tree parent always has the smaller rank, so stepping
// the larger of the two walks both up to their meeting point. The virtual
// source (-1) is below every rank and never stepped.
func (t *lastLevel) ancestor(a, b int32) int32 {
	for a != b {
		if a > b {
			a = t.idom[a]
		} else {
			b = t.idom[b]
		}
	}
	return a
}

// build ranks the vertices of H up to s, folds their forward dominator
// tree and derives L per rank. The children come in descending seed order,
// so the first served one, s, is the highest any of them reads.
func (t *lastLevel) build(s int) {
	t.built = true
	g := t.g
	if n := g.N(); len(t.rank) < n {
		buf := make([]int32, n+5*(n+1))
		t.rank, buf = buf[:n], buf[n:]
		for _, p := range []*[]int32{&t.verts, &t.idom, &t.reach, &t.lca, &t.open} {
			*p, buf = buf[:n+1], buf[n+1:]
		}
	}

	// One ascending pass over H: every predecessor is ranked before its
	// successors, so a vertex's immediate dominator is the LCA of its
	// on-path predecessors, or the virtual source for an entry.
	bw, opw, ew := t.back.Words(), t.onPath.Words(), g.EntrySet().Words()
	h := int32(0)
sweep:
	for wi, w := range opw {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			v := wi<<6 + b
			if v > s {
				break sweep
			}
			idom := int32(-1)
			if ew[wi]&(1<<uint(b)) == 0 {
				idom = t.predLCA(g.PredRow(v), opw)
			}
			reach := dfg.HighestMaskedBit(g.SuccRow(v), bw)
			t.rank[v] = h
			t.verts[h], t.idom[h], t.reach[h] = int32(v), idom, int32(reach)
			h++
		}
	}

	// Served seeds lie at or above the highest entry (the seed loop's
	// cutoff), so only the ranks from that entry's on need an L; the ranks
	// below it only supply the tails that jump over it. Fold the tails
	// still jumping ahead, dropping each once passed. An edge (a, b) jumps
	// over the vertex of rank r when b is above it; ranks follow ids.
	low := t.rank[t.top]
	open := t.open[:0]
	for a := int32(0); a < low; a++ {
		if t.reach[a] > int32(t.top) {
			open = append(open, a)
		}
	}
	for r := low; r < h; r++ {
		v := t.verts[r]
		l, keep := int32(noVertex), 0
		for _, a := range open {
			if t.reach[a] > v {
				open[keep] = a
				keep++
				if l == noVertex {
					l = a
				} else {
					l = t.ancestor(l, a)
				}
			}
		}
		t.lca[r] = max(l, -1) // no tail at all: r is a chain vertex
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
// Precondition: s ≥ top. build ranks H only up to the first served seed
// and derives L only from top's rank on, so a seed below top would read
// ranks left over from an earlier table. The seed loop's cutoff
// (docs/ALGORITHM.md §5, rule C) guarantees it; a seed below top panics
// here, and the run ends with a contained *PanicError instead of a wrong
// chain.
func (t *lastLevel) chainFor(s int, dst []int) []int {
	if s < t.top {
		panic(fmt.Sprintf("enum: last-level chain asked for seed %d, below the table's top %d", s, t.top))
	}
	if !t.built {
		t.build(s)
	}
	k := t.next // dominated left the cursor at the members below s
	dst = append(dst, t.chain[:k]...)
	mark, floor := len(dst), int32(-1) // floor: rank of the chain vertex below s
	if k > 0 {
		floor = t.rank[t.chain[k-1]]
	}
	for x := t.lca[t.rank[s]]; x > floor; x = t.idom[x] {
		dst = append(dst, int(t.verts[x]))
	}
	for i, j := mark, len(dst)-1; i < j; i, j = i+1, j-1 {
		dst[i], dst[j] = dst[j], dst[i]
	}
	return dst
}
