package enum

import (
	"math/bits"
)

// lastLevel batches the dominator analyses of the last input level. A seed
// level with two inputs left pushes one seed s at a time and recurses into a
// child with one input left, whose only uses of its analysis are the
// reachability verdict and the chain of reduced-graph dominators of o once
// s is blocked as well (pickInputs shows why its seed-alive check cannot
// fail). Both derive from the parent's surviving-path region H and its
// chain D: o stays reachable exactly when s is not in D, and the
// dominators of o in H \ {s} are D \ {s} plus the partners of s — the
// vertices v with {s, v} a separating pair of o in H. The separation rule
// (docs/ALGORITHM.md §5, "Batched last input level") reads every pair off
// H's forward dominator tree, so one table per parent replaces a frontier
// derivation and a region sweep per child, and a child's lookup costs the
// size of its answer.
//
// The parent's own sweep (analyzePaths) records the tree as it walks H;
// arm hands the table the finished chain when the seed loop starts, and
// the pairs are derived on the first child that needs them, so a parent
// whose children all die before their analysis pays for no more than the
// tree.
//
// The table is worker-owned, and one suffices: every descendant of a
// two-inputs-left seed loop has at most one input left, so two such loops
// are never live at once. The arrays are sized once per worker and the
// lists only grow, so the steady state is allocation-free.
//
// Vertices are handled by rank, their position in H in ascending id order.
// Ids are topological, so a tree parent always has the smaller rank.
type lastLevel struct {
	chain []int // D: the armed parent's dominator chain, ascending
	built bool  // the pairs of the armed parent are derived
	top   int   // highest entry of H: the virtual source's farthest edge
	h     int32 // number of ranks: the vertices of H below o

	rank []int32 // vertex → rank

	// Per rank.
	verts []int32 // rank → vertex
	idom  []int32 // immediate dominator; -1 is the virtual source
	reach []int32 // highest successor inside H, as a vertex
	seg   []int32 // number of chain vertices below the vertex
	lca   []int32 // L: LCA of the tails of the H-edges jumping over the vertex; -1 if none or the virtual source
	upper []int32 // head of the vertex's upper-partner list in pairs, -1 if empty

	// pairs holds the upper-partner lists: entry i is a partner rank and
	// the index of the list's next entry (-1 ends it).
	pairs [][2]int32
	open  []int32 // scratch: the tails whose edges still jump ahead; at most one per rank
}

// noVertex is predLCA's verdict for a vertex with no on-path predecessor.
const noVertex = -2

// begin readies the table for a parent sweep over a graph of n vertices
// whose chain buffer starts empty; top is the highest entry of the region.
func (t *lastLevel) begin(n, top int) {
	if len(t.rank) < n {
		buf := make([]int32, n+7*(n+1))
		t.rank, buf = buf[:n], buf[n:]
		for _, p := range []*[]int32{&t.verts, &t.idom, &t.reach, &t.seg, &t.lca, &t.upper, &t.open} {
			*p, buf = buf[:n+1], buf[n+1:]
		}
		t.pairs = make([][2]int32, 0, n)
	}
	t.top, t.h = top, 0
}

// add records the sweep's next on-path vertex v below o: its immediate
// dominator's rank, its highest successor inside H and the number of chain
// vertices below it.
func (t *lastLevel) add(v int, idom int32, reach, below int) {
	h := t.h
	t.rank[v] = h
	t.verts[h], t.idom[h], t.reach[h], t.seg[h] = int32(v), idom, int32(reach), int32(below)
	t.h++
}

// arm makes the recorded sweep the live parent once its seed loop starts;
// chain is the sweep's dominator chain, for the output the sweep ended at.
func (t *lastLevel) arm(chain []int) {
	t.chain, t.built = chain, false
}

// predLCA folds the dominator-tree LCA over the predecessors of a vertex
// whose row ∧ on-path words are given, settled in ascending order; it
// stops early at the virtual source and returns noVertex when no
// predecessor is on-path.
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

// build derives L per rank and the upper-partner lists.
func (t *lastLevel) build() {
	t.built = true
	h := t.h

	// The virtual source jumps over every vertex below the highest entry,
	// so only the ranks from that entry's on have an L: fold the tails
	// still jumping ahead, dropping each once passed. An edge (a, b) jumps
	// over the vertex of rank r when b is above it; ranks follow ids.
	low := t.rank[t.top]
	open := t.open[:0]
	for a := int32(0); a < low; a++ {
		t.lca[a], t.upper[a] = -1, -1
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
		t.lca[r], t.upper[r] = max(l, -1), -1 // no tail at all: r is a chain vertex
		open = append(open[:keep], r)
	}
	t.open = open

	// The lower partners of r are the tree path from L(r) up to the chain
	// vertex below r; r is an upper partner of each of them. Descending r,
	// prepended, keeps every list ascending.
	t.pairs = t.pairs[:0]
	for r := h - 1; r >= low; r-- {
		for x, floor := t.lca[r], t.floor(r); x > floor; x = t.idom[x] {
			t.pairs = append(t.pairs, [2]int32{r, t.upper[x]})
			t.upper[x] = int32(len(t.pairs) - 1)
		}
	}
}

// onChain reports whether the seed s is on the armed chain D, that is,
// whether blocking s leaves o unreachable.
func (t *lastLevel) onChain(s int) bool {
	k := t.seg[t.rank[s]]
	return int(k) < len(t.chain) && t.chain[k] == s
}

// floor returns the rank of the chain vertex right below rank r, -1 for
// none.
func (t *lastLevel) floor(r int32) int32 {
	if k := t.seg[r]; k > 0 {
		return t.rank[t.chain[k-1]]
	}
	return -1
}

// chainFor appends to dst, in ascending order, the reduced-graph dominator
// chain of o once seed s (an H vertex outside D, below o) is blocked too:
// D \ {s} ∪ partners(s). By the separation rule, v < s is a partner exactly
// when v is an ancestor-or-self of L(s), and v > s exactly when s is an
// ancestor-or-self of L(v). Partners lie strictly between the chain
// vertices that bracket s — a chain vertex between the two would make the
// lower one a dominator — so the lower partners are the tree path from
// L(s) up to the chain vertex below s, and the upper partners are s's list.
func (t *lastLevel) chainFor(s int, dst []int) []int {
	if !t.built {
		t.build()
	}
	r := t.rank[s]
	k := int(t.seg[r])
	dst = append(dst, t.chain[:k]...)
	mark := len(dst)
	for x, floor := t.lca[r], t.floor(r); x > floor; x = t.idom[x] {
		dst = append(dst, int(t.verts[x]))
	}
	for i, j := mark, len(dst)-1; i < j; i, j = i+1, j-1 {
		dst[i], dst[j] = dst[j], dst[i]
	}
	for i := t.upper[r]; i >= 0; i = t.pairs[i][1] {
		dst = append(dst, int(t.verts[t.pairs[i][0]]))
	}
	return append(dst, t.chain[k:]...)
}
