package dfg

import (
	"math/bits"

	"polyise/internal/bitset"
)

// This file implements the word-parallel traversal engine the enumeration
// hot path runs on. The scalar traversals of cut.go walk edges one at a
// time, paying a branchy membership test per edge; the kernels here advance
// a whole frontier per step instead, OR-ing precomputed 64-bit adjacency
// rows (Graph.predBits/succBits, built by Freeze) and masking the result
// against an "allowed" set, so each step costs a handful of word operations
// per frontier vertex regardless of how many individual edges it covers.
// This is the §5.4 discipline — set operations on flat bit matrices —
// applied to the traversals themselves, not just the reachability closure.
//
// The scalar implementations in cut.go are retained as the reference
// semantics; property tests check every kernel against them on randomized
// graphs, seeds and avoid-sets.

// Traverser owns the scratch state of the word-parallel kernels for one
// graph. It is cheap to create, allocation-free in steady state, and NOT
// safe for concurrent use — each enumeration worker and validator owns its
// own (the clone-per-shard discipline of the parallel enumeration).
type Traverser struct {
	g        *Graph
	frontier *bitset.Set
	next     *bitset.Set
	allowed  *bitset.Set
}

// NewTraverser returns a Traverser over g. The graph must be frozen.
func (g *Graph) NewTraverser() *Traverser {
	if !g.frozen {
		panic(ErrNotFrozen)
	}
	n := g.N()
	return &Traverser{
		g:        g,
		frontier: bitset.New(n),
		next:     bitset.New(n),
		allowed:  bitset.New(n),
	}
}

// closure grows dst to its transitive closure under the given adjacency
// matrix, restricted to allowed. dst arrives pre-seeded; seeds are kept
// even when outside allowed, but expansion never leaves it.
// Frontier-at-a-time: each round ORs the adjacency rows of the current
// frontier and masks the union in whole words.
//
// Graphs of at most 256 vertices (stride ≤ 4) dispatch to specializations
// that keep the whole frontier, accumulator and visited set in registers;
// adjacency rows never contain bits ≥ N, so no capacity masking is needed.
func (t *Traverser) closure(dst *bitset.Set, rowBits []uint64, allowed *bitset.Set) {
	switch t.g.stride {
	case 1:
		closureW1(dst, rowBits, allowed)
		return
	case 2:
		closureW2(dst, rowBits, allowed)
		return
	case 3:
		closureW3(dst, rowBits, allowed)
		return
	case 4:
		closureW4(dst, rowBits, allowed)
		return
	}
	t.closureGeneric(dst, rowBits, allowed)
}

func closureW1(dst *bitset.Set, rows []uint64, allowed *bitset.Set) {
	aw := allowed.Words()[0]
	dw := dst.Words()
	d := dw[0]
	cur := d
	for cur != 0 {
		var n uint64
		for w := cur; w != 0; w &= w - 1 {
			n |= rows[bits.TrailingZeros64(w)]
		}
		n = n & aw &^ d
		d |= n
		cur = n
	}
	dw[0] = d
}

func closureW2(dst *bitset.Set, rows []uint64, allowed *bitset.Set) {
	aw := allowed.Words()
	a0, a1 := aw[0], aw[1]
	dw := dst.Words()
	d0, d1 := dw[0], dw[1]
	f0, f1 := d0, d1
	for {
		var n0, n1 uint64
		for w := f0; w != 0; w &= w - 1 {
			v := bits.TrailingZeros64(w)
			n0 |= rows[2*v]
			n1 |= rows[2*v+1]
		}
		for w := f1; w != 0; w &= w - 1 {
			v := 64 + bits.TrailingZeros64(w)
			n0 |= rows[2*v]
			n1 |= rows[2*v+1]
		}
		n0 = n0 & a0 &^ d0
		n1 = n1 & a1 &^ d1
		if n0|n1 == 0 {
			break
		}
		d0 |= n0
		d1 |= n1
		f0, f1 = n0, n1
	}
	dw[0], dw[1] = d0, d1
}

func closureW3(dst *bitset.Set, rows []uint64, allowed *bitset.Set) {
	aw := allowed.Words()
	a0, a1, a2 := aw[0], aw[1], aw[2]
	dw := dst.Words()
	d0, d1, d2 := dw[0], dw[1], dw[2]
	f0, f1, f2 := d0, d1, d2
	for {
		var n0, n1, n2 uint64
		for wi, f := range [3]uint64{f0, f1, f2} {
			base := wi << 6
			for w := f; w != 0; w &= w - 1 {
				v := base + bits.TrailingZeros64(w)
				n0 |= rows[3*v]
				n1 |= rows[3*v+1]
				n2 |= rows[3*v+2]
			}
		}
		n0 = n0 & a0 &^ d0
		n1 = n1 & a1 &^ d1
		n2 = n2 & a2 &^ d2
		if n0|n1|n2 == 0 {
			break
		}
		d0 |= n0
		d1 |= n1
		d2 |= n2
		f0, f1, f2 = n0, n1, n2
	}
	dw[0], dw[1], dw[2] = d0, d1, d2
}

func closureW4(dst *bitset.Set, rows []uint64, allowed *bitset.Set) {
	aw := allowed.Words()
	a0, a1, a2, a3 := aw[0], aw[1], aw[2], aw[3]
	dw := dst.Words()
	d0, d1, d2, d3 := dw[0], dw[1], dw[2], dw[3]
	f0, f1, f2, f3 := d0, d1, d2, d3
	for {
		var n0, n1, n2, n3 uint64
		for wi, f := range [4]uint64{f0, f1, f2, f3} {
			base := wi << 6
			for w := f; w != 0; w &= w - 1 {
				v := base + bits.TrailingZeros64(w)
				r := rows[4*v : 4*v+4 : 4*v+4]
				n0 |= r[0]
				n1 |= r[1]
				n2 |= r[2]
				n3 |= r[3]
			}
		}
		n0 = n0 & a0 &^ d0
		n1 = n1 & a1 &^ d1
		n2 = n2 & a2 &^ d2
		n3 = n3 & a3 &^ d3
		if n0|n1|n2|n3 == 0 {
			break
		}
		d0 |= n0
		d1 |= n1
		d2 |= n2
		d3 |= n3
		f0, f1, f2, f3 = n0, n1, n2, n3
	}
	dw[0], dw[1], dw[2], dw[3] = d0, d1, d2, d3
}

func (t *Traverser) closureGeneric(dst *bitset.Set, rowBits []uint64, allowed *bitset.Set) {
	stride := t.g.stride
	fr, nx := t.frontier, t.next
	fr.Copy(dst)
	dw, aw := dst.Words(), allowed.Words()
	for {
		nw := nx.Words()
		for i := range nw {
			nw[i] = 0
		}
		for wi, w := range fr.Words() {
			for w != 0 {
				v := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				row := rowBits[v*stride : (v+1)*stride]
				for i, r := range row {
					nw[i] |= r
				}
			}
		}
		any := uint64(0)
		for i := range nw {
			m := nw[i] & aw[i] &^ dw[i]
			nw[i] = m
			dw[i] |= m
			any |= m
		}
		if any == 0 {
			return
		}
		fr, nx = nx, fr
	}
}

// HighestMaskedBit returns the highest bit index set in row ∧ mask, or -1
// when the intersection is empty. Ids being the topological order (bit
// index ≡ topological position), applying it to an
// adjacency row masked by a region gives the highest-positioned neighbour
// inside the region — the load-bearing query of the running-max dominator
// sweeps in package enum (analyzePaths, the last-level table).
func HighestMaskedBit(row, mask []uint64) int {
	for i := len(row) - 1; i >= 0; i-- {
		if m := row[i] & mask[i]; m != 0 {
			return i<<6 + 63 - bits.LeadingZeros64(m)
		}
	}
	return -1
}

// prepAllowed loads t.allowed with within \ avoid (or U \ avoid when within
// is nil) and returns it.
func (t *Traverser) prepAllowed(avoid, within *bitset.Set) *bitset.Set {
	if within != nil {
		t.allowed.CopyAndNot(within, avoid)
	} else {
		t.allowed.ComplementOf(avoid)
	}
	return t.allowed
}

// ReachForwardAvoiding computes into dst every vertex reachable from the
// seed set along successor paths that avoid `avoid`, restricted to
// `within` when non-nil. The seeds come as a set's words — an entry set, an
// adjacency row — so the seed set is seeds ∧ (within \ avoid), one pass
// over the words: seeds outside within \ avoid are dropped, the rest are
// included. Word-parallel equivalent of the forward scalar BFS in cut.go's
// rootReachesAvoiding / privatePathExists.
func (t *Traverser) ReachForwardAvoiding(dst *bitset.Set, seeds []uint64, avoid, within *bitset.Set) *bitset.Set {
	allowed := t.prepAllowed(avoid, within)
	dw, aw := dst.Words(), allowed.Words()
	for i := range dw {
		dw[i] = seeds[i] & aw[i]
	}
	t.closure(dst, t.g.succBits, allowed)
	return dst
}

// ReachBackwardAvoiding is ReachForwardAvoiding over predecessor edges,
// seeded from a vertex list: dst becomes every vertex that reaches a seed
// along a path avoiding `avoid`, restricted to `within` when non-nil
// (seeds outside within \ avoid are dropped).
func (t *Traverser) ReachBackwardAvoiding(dst *bitset.Set, seeds []int, avoid, within *bitset.Set) *bitset.Set {
	allowed := t.prepAllowed(avoid, within)
	dst.Clear()
	for _, s := range seeds {
		if allowed.Has(s) {
			dst.Add(s)
		}
	}
	t.closure(dst, t.g.predBits, allowed)
	return dst
}

// CutNodesInto is the word-parallel equivalent of Graph.CutNodesInto: the
// vertex set of the cut identified by the chosen outputs and the input set
// `avoid` (theorems 2 and 3), computed as one backward frontier traversal.
func (t *Traverser) CutNodesInto(dst *bitset.Set, outs []int, avoid *bitset.Set) *bitset.Set {
	return t.ReachBackwardAvoiding(dst, outs, avoid, nil)
}
