package dfg

import (
	"math/bits"

	"polyise/internal/bitset"
)

// This file implements the delta-maintenance kernels of the incremental
// search-state engine. The enumeration of package enum maintains the cut
//
//	S = ⋃_j B(I, o_j)   (theorem 3: everything reaching a chosen output
//	                     along a path avoiding the chosen inputs)
//
// across search-tree pushes, and also the per-output analysis frontiers
// (the reaches-o set and the source→o on-path set) across seed pushes.
// Each kernel updates its set in place (or derives the child from the
// parent) and reports the exact delta, so the undo is a single
// word-parallel set operation on the journaled delta. Each has one path:
//
//   - GrowCut handles an output push (monotone: S only gains vertices). The
//     per-output backward cone B(∅, o) is memoized at Freeze time — it is
//     exactly reachTo(o) — so when no chosen input lies inside the cone
//     B(I, o) is that cone row. Otherwise it is the backward closure from
//     o through the cone minus the inputs. The caller keeps B(I, o) ∪ {o}
//     (package enum reads it as the output phase's first reaches-o
//     frontier) and S gains the part outside S.
//
//   - ShrinkCut handles an input push (non-monotone: the new input and
//     every vertex whose last surviving path ran through it leave S). The
//     new S is the backward closure from the chosen outputs avoiding the
//     inputs, confined to the old S, which contains it.
//
//   - ShrinkReachInto derives a child analysis frontier from its parent for
//     one newly blocked vertex w. Only ancestors of w can leave, so the
//     recomputation is confined to region = reachTo(w) ∩ src: one
//     descending pass keeps each region vertex with an edge into the
//     frontier decided so far (ids are a topological order, so every
//     successor is decided before its predecessors). It writes into a
//     separate per-depth buffer (the search keeps every ancestor level's
//     frontier alive, so no undo is needed). The source→o on-path set
//     needs no kernel of its own: package enum reads it off the shrunk
//     frontier in the same ascending pass that finds the reduced-graph
//     dominators (see analyzePaths there).
//
// The grow/shrink kernels return their delta disjoint from (resp. contained
// in) S so the caller's undo journal is exact: undo a GrowCut with
// S.Subtract(delta) and a ShrinkCut with S.Union(removed).

// GrowCut grows the incrementally maintained cut S for a newly chosen
// output o: S ← S ∪ {o} ∪ B(I, o), with I given as the inputs bitset. It
// writes B(I, o) ∪ {o} — every vertex reaching o along a path avoiding I —
// into back, a set the caller owns, and records the vertices actually
// added, delta = back \ S, so the caller can undo the push exactly with
// S.Subtract(delta).
//
// Preconditions: o ∉ S and o ∉ inputs (the enumeration's admissibility
// rules guarantee both). S must be the exactly maintained cut of the
// enclosing search: then delta is also exactly what a closure from o that
// stops at S would add. A vertex of back outside S has no path to o
// through an S-member u — u reaches an earlier output avoiding I, so the
// vertex would too, and would be in S — so its whole path to o lies in
// back \ S, where the stopped closure finds it.
func (t *Traverser) GrowCut(S, delta, back *bitset.Set, o int, inputs *bitset.Set) {
	g := t.g
	cone := g.closures().reachTo[o] // B(∅, o) \ {o}, memoized with the closures
	if inputs.Intersects(cone) {
		// Every vertex on a path from a cone member to o is itself a cone
		// member, so the closure never needs to leave the cone.
		t.allowed.CopyAndNot(cone, inputs)
		back.Clear()
		back.Add(o)
		t.closure(back, g.predBits, t.allowed)
	} else {
		// No input can sever any ancestor of o from o, so B(I, o) is the
		// whole cone.
		back.Copy(cone)
		back.Add(o)
	}
	delta.CopyAndNot(back, S)
	S.Union(delta)
}

// ShrinkCut shrinks the incrementally maintained cut S after one or more
// input pushes: S ← every member of S that still reaches a chosen output
// along a path avoiding the inputs, so the newly chosen inputs and every
// vertex whose last surviving path ran through them leave. The removed
// vertices are recorded in removed (a subset of the old S), so the caller
// can undo the pushes exactly with S.Union(removed).
//
// Preconditions: S is the exact cut of outs and the inputs before the
// pushes, and inputs already contains the new inputs (push them first,
// then shrink). The new S is then a subset of the old one, and so is every
// path it keeps (each vertex on it reaches an output avoiding the inputs),
// so the backward closure from the outputs confined to the old S is exact.
// Chosen outputs are never removed (they cannot be inputs, so each
// trivially reaches itself).
func (t *Traverser) ShrinkCut(S, removed *bitset.Set, outs []int, inputs *bitset.Set) {
	removed.Copy(S)
	t.ReachBackwardAvoiding(S, outs, inputs, removed)
	removed.Subtract(S)
}

// ShrinkReachInto derives the child analysis frontier of output o for one
// newly blocked vertex w: dst ← src \ {w} \ {vertices whose every path to o
// inside src ran through w}, where src is the parent frontier — every
// vertex reaching o along a path avoiding the previously chosen inputs.
// With I the child's input set (w included), dst is exactly the
// word-parallel backward closure ReachBackwardAvoiding([o], I, src), but
// computed from the parent in work proportional to w's ancestor region
// instead of the whole frontier. dst and src must be distinct sets.
//
// Preconditions: w ∈ src, o ∈ src, o ≠ w.
func (t *Traverser) ShrinkReachInto(dst, src *bitset.Set, o, w int) {
	g := t.g
	anc := g.ReachTo(w)

	// src members outside w's ancestor region keep their o-paths (a path
	// through w implies reaching w); o itself is such a member (a DAG has
	// no w→o→w paths).
	dst.CopyAndNot(src, anc)
	dst.Remove(w)

	// A region vertex survives when one of its successors does. Successors
	// have larger ids and the region lies below w, so a descending walk
	// finds every successor already decided: outside the region it is in
	// dst iff it kept its path, inside it was visited earlier in this walk.
	dw, sw, aw := dst.Words(), src.Words(), anc.Words()
	stride := g.stride
	for wi := w >> 6; wi >= 0; wi-- {
		for word := aw[wi] & sw[wi]; word != 0; {
			b := 63 - bits.LeadingZeros64(word)
			word &^= 1 << uint(b)
			v := wi<<6 + b
			row := g.succBits[v*stride : (v+1)*stride]
			for i, r := range row {
				if r&dw[i] != 0 {
					dw[wi] |= 1 << uint(b)
					break
				}
			}
		}
	}
}
