package dfg

import (
	"math/bits"

	"polyise/internal/bitset"
	"polyise/internal/faultinject"
)

// This file implements the delta-maintenance kernels of the incremental
// search-state engine. The enumeration of package enum maintains the cut
//
//	S = ⋃_j B(I, o_j)   (theorem 3: everything reaching a chosen output
//	                     along a path avoiding the chosen inputs)
//
// across search-tree pushes, and since PR 5 also the per-output analysis
// frontiers (the reaches-o set and the source→o on-path set) across seed
// pushes. Recomputing any of them from scratch at every node of the search
// tree costs a full frontier traversal per push; the kernels here update
// them in place (or derive the child from the parent) and report the exact
// delta, so a push costs work proportional to the region that actually
// changes and the undo is a single word-parallel set operation on the
// journaled delta:
//
//   - GrowCut handles an output push (monotone: S only gains vertices). The
//     per-output backward cone B(∅, o) is memoized at Freeze time — it is
//     exactly reachTo(o) — so when no chosen input lies inside the cone the
//     push is one OR/clip over the cone row. Otherwise the growth is
//     *clipped*: only cone vertices upstream of a blocking input can be
//     severed, so the survival recomputation is confined to that uncertain
//     region (the rest of the cone joins unconditionally), with a fallback
//     to the plain backward traversal when the uncertain region is most of
//     the new cone.
//
//   - ShrinkCut handles an input push (non-monotone: the new input w and
//     every vertex whose last surviving path ran through w leave S). Only
//     ancestors of w can leave, so the recomputation is confined to
//     region = reachTo(w) ∩ S: survivors are seeded word-parallel (chosen
//     outputs in the region, plus any region vertex with an edge into the
//     untouched part of S) and closed backward inside the region. When the
//     region is a large fraction of S the kernel falls back to the
//     from-scratch rebuild (CutNodesInto), which stays the reference
//     semantics — the property tests pin both paths to it.
//
//   - ShrinkReachInto derives a child analysis frontier from its parent for
//     one newly blocked vertex, with the same confined-region discipline as
//     ShrinkCut but writing into a separate per-depth buffer (the search
//     keeps every ancestor level's frontier alive, so no undo is needed).
//     The source→o on-path set needs no kernel of its own: package enum
//     reads it off the shrunk frontier in the same ascending pass that
//     finds the reduced-graph dominators (see analyzePaths there).
//
// The grow/shrink kernels return their delta disjoint from (resp. contained
// in) S so the caller's undo journal is exact: undo a GrowCut with
// S.Subtract(delta) and a ShrinkCut with S.Union(removed).

// shrinkFallbackNum/Den control when ShrinkCut and ShrinkReachInto abandon
// the incremental removal for the from-scratch recomputation: the candidate
// region (ancestors of the newly blocked vertex inside the maintained set)
// must stay under num/den of the set. The incremental path costs ~three
// word-parallel passes over the region against one backward traversal of
// the surviving set, so beyond half the rebuild wins. Variables rather than
// constants so the property tests can force each path deterministically.
var shrinkFallbackNum, shrinkFallbackDen = 1, 2

// growFallbackNum/Den control when GrowCut abandons the clipped growth for
// the plain backward traversal: the uncertain region (cone vertices
// upstream of a blocking input) must stay under num/den of the cone's new
// vertices. The clipped path pays a per-member seed scan plus a survival
// closure over the uncertain region against the plain traversal's one
// closure over the whole delta, so it only wins when the uncertain region
// is a small fraction.
var growFallbackNum, growFallbackDen = 1, 3

// GrowCut grows the incrementally maintained cut S for a newly chosen
// output o: S ← S ∪ {o} ∪ B(I, o), with I given as the inputs bitset. The
// vertices actually added are recorded in delta (disjoint from the old S),
// so the caller can undo the push exactly with S.Subtract(delta).
//
// Preconditions: o ∉ S and o ∉ inputs (the enumeration's admissibility
// rules guarantee both). S must be the exactly maintained cut of the
// enclosing search (the S-stopping argument below relies on it).
func (t *Traverser) GrowCut(S, delta *bitset.Set, o int, inputs *bitset.Set) {
	g := t.g
	reachTo := g.closures().reachTo
	cone := reachTo[o] // B(∅, o) \ {o}, memoized with the closures
	if !inputs.Intersects(cone) {
		// No input can sever any ancestor of o from o, so B(I, o) is the
		// whole cone: one OR, clipped against the vertices already in S.
		delta.CopyAndNot(cone, S)
		delta.Add(o)
		S.Union(delta)
		return
	}

	// Clipped cone growth. Every vertex on a path from a cone member to o
	// is itself a cone member, so only inputs *inside* the cone can block
	// anything, and only their ancestors can be blocked: a candidate that
	// reaches no in-cone input has every maximal path to o input-free and
	// joins unconditionally. That splits the cone's new vertices into a
	// certain part (joined with pure word operations) and an uncertain
	// region — cn ∩ ⋃ reachTo(i) over the in-cone inputs — whose survival
	// is recomputed locally: an uncertain vertex survives exactly when it
	// has an edge into the certain part, o itself, or another survivor
	// (survival closes backward inside the region). Vertices already in S
	// are skipped throughout: a new vertex whose o-path runs through an
	// S-member would already be in S (its members reach an earlier output
	// avoiding I through that very path), so stopping at S loses nothing.
	cn := t.region
	cn.CopyAndNot(cone, S) // candidate new vertices
	unc := t.rest
	unc.Clear()
	inputs.ForEach(func(i int) bool {
		if cone.Has(i) {
			unc.UnionWords(reachTo[i].Words())
			unc.Add(i)
		}
		return true
	})
	unc.Intersect(cn)

	if faultinject.ForcedFallback() || unc.Count()*growFallbackDen > cn.Count()*growFallbackNum {
		// Mostly-blocked cone: the confined recomputation would touch nearly
		// every candidate anyway. Traverse backward from o through the
		// unblocked part of the cone, skipping vertices already in S.
		allowed := t.allowed
		allowed.CopyAndNot(cone, inputs)
		allowed.Subtract(S)
		delta.Clear()
		delta.Add(o)
		t.closure(delta, g.predBits, allowed)
		S.Union(delta)
		return
	}

	delta.CopyAndNot(cn, unc) // the certain part joins unconditionally
	delta.Add(o)
	unc.Subtract(inputs) // inputs themselves can never join the cut
	surv := t.surv
	surv.Clear()
	dw := delta.Words()
	stride := g.stride
	for wi, word := range unc.Words() {
		for word != 0 {
			v := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			row := g.succBits[v*stride : (v+1)*stride]
			for i, r := range row {
				if r&dw[i] != 0 {
					surv.Add(v)
					break
				}
			}
		}
	}
	t.closure(surv, g.predBits, unc)
	delta.Union(surv)
	S.Union(delta)
}

// ShrinkCut shrinks the incrementally maintained cut S for a newly chosen
// input w: S ← S \ {vertices whose every surviving path to a chosen output
// ran through w}, w itself included. The removed vertices are recorded in
// removed (a subset of the old S), so the caller can undo the push exactly
// with S.Union(removed).
//
// Preconditions: w ∈ S, and inputs already contains w (push the input
// first, then shrink). outs lists the chosen outputs; outSet is the same
// set in bitset form. Chosen outputs are never removed (they cannot be
// inputs, so each trivially reaches itself).
func (t *Traverser) ShrinkCut(S, removed *bitset.Set, w int, outs []int, outSet, inputs *bitset.Set) {
	g := t.g
	region := t.region
	region.CopyIntersect(g.ReachTo(w), S) // removal candidates besides w itself

	if faultinject.ForcedFallback() || region.Count()*shrinkFallbackDen > S.Count()*shrinkFallbackNum {
		// Non-monotone worst case: most of S is upstream of w, so the
		// confined recomputation would touch nearly everything. Rebuild
		// from scratch (the reference semantics) and diff for the journal.
		newS := t.scratchS
		t.CutNodesInto(newS, outs, inputs)
		removed.CopyAndNot(S, newS)
		S.Copy(newS)
		return
	}

	// Vertices of S outside the region survive: they do not reach w, so
	// their surviving paths cannot contain it. They seed survival into the
	// region: a region vertex with an edge into rest = S \ region \ {w}
	// keeps an avoiding path, as does a chosen output inside the region.
	rest := t.rest
	rest.CopyAndNot(S, region)
	rest.Remove(w)
	surv := t.surv
	surv.CopyIntersect(outSet, region)
	rw := rest.Words()
	stride := g.stride
	for wi, word := range region.Words() {
		for word != 0 {
			v := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			row := g.succBits[v*stride : (v+1)*stride]
			for i, r := range row {
				if r&rw[i] != 0 {
					surv.Add(v)
					break
				}
			}
		}
	}
	// Survival propagates to predecessors inside the region (an edge into a
	// survivor extends its avoiding path), and never through w: w is not a
	// region member, so the closure cannot resurrect it.
	t.closure(surv, g.predBits, region)
	removed.CopyAndNot(region, surv)
	removed.Add(w)
	S.Subtract(removed)
}

// ShrinkReachInto derives the child analysis frontier of output o for one
// newly blocked vertex w: dst ← src \ {w} \ {vertices whose every path to o
// inside src ran through w}, where src is the parent frontier — every
// vertex reaching o along a path avoiding the previously chosen inputs.
// With inputs = the child's input set (w included), dst is exactly the
// word-parallel backward closure ReachBackwardAvoiding([o], inputs, src),
// but computed from the parent in work proportional to w's ancestor region
// instead of the whole frontier; past the shrinkFallback threshold it
// falls back to that very closure. dst and src must be distinct sets.
//
// Preconditions: w ∈ src, o ∈ src, o ≠ w, inputs contains w.
func (t *Traverser) ShrinkReachInto(dst, src *bitset.Set, o, w int, inputs *bitset.Set) {
	g := t.g
	region := t.region
	region.CopyIntersect(g.ReachTo(w), src) // removal candidates besides w itself

	if faultinject.ForcedFallback() || region.Count()*shrinkFallbackDen > src.Count()*shrinkFallbackNum {
		t.seed1[0] = o
		t.ReachBackwardAvoiding(dst, t.seed1[:], inputs, src)
		return
	}

	// Mirror of ShrinkCut with a single output: src members outside w's
	// ancestor region keep their o-paths (a path through w implies reaching
	// w); o itself is such a member (a DAG has no w→o→w paths), so it seeds
	// survival into the region together with every region vertex keeping an
	// edge into the untouched part.
	rest := t.rest
	rest.CopyAndNot(src, region)
	rest.Remove(w)
	surv := t.surv
	surv.Clear()
	rw := rest.Words()
	stride := g.stride
	for wi, word := range region.Words() {
		for word != 0 {
			v := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			row := g.succBits[v*stride : (v+1)*stride]
			for i, r := range row {
				if r&rw[i] != 0 {
					surv.Add(v)
					break
				}
			}
		}
	}
	t.closure(surv, g.predBits, region)
	dst.Copy(rest)
	dst.Union(surv)
}
