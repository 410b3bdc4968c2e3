package enum

import "polyise/internal/bitset"

// Cut maintenance: the journaled pushes and pops that keep the cut S
// exact across the search (see "The incremental search-state engine" in
// options.go), and the from-scratch rebuild they are tested against.

// journalBuf returns the undo-journal buffer for recursion depth d. Each
// active search-tree push owns the buffer of its own depth: it records the
// exact set of vertices the push added to (output push) or removed from
// (input push) the maintained cut S, so the pop is a single word-parallel
// Subtract/Union instead of a snapshot restore or a from-scratch rebuild.
func (e *incEnum) journalBuf(d int) *bitset.Set {
	return e.bufAt(&e.journal, d)
}

// growS pushes the most recently chosen output onto the maintained cut:
// S gains {o} ∪ B(I, o) via the delta kernel, with the added vertices
// journaled at depth d. Undo with undoGrowS(d).
func (e *incEnum) growS(d int) {
	o := e.outs[len(e.outs)-1]
	e.tr.GrowCut(e.S, e.journalBuf(d), o, e.Iuser)
}

// undoGrowS pops the output push journaled at depth d.
func (e *incEnum) undoGrowS(d int) {
	e.S.Subtract(e.journal[d])
}

// shrinkS applies the input most recently pushed into Iuser to the
// maintained cut: it and every vertex whose last surviving path ran
// through it leave S via the delta kernel, with the removed vertices
// journaled at depth d. Undo with undoShrinkS(d).
func (e *incEnum) shrinkS(d int) {
	e.work.Shrinks++
	e.tr.ShrinkCut(e.S, e.journalBuf(d), e.outs, e.Iuser)
}

// undoShrinkS pops the input push journaled at depth d.
func (e *incEnum) undoShrinkS(d int) {
	e.S.Union(e.journal[d])
}

// pushSeed pushes seed w but defers its shrinkS to flushSeeds: in an input
// phase only the cut checks below a completion read S, so a seed whose
// subtree checks no cut never pays for it. Undo with popSeed.
func (e *incEnum) pushSeed(w int) {
	e.pushInput(w)
	e.pending++
}

// popSeed pops the seed pushed at depth d: still pending, it is the last
// one (deeper seeds are popped first); flushed, its shrink is undone.
func (e *incEnum) popSeed(d, w int) {
	if e.pending > 0 {
		e.pending--
	} else {
		e.undoShrinkS(d)
	}
	e.popInput(w)
}

// flushSeeds applies the pending seeds' shrinks in push order before a
// completion at depth d. They end Ilist, pushed at depths d-len..d-1, and
// each is journaled at its own depth. ShrinkCut must see only the inputs
// pushed so far (it recomputes S from them), so the seeds leave Iuser
// first and rejoin one at a time.
func (e *incEnum) flushSeeds(d int) {
	seeds := e.Ilist[len(e.Ilist)-e.pending:]
	for _, v := range seeds {
		e.Iuser.Remove(v)
	}
	for k, v := range seeds {
		e.Iuser.Add(v)
		e.shrinkS(d - len(seeds) + k)
	}
	e.pending = 0
}

// rebuildS recomputes the exact cut identified by the chosen outputs and
// inputs: every vertex that reaches a chosen output along a path avoiding
// the chosen inputs (theorems 2 and 3), as one word-parallel backward
// frontier traversal. The search itself maintains S by journaled deltas
// (growS/shrinkS); rebuildS is the reference semantics those deltas are
// property-tested against.
func (e *incEnum) rebuildS() {
	e.tr.CutNodesInto(e.S, e.outs, e.Iuser)
}

func (e *incEnum) pushInput(w int) {
	e.Iuser.Add(w)
	e.Ilist = append(e.Ilist, w)
}

func (e *incEnum) popInput(w int) {
	e.Iuser.Remove(w)
	e.Ilist = e.Ilist[:len(e.Ilist)-1]
}
