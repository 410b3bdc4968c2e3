package enum

import "polyise/internal/bitset"

// Cut maintenance: the journaled pushes and pops that keep the cut S
// exact across the search (see "The incremental search-state engine" in
// options.go), and the from-scratch rebuild they are tested against.

// journalBuf returns the undo-journal buffer for recursion depth d. Each
// active output push and completion owns the buffer of its own depth: it
// records the exact set of vertices the push added to (output push) or
// removed from (completion) the maintained cut S, so the pop is a single
// word-parallel Subtract/Union instead of a snapshot restore or a
// from-scratch rebuild.
func (e *incEnum) journalBuf(d int) *bitset.Set {
	return e.bufAt(&e.journal, d)
}

// growS pushes the most recently chosen output onto the maintained cut:
// S gains {o} ∪ B(I, o) via the delta kernel, with the added vertices
// journaled at depth d. B(I, o) ∪ {o} itself lands in the reaches-o buffer
// of depth d+1, where the output's phase start (pickInputs) reads it as
// its frontier. Undo with undoGrowS(d).
func (e *incEnum) growS(d int) {
	o := e.outs[len(e.outs)-1]
	e.tr.GrowCut(e.S, e.journalBuf(d), e.bufAt(&e.backs, d+1), o, e.Iuser)
}

// undoGrowS pops the output push journaled at depth d.
func (e *incEnum) undoGrowS(d int) {
	e.S.Subtract(e.journal[d])
}

// shrinkS applies every chosen input to the maintained cut at a
// completion: the inputs most recently pushed into Iuser — the completion
// and the phase's seeds, which a seed push leaves unapplied — and every
// vertex whose last surviving path ran through one of them leave S via the
// delta kernel, with the removed vertices journaled at depth d. One shrink
// covers them all, since the new S lies inside the old one (ShrinkCut's
// precondition). Only the cut checks below a completion read S, so a seed
// whose subtree completes nothing never pays for the kernel. Undo with
// undoShrinkS(d).
func (e *incEnum) shrinkS(d int) {
	e.work.Shrinks++
	e.tr.ShrinkCut(e.S, e.journalBuf(d), e.outs, e.Iuser)
}

// undoShrinkS pops the completion journaled at depth d; the phase's seeds
// are unapplied again.
func (e *incEnum) undoShrinkS(d int) {
	e.S.Union(e.journal[d])
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
