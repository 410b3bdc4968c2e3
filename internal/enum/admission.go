package enum

import "polyise/internal/bitset"

// Admission: the §5.3 tests that reject an output, an input candidate or
// a cut state before the search pays for it.

// viable applies the §5.3 "pruning while building S" test, adapted to the
// exact (non-monotone) maintenance of S: vertices leave S only when a new
// input joins I, either because the vertex itself becomes the input or
// because the input severs its last avoiding path. So with no input budget
// left, a forbidden vertex (or implicitly forbidden root) inside S, or more
// permanent outputs than Nout, is fatal; with budget remaining it merely
// obligates at least one more input. (Stronger counting — one forced input
// per offending vertex — would be unsound: a single well-placed input can
// evict several vertices from S at once.)
func (e *incEnum) viable(ninLeft int) bool {
	offending := e.S.Intersects(e.g.ForbiddenSet()) || e.S.Intersects(e.g.RootSet()) ||
		e.S.IntersectionCount(e.permOut) > e.opt.MaxOutputs
	return !offending || ninLeft > 0
}

// quickOffending reports whether growing S for output o is certain to
// produce a cut containing a root or forbidden vertex: an entry vertex of
// o's cone outside S that reaches no chosen input (uncAll: the inputs and
// their ancestor cones) cannot be severed — any path of its to o stays in
// the cone, and an input on it would be one of its descendants, putting it
// in uncAll — so it must join B(I, o). One fused word-parallel scan; when
// it fires, the viable() rejection the grow kernel's work would have fed is
// taken for free. (o itself needs no test: admissibleOutput already
// excluded forbidden and root candidates.)
func (e *incEnum) quickOffending(o int, uncAll *bitset.Set) bool {
	cw := e.g.ReachTo(o).Words()
	ew := e.g.EntrySet().Words()
	sw := e.S.Words()
	uw := uncAll.Words()
	for i, c := range cw {
		if c&ew[i]&^sw[i]&^uw[i] != 0 {
			return true
		}
	}
	return false
}

// admissibleOutput filters output candidates: not forbidden, not a root,
// not already in the cut or chosen, and not related by postdominance to a
// chosen output. Ancestors of chosen outputs end up inside the cut, so
// they never need to be chosen (§5.3, output–output pruning); pickOutput
// tries only ids above the last output, which no ancestor of a chosen
// output has, so that rule needs no test here.
func (e *incEnum) admissibleOutput(o int) bool {
	if e.g.IsForbidden(o) || e.S.Has(o) || e.outSet.Has(o) || e.Iuser.Has(o) {
		return false
	}
	for _, prev := range e.outs {
		if e.pdRel[prev].Has(o) {
			return false
		}
	}
	return true
}

// inputRejectsInto sets m to the completions of output o that the §5.3
// output–input pruning rejects, for one lookup per candidate. An input's
// private path to the output lies inside the cut after the input, so a
// forbidden-free path to o must exist: the base is the complement of o's
// forbidden-free ancestor row. Every forbidden direct predecessor of o must
// be an input too (it can neither join the cut nor be severed from o), so
// with Nin of them only they remain admissible, and with more than Nin none
// is. With PruneForbiddenAncestors the ancestors of o's forbidden ancestors
// go too.
func (e *incEnum) inputRejectsInto(m *bitset.Set, o int) {
	fp := e.g.ForbiddenPreds(o)
	switch c := fp.Count(); {
	case c > e.opt.MaxInputs:
		m.Clear()
		m.ComplementOf(m) // every vertex
	case c == e.opt.MaxInputs:
		m.ComplementOf(fp) // fp ⊆ preds(o): each has a forbidden-free path
	default:
		m.ComplementOf(e.g.ForbiddenFreeReachTo(o))
	}
	if e.opt.PruneForbiddenAncestors {
		m.Union(e.badIn[o])
	}
}

// seedRejectsInto sets m to the seeds of the current output's seed loop
// that the §5.3 prunings reject, for one lookup per candidate: the
// completions inRej rejects (inputRejectsInto) and, for the input–input
// pruning, every vertex related by postdominance to a chosen input — two
// such inputs can never coexist in a valid cut under the technical
// condition.
func (e *incEnum) seedRejectsInto(m, inRej *bitset.Set) {
	m.Copy(inRej)
	for _, v := range e.Ilist {
		m.Union(e.pdRel[v])
	}
}
