package enum

import (
	"polyise/internal/bitset"
	"polyise/internal/dfg"
	"polyise/internal/faultinject"
)

// This file implements the incremental validation engine: the per-candidate
// §3 admission checks of CHECK-CUT run on search state that is maintained
// across the search tree instead of being swept from scratch per candidate.
//
// The from-scratch Validator (cut.go) pays O(|S|) adjacency-row operations
// per candidate to derive I(S), O(S) and the convexity cones ∪ReachFrom(S)
// and ∪ReachTo(S). DeltaValidator mirrors the delta architecture of the
// search-state engine (dfg/delta.go): three aggregates over the members of
// the maintained cut S —
//
//	predU = ⋃_{u∈S} preds(u)   so  I(S)  = predU \ S  and the output
//	                               frontier maxS = S \ predU
//	succU = ⋃_{u∈S} succs(u)   so the input frontier minS = S \ succU
//	outs  = O(S) per definition 1
//
// — are brought up to date by exact set deltas in O(|delta|) adjacency
// rows, not by per-candidate sweeps. The convexity cones need no
// maintenance at all: reachability unions over S collapse to its frontiers
// (see isConvex), so ∪ReachFrom(S) and ∪ReachTo(S) are |minS| + |maxS| row
// unions at admission time instead of 2|S|.
//
// Synchronization is by journaled mirror, not by per-push notification.
// The search already maintains S itself through per-depth delta journals
// (growS/shrinkS and their undos); most of those pushes are exploration
// that never reaches CHECK-CUT, so charging even O(1) per push is pure
// overhead, and charging O(|delta|) — the measured push/candidate ratio is
// ~10:1 — would cost more than the sweeps it replaces. Instead the engine
// keeps its own journal: a mirror Srep of the cut as of the last admission
// check. At the next check it diffs the live S against the mirror (two
// word-parallel passes), applies the net delta D+ = S \ Srep,
// D− = Srep \ S in one exact transition, and re-journals the mirror.
// Backtracking therefore costs the engine nothing — the next diff simply
// sees the rolled-back S — and a push/pop pair that never meets an
// admission check is never paid for at all. Every membership test in the
// transition runs against the final S, which makes the update
// path-independent (the property tests drive randomized push/undo
// sequences against a from-scratch recomputation to pin exactly this).
//
// Past a delta-size threshold the transition falls back to rebuilding the
// aggregates from S directly, exactly like ShrinkCut's from-scratch
// fallback, so worst-case behavior never regresses below the old
// per-candidate sweep.
//
// Admission checks are staged cheapest-first: the O(words) budget
// rejections (|I(S)| and |O(S)| against Nin/Nout) fire before the frontier
// cone unions, which fire before the only remaining traversals — the shared
// root-reachability closure of the technical condition and the per-input
// closures of the connectedness restriction — and those traversals are
// confined to the cut's ancestor cone (∪ReachTo(S) ∪ S), outside which they
// cannot make progress anyway.
//
// The from-scratch Validator remains the reference semantics — the same
// demotion rebuildS underwent in PR 3 — and the property tests pin
// DeltaValidator to it on randomized graphs with both fallback directions
// forced.

// valFallbackNum/Den control when the mirror transition falls back to
// rebuilding the aggregates from S: the net delta must stay under num/den
// of |S|, since the incremental transition costs ~two adjacency rows per
// delta member against one per member of S for the rebuild. Variables so
// the property tests can force each path deterministically.
var valFallbackNum, valFallbackDen = 1, 2

// DeltaValidator is the incremental validation engine for one enumeration
// worker. It owns scratch storage and the aggregate mirror, is allocation-
// free in steady state, and is NOT safe for concurrent use — each worker
// of the sharded enumeration owns its own (clone-per-shard discipline).
type DeltaValidator struct {
	g   *dfg.Graph
	opt Options
	tr  *dfg.Traverser
	S   *bitset.Set // the search-maintained cut, owned by the worker

	// Mirror and delta-maintained aggregates over the members of S.
	srep  *bitset.Set // the cut as of the last sync: the engine's journal
	predU *bitset.Set // ⋃ preds(u): I(S) = predU \ S, output frontier = S \ predU
	succU *bitset.Set // ⋃ succs(u): input frontier = S \ succU
	outs  *bitset.Set // O(S), definition 1

	// Admission-check scratch.
	ins, down, up *bitset.Set
	within        *bitset.Set // ∪ReachTo(S) ∪ S: confinement of the §3 traversals
	frontier      *bitset.Set
	rootReach     *bitset.Set
	reach         *bitset.Set
	dPlus, dMinus *bitset.Set
	predD, cand   *bitset.Set
	rootValid     bool
	insBuf        []int
	outsBuf       []int
	inputsTo      []uint64
	depthBuf      []int32
}

// NewDeltaValidator creates the incremental validation engine for g over
// the search-maintained cut S (aliased, not copied: the engine reads the
// caller's live cut and journals its own mirror of it).
func NewDeltaValidator(g *dfg.Graph, opt Options, S *bitset.Set) *DeltaValidator {
	n := g.N()
	return &DeltaValidator{
		g:         g,
		opt:       opt,
		tr:        g.NewTraverser(),
		S:         S,
		srep:      bitset.New(n),
		predU:     bitset.New(n),
		succU:     bitset.New(n),
		outs:      bitset.New(n),
		ins:       bitset.New(n),
		down:      bitset.New(n),
		up:        bitset.New(n),
		within:    bitset.New(n),
		frontier:  bitset.New(n),
		rootReach: bitset.New(n),
		reach:     bitset.New(n),
		dPlus:     bitset.New(n),
		dMinus:    bitset.New(n),
		predD:     bitset.New(n),
		cand:      bitset.New(n),
		depthBuf:  make([]int32, n),
	}
}

// sync brings the aggregates from the journaled mirror to the live cut in
// one exact transition over the net delta, then re-journals the mirror.
// Every membership test runs against the final S, so the result is
// independent of the push/pop path that produced the diff.
func (d *DeltaValidator) sync() {
	g := d.g
	S := d.S
	dPlus, dMinus := d.dPlus, d.dMinus
	dPlus.CopyAndNot(S, d.srep)
	dMinus.CopyAndNot(d.srep, S)
	nd := dPlus.Count() + dMinus.Count()
	if nd == 0 {
		return
	}
	d.srep.Copy(S)
	if faultinject.ForcedFallback() || nd*valFallbackDen > S.Count()*valFallbackNum {
		d.rebuild()
		return
	}
	sw := S.Words()

	// Departed members first: an aggregate bit disappears only when every
	// member backing it left, and the candidates are exactly the departed
	// members' adjacency unions. A survivor feeding a departed vertex now
	// has a successor outside S, making it an output outright.
	if !dMinus.Empty() {
		predD := d.predD
		succD := d.cand
		predD.Clear()
		succD.Clear()
		d.tr.UnionPredRows(predD, dMinus)
		d.tr.UnionSuccRows(succD, dMinus)
		predD.ForEach(func(b int) bool {
			if !g.SuccsIntersect(b, S) {
				d.predU.Remove(b)
			}
			return true
		})
		succD.ForEach(func(b int) bool {
			if !g.PredsIntersect(b, S) {
				d.succU.Remove(b)
			}
			return true
		})
		d.outs.Intersect(S)
		predD.Intersect(S)
		d.outs.Union(predD)
	}

	// New members extend the aggregates monotonically; their own output
	// status is one successor-row scan each (the row is already loaded for
	// succU), and existing outputs feeding a new member may have lost their
	// last outside successor (Oext members never stop being outputs).
	if !dPlus.Empty() {
		predD := d.predD
		predD.Clear()
		dPlus.ForEach(func(v int) bool {
			prow := g.PredRow(v)
			d.predU.UnionWords(prow)
			predD.UnionWords(prow)
			srow := g.SuccRow(v)
			d.succU.UnionWords(srow)
			out := g.IsLiveOut(v)
			if !out {
				for i, r := range srow {
					if r&^sw[i] != 0 {
						out = true
						break
					}
				}
			}
			if out {
				d.outs.Add(v)
			} else {
				d.outs.Remove(v) // a returning member may have been an output before
			}
			return true
		})
		cand := d.cand
		cand.CopyIntersect(d.outs, predD)
		cand.Subtract(dPlus)
		cand.Subtract(g.OextSet())
		cand.ForEach(func(v int) bool {
			for i, r := range g.SuccRow(v) {
				if r&^sw[i] != 0 {
					return true
				}
			}
			d.outs.Remove(v)
			return true
		})
	}
}

// rebuild recomputes the aggregates from S directly — the fallback for
// oversized net deltas and the reference the property tests compare the
// incremental transitions against.
func (d *DeltaValidator) rebuild() {
	g := d.g
	d.predU.Clear()
	d.succU.Clear()
	d.outs.Clear()
	sw := d.S.Words()
	d.S.ForEach(func(v int) bool {
		d.predU.UnionWords(g.PredRow(v))
		srow := g.SuccRow(v)
		d.succU.UnionWords(srow)
		out := g.IsLiveOut(v)
		if !out {
			for i, r := range srow {
				if r&^sw[i] != 0 {
					out = true
					break
				}
			}
		}
		if out {
			d.outs.Add(v)
		}
		return true
	})
}

// NumOutputs returns |O(S)| for the current maintained cut — the real-
// output budget test of CHECK-CUT, reduced to a population count on the
// maintained aggregate. It syncs the mirror first.
func (d *DeltaValidator) NumOutputs() int {
	d.sync()
	return d.outs.Count()
}

// Canonical reports whether the search reached the current maintained cut
// S by its canonical derivation: the chosen outputs ascend and are exactly
// O(S), and the chosen inputs are exactly I(S) = predU \ S. Together with
// the derivation rules of pickInputs, this holds at exactly one search node
// per valid cut (docs/ALGORITHM.md §5), so the test replaces any record of
// the cuts already delivered. It reads only the maintained aggregates and
// syncs the mirror first.
func (d *DeltaValidator) Canonical(outs []int, inputs *bitset.Set) bool {
	d.sync()
	if len(outs) != d.outs.Count() {
		return false
	}
	for k, o := range outs {
		if !d.outs.Has(o) || (k > 0 && o < outs[k-1]) {
			return false
		}
	}
	sw, pw := d.S.Words(), d.predU.Words()
	for i, w := range inputs.Words() {
		if pw[i]&^sw[i] != w {
			return false
		}
	}
	return true
}

// Validate checks the current maintained cut S against the §3 problem
// statement, mirroring Validator.Validate bit for bit (the property tests
// enforce the agreement): non-empty, disjoint from F and the roots, within
// the input/output budgets, convex, and satisfying the technical condition
// plus the connectedness and depth limits the options request. On success
// it fills cut with S's derived inputs and outputs; the slices share the
// validator's scratch storage unless Options.KeepCuts is set.
//
// Checks are staged cheapest-first on the maintained aggregates: set
// intersections and population counts reject before any adjacency row is
// touched, frontier-cone unions before any traversal runs.
func (d *DeltaValidator) Validate(cut *Cut) bool {
	d.sync()
	g := d.g
	S := d.S
	if S.Empty() {
		return false
	}
	if S.Intersects(g.ForbiddenSet()) || S.Intersects(g.RootSet()) {
		return false
	}
	d.ins.CopyAndNot(d.predU, S)
	d.insBuf = d.ins.AppendMembers(d.insBuf[:0])
	d.rootValid = false
	if len(d.insBuf) > d.opt.MaxInputs {
		return false
	}
	d.outsBuf = d.outs.AppendMembers(d.outsBuf[:0])
	if len(d.outsBuf) > d.opt.MaxOutputs {
		return false
	}
	if !d.isConvex() {
		return false
	}
	if !d.technicalConditionHolds() {
		return false
	}
	if d.opt.ConnectedOnly && !d.isConnectedCut() {
		return false
	}
	if d.opt.MaxDepth > 0 && d.internalDepth() > d.opt.MaxDepth {
		return false
	}
	if cut != nil {
		cut.Nodes = S
		if d.opt.KeepCuts {
			cut.Inputs = append([]int(nil), d.insBuf...)
			cut.Outputs = append([]int(nil), d.outsBuf...)
		} else {
			cut.Inputs = d.insBuf
			cut.Outputs = d.outsBuf
		}
	}
	return true
}

// isConvex is the frontier-cone form of definition 2: S is convex exactly
// when ReachFrom(S) ∩ ReachTo(S) \ S is empty. The member unions collapse
// to S's frontiers: every member u sits on an S-internal predecessor chain
// from some member m with no predecessor in S (the input frontier,
// S \ succU), and m reaching u gives ReachFrom(m) ⊇ ReachFrom(u) ∪ {u};
// dually for ReachTo and the output frontier S \ predU. So the gap region
// of the full unions equals the gap region of the frontier unions, at
// |minS| + |maxS| row unions instead of 2|S|. As a byproduct the ancestor
// cone ∪ReachTo(S) ∪ S is recorded in d.within, confining the traversals
// of the later stages.
func (d *DeltaValidator) isConvex() bool {
	g := d.g
	S := d.S
	d.down.Clear()
	d.up.Clear()
	fr := d.frontier
	fr.CopyAndNot(S, d.succU)
	fr.ForEach(func(m int) bool {
		d.down.UnionWords(g.ReachFrom(m).Words())
		return true
	})
	fr.CopyAndNot(S, d.predU)
	fr.ForEach(func(m int) bool {
		d.up.UnionWords(g.ReachTo(m).Words())
		return true
	})
	d.within.Copy(d.up)
	d.within.Union(S)
	return !d.down.AndNotAny(d.up, S)
}

// technicalConditionHolds implements the §3 condition on the inputs derived
// by the enclosing Validate call: every input w needs a root path reaching
// w while avoiding the other inputs. The reduction to one shared forward
// closure plus a predecessor-row test per input is Validator's (see the
// proof sketch there); here the closure is additionally confined to the
// cut's ancestor cone d.within — sound because every vertex on a simple
// source path to a predecessor p of an input is an ancestor of p, hence an
// ancestor of some member of S, and so lies in ∪ReachTo(S).
func (d *DeltaValidator) technicalConditionHolds() bool {
	if len(d.insBuf) <= 1 {
		return true
	}
	g := d.g
	d.ensureRootReach()
	for _, w := range d.insBuf {
		if g.IsRoot(w) || g.IsUserForbidden(w) {
			continue
		}
		if !g.PredsIntersect(w, d.rootReach) {
			return false
		}
	}
	return true
}

// ensureRootReach computes the forward closure from the virtual source
// avoiding I(S), confined to the cut's ancestor cone, once per Validate
// call; the technical-condition and connectedness checks share it.
func (d *DeltaValidator) ensureRootReach() {
	if !d.rootValid {
		d.tr.ReachForwardAvoiding(d.rootReach, d.g.Entries(), d.ins, d.within)
		d.rootValid = true
	}
}

// isConnectedCut implements definition 4 exactly as Validator does, with
// the per-input forward closures confined to d.within: every vertex on a
// path from an input's successor to an output o ∈ S reaches o, so it lies
// in ReachTo(o) ∪ {o} ⊆ ∪ReachTo(S) ∪ S.
func (d *DeltaValidator) isConnectedCut() bool {
	if len(d.outsBuf) <= 1 {
		return true
	}
	if len(d.insBuf) > 64 {
		return false // cannot happen under any sane port constraint
	}
	g := d.g
	d.inputsTo = d.inputsTo[:0]
	for range d.outsBuf {
		d.inputsTo = append(d.inputsTo, 0)
	}
	d.ensureRootReach()
	for bi, i := range d.insBuf {
		rootFeeds := g.IsRoot(i) || g.IsUserForbidden(i) || g.PredsIntersect(i, d.rootReach)
		if !rootFeeds {
			continue
		}
		d.tr.ReachForwardAvoiding(d.reach, g.Succs(i), d.ins, d.within)
		for k, o := range d.outsBuf {
			if d.reach.Has(o) {
				d.inputsTo[k] |= 1 << uint(bi)
			}
		}
	}
	for a := 0; a < len(d.outsBuf); a++ {
		for b := a + 1; b < len(d.outsBuf); b++ {
			if d.inputsTo[a]&d.inputsTo[b] == 0 {
				return false
			}
		}
	}
	return true
}

// internalDepth returns the number of edges on the longest path inside S.
// Members are visited in ascending id order, which IS topological order
// (dfg.Graph.AddNode only accepts existing predecessors), so every member's
// depth is written before any in-S successor reads it — and unlike the
// reference, only S's members are walked, not the whole vertex range.
func (d *DeltaValidator) internalDepth() int {
	g := d.g
	S := d.S
	max := int32(0)
	S.ForEach(func(u int) bool {
		dep := int32(0)
		for _, p := range g.Preds(u) {
			if S.Has(p) {
				if dp := d.depthBuf[p] + 1; dp > dep {
					dep = dp
				}
			}
		}
		d.depthBuf[u] = dep
		if dep > max {
			max = dep
		}
		return true
	})
	return int(max)
}
