package enum

import (
	"fmt"
	"sort"

	"polyise/internal/bitset"
	"polyise/internal/dfg"
)

// Cut is a convex cut reported by the enumeration: the vertex set S together
// with its derived inputs I(S) and outputs O(S).
type Cut struct {
	Nodes   *bitset.Set
	Inputs  []int
	Outputs []int
}

// String renders the cut compactly for logs and tests.
func (c Cut) String() string {
	return fmt.Sprintf("cut%v in=%v out=%v", c.Nodes.Members(), c.Inputs, c.Outputs)
}

// Clone returns an independent copy of the cut.
func (c Cut) Clone() Cut {
	in := make([]int, len(c.Inputs))
	copy(in, c.Inputs)
	out := make([]int, len(c.Outputs))
	copy(out, c.Outputs)
	return Cut{Nodes: c.Nodes.Clone(), Inputs: in, Outputs: out}
}

// Validator checks candidate vertex sets against the §3 problem statement:
// the admission half of CHECK-CUT (figure 3). It owns scratch storage
// (including a word-parallel dfg.Traverser), so it is cheap — and in
// steady state allocation-free — to call repeatedly, but not safe for
// concurrent use: each enumeration worker owns its own.
//
// A check starts by loading S: one sweep over the adjacency rows of its
// members computes three aggregates,
//
//	predU = ⋃_{u∈S} preds(u)   so  I(S)  = predU \ S  and the output
//	                               frontier maxS = S \ predU
//	succU = ⋃_{u∈S} succs(u)   so the input frontier minS = S \ succU
//	outs  = O(S) per definition 1
//
// and every later stage reads them. The stages run cheapest-first: the
// O(words) budget rejections (|I(S)| and |O(S)| against Nin/Nout) fire
// before the frontier cone unions of the convexity test, which fire before
// the only traversals — the shared root-reachability closure of the
// technical condition and the per-input closures of the connectedness
// restriction — and those are confined to the cut's ancestor cone
// (∪ReachTo(S) ∪ S), outside which they cannot make progress anyway.
//
// The incremental search loads its maintained S once per candidate, reads
// the output count and runs the canonical derivation test on the loaded
// aggregates, then validates (see incEnum.checkCut). EnumerateBasic and
// the baseline searches call Validate. The scalar implementations on
// dfg.Graph (IsConvex, TechnicalConditionHolds, IsConnectedCut) are the
// reference the property tests pin Validator to.
type Validator struct {
	g   *dfg.Graph
	opt Options
	tr  *dfg.Traverser

	// The loaded cut and its aggregates (see load).
	S     *bitset.Set
	predU *bitset.Set // ⋃ preds(u): I(S) = predU \ S, output frontier = S \ predU
	succU *bitset.Set // ⋃ succs(u): input frontier = S \ succU
	outs  *bitset.Set // O(S), definition 1

	ins       *bitset.Set
	down, up  *bitset.Set // ∪ReachFrom(S), ∪ReachTo(S) for the convexity gap
	within    *bitset.Set // ∪ReachTo(S) ∪ S: confinement of the §3 traversals
	frontier  *bitset.Set
	rootReach *bitset.Set   // reachable from the virtual source avoiding I(S)
	rootValid bool          // rootReach is current for this validation
	reach     *bitset.Set   // per-input forward closure (connectedness)
	inputsTo  []*bitset.Set // per output: the inputs feeding it (connectedness)

	insBuf, outsBuf []int
	depthBuf        []int32
}

// NewValidator creates a Validator for g under the given options.
func NewValidator(g *dfg.Graph, opt Options) *Validator {
	n := g.N()
	return &Validator{
		g:         g,
		opt:       opt,
		tr:        g.NewTraverser(),
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
		depthBuf:  make([]int32, n),
	}
}

// Validate reports whether S is a valid cut: non-empty, disjoint from F,
// convex, within the input/output budgets, and satisfying the technical
// condition, connectedness and depth limits the options request. On success
// it fills cut with S's derived inputs and outputs; the slices share the
// validator's scratch storage unless Options.KeepCuts is set, in which case
// they are freshly allocated copies safe to retain.
func (v *Validator) Validate(S *bitset.Set, cut *Cut) bool {
	v.load(S)
	return v.validate(cut)
}

// load makes S the validator's cut and computes its aggregates in one
// sweep over the members' adjacency rows: predU and succU are row unions,
// and a member is an output when it is live-out or its successor row
// leaves S. S is aliased, not copied; the caller must not change it while
// the later stages read it.
func (v *Validator) load(S *bitset.Set) {
	g := v.g
	v.S = S
	v.predU.Clear()
	v.succU.Clear()
	v.outs.Clear()
	sw := S.Words()
	S.ForEach(func(u int) bool {
		v.predU.UnionWords(g.PredRow(u))
		srow := g.SuccRow(u)
		v.succU.UnionWords(srow)
		out := g.IsLiveOut(u)
		for i := 0; !out && i < len(srow); i++ {
			out = srow[i]&^sw[i] != 0
		}
		if out {
			v.outs.Add(u)
		}
		return true
	})
}

// canonical reports whether the search reached the loaded cut S by its
// canonical derivation: the chosen outputs ascend and are exactly O(S),
// and the chosen inputs are exactly I(S) = predU \ S. Together with the
// derivation rules of pickInputs, this holds at exactly one search node
// per valid cut (docs/ALGORITHM.md §5), so the test replaces any record of
// the cuts already delivered. The input half is implied by the search's
// invariants (§5, F3); it stays as a guard that costs O(words).
func (v *Validator) canonical(outs []int, inputs *bitset.Set) bool {
	if len(outs) != v.outs.Count() {
		return false
	}
	for k, o := range outs {
		if !v.outs.Has(o) || (k > 0 && o < outs[k-1]) {
			return false
		}
	}
	sw, pw := v.S.Words(), v.predU.Words()
	for i, w := range inputs.Words() {
		if pw[i]&^sw[i] != w {
			return false
		}
	}
	return true
}

// validate runs the staged §3 checks on the loaded cut; see Validate.
func (v *Validator) validate(cut *Cut) bool {
	g := v.g
	S := v.S
	if S.Empty() {
		return false
	}
	if S.Intersects(g.ForbiddenSet()) || S.Intersects(g.RootSet()) {
		return false
	}
	v.ins.CopyAndNot(v.predU, S)
	v.insBuf = v.ins.AppendMembers(v.insBuf[:0])
	v.rootValid = false
	if len(v.insBuf) > v.opt.MaxInputs {
		return false
	}
	v.outsBuf = v.outs.AppendMembers(v.outsBuf[:0])
	if len(v.outsBuf) > v.opt.MaxOutputs {
		return false
	}
	if !v.isConvex() {
		return false
	}
	if !v.technicalConditionHolds() {
		return false
	}
	if v.opt.ConnectedOnly && !v.isConnectedCut() {
		return false
	}
	if v.opt.MaxDepth > 0 && v.internalDepth() > v.opt.MaxDepth {
		return false
	}
	if cut != nil {
		cut.Nodes = S
		if v.opt.KeepCuts {
			cut.Inputs = append([]int(nil), v.insBuf...)
			cut.Outputs = append([]int(nil), v.outsBuf...)
		} else {
			cut.Inputs = v.insBuf
			cut.Outputs = v.outsBuf
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
// cone ∪ReachTo(S) ∪ S is recorded in v.within, confining the traversals
// of the later stages.
func (v *Validator) isConvex() bool {
	g := v.g
	S := v.S
	v.down.Clear()
	v.up.Clear()
	fr := v.frontier
	fr.CopyAndNot(S, v.succU)
	fr.ForEach(func(m int) bool {
		v.down.UnionWords(g.ReachFrom(m).Words())
		return true
	})
	fr.CopyAndNot(S, v.predU)
	fr.ForEach(func(m int) bool {
		v.up.UnionWords(g.ReachTo(m).Words())
		return true
	})
	v.within.Copy(v.up)
	v.within.Union(S)
	return !v.down.AndNotAny(v.up, S)
}

// technicalConditionHolds implements the §3 condition on the inputs
// derived by the enclosing validation (v.ins / v.insBuf): every input w
// needs a root path that reaches w while avoiding the other inputs.
//
// Two observations collapse the paper's per-input traversal pair into one
// shared traversal plus a row test per input. First, the second half of the
// condition — from w, reach a vertex of S avoiding the other inputs — holds
// for every input by construction: w ∈ I(S) has a direct successor inside
// S, and members of S are never inputs. Second, a root path to w avoiding
// the *other* inputs cannot revisit w (the graph is acyclic), so its prefix
// avoids every input; therefore it exists exactly when w itself is a
// virtual-source entry or some predecessor of w is reachable from the
// source avoiding all of I(S) — one forward closure shared by all inputs.
// The closure is confined to the ancestor cone v.within: every vertex on a
// simple source path to a predecessor p of an input is an ancestor of p,
// hence an ancestor of some member of S.
func (v *Validator) technicalConditionHolds() bool {
	if len(v.insBuf) <= 1 {
		return true
	}
	g := v.g
	v.ensureRootReach()
	for _, w := range v.insBuf {
		if g.IsRoot(w) || g.IsUserForbidden(w) {
			continue
		}
		if !g.PredsIntersect(w, v.rootReach) {
			return false
		}
	}
	return true
}

// ensureRootReach computes the forward closure from the virtual source
// avoiding I(S), confined to the cut's ancestor cone, once per validation;
// the technical-condition and connectedness checks share it.
func (v *Validator) ensureRootReach() {
	if !v.rootValid {
		v.tr.ReachForwardAvoiding(v.rootReach, v.g.Entries(), v.ins, v.within)
		v.rootValid = true
	}
}

// isConnectedCut implements definition 4 on the word-parallel engine (the
// generalized-dominator sense of "input to a vertex" established by theorem
// 1; see Graph.IsConnectedCut for the scalar reference). Per input the
// scalar version runs a traversal pair per output; here one shared
// root-reachability closure settles the root→input half for every input,
// and one forward closure per feeding input covers all outputs at once. The
// closures are confined to v.within: every vertex on a path from an
// input's successor to an output o ∈ S reaches o, so it lies in
// ReachTo(o) ∪ {o}. Each output's feeding inputs are a set over vertex
// ids, so the input count is not limited.
func (v *Validator) isConnectedCut() bool {
	if len(v.outsBuf) <= 1 {
		return true
	}
	g := v.g
	for len(v.inputsTo) < len(v.outsBuf) {
		v.inputsTo = append(v.inputsTo, bitset.New(g.N()))
	}
	feeds := v.inputsTo[:len(v.outsBuf)]
	for _, f := range feeds {
		f.Clear()
	}
	v.ensureRootReach()
	for _, i := range v.insBuf {
		rootFeeds := g.IsRoot(i) || g.IsUserForbidden(i) || g.PredsIntersect(i, v.rootReach)
		if !rootFeeds {
			continue
		}
		v.tr.ReachForwardAvoiding(v.reach, g.Succs(i), v.ins, v.within)
		for k, o := range v.outsBuf {
			if v.reach.Has(o) {
				feeds[k].Add(i)
			}
		}
	}
	for a := range feeds {
		for b := a + 1; b < len(feeds); b++ {
			if !feeds[a].Intersects(feeds[b]) {
				return false
			}
		}
	}
	return true
}

// internalDepth returns the number of edges on the longest path that stays
// inside S — the latency proxy used by the MaxDepth restriction. Members
// are visited in ascending id order, which is topological order
// (dfg.Graph.AddNode only accepts existing predecessors), so every member's
// depth is written before any in-S successor reads it; the scratch array
// needs no clearing.
func (v *Validator) internalDepth() int {
	g := v.g
	S := v.S
	max := int32(0)
	S.ForEach(func(u int) bool {
		d := int32(0)
		for _, p := range g.Preds(u) {
			if S.Has(p) {
				if dp := v.depthBuf[p] + 1; dp > d {
					d = dp
				}
			}
		}
		v.depthBuf[u] = d
		if d > max {
			max = d
		}
		return true
	})
	return int(max)
}

// Collect runs an enumeration function and gathers all cuts into a slice
// sorted by their vertex set, convenient for tests and tools. The
// comparator orders bitset words lexicographically — a deterministic total
// order computed without materializing per-cut signature strings.
func Collect(run func(visit func(Cut) bool) Stats) ([]Cut, Stats) {
	var cuts []Cut
	stats := run(func(c Cut) bool {
		cuts = append(cuts, c)
		return true
	})
	sort.Slice(cuts, func(i, j int) bool {
		return cuts[i].Nodes.Compare(cuts[j].Nodes) < 0
	})
	return cuts, stats
}
