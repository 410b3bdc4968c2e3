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

// Validator checks candidate vertex sets against the §3 problem statement,
// deriving everything from S alone in O(|S|) adjacency-row sweeps. It owns
// scratch storage (including a word-parallel dfg.Traverser), so it is
// cheap — and in steady state allocation-free — to call repeatedly, but
// not safe for concurrent use.
//
// Since the incremental validation engine landed (deltaval.go), Validator
// is the property-tested reference semantics rather than the incremental
// enumeration's hot path — the same demotion rebuildS underwent in PR 3.
// EnumerateBasic and the baseline searches still use it directly (their
// candidates are not maintained incrementally), DeltaValidator is pinned
// to it on randomized push/undo sequences, and the scalar implementations
// on dfg.Graph (IsConvex, TechnicalConditionHolds, IsConnectedCut) remain
// the reference below it in turn.
type Validator struct {
	g   *dfg.Graph
	opt Options
	tr  *dfg.Traverser

	ins, outs *bitset.Set
	down, up  *bitset.Set // ∪ReachFrom(S), ∪ReachTo(S) for the convexity gap
	rootReach *bitset.Set // reachable from the virtual source avoiding I(S)
	rootValid bool        // rootReach is current for this Validate call
	reach     *bitset.Set // per-input forward closure (connectedness)

	insBuf, outsBuf []int
	inputsTo        []uint64
	depthBuf        []int32
}

// NewValidator creates a Validator for g under the given options.
func NewValidator(g *dfg.Graph, opt Options) *Validator {
	n := g.N()
	return &Validator{
		g:         g,
		opt:       opt,
		tr:        g.NewTraverser(),
		ins:       bitset.New(n),
		outs:      bitset.New(n),
		down:      bitset.New(n),
		up:        bitset.New(n),
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
	g := v.g
	if S.Empty() {
		return false
	}
	if S.Intersects(g.ForbiddenSet()) || S.Intersects(g.RootSet()) {
		return false
	}
	v.tr.InputsInto(v.ins, S)
	v.insBuf = v.ins.AppendMembers(v.insBuf[:0])
	v.rootValid = false
	if len(v.insBuf) > v.opt.MaxInputs {
		return false
	}
	v.tr.OutputsInto(v.outs, S)
	v.outsBuf = v.outs.AppendMembers(v.outsBuf[:0])
	if len(v.outsBuf) > v.opt.MaxOutputs {
		return false
	}
	if !v.isConvex(S) {
		return false
	}
	if !v.technicalConditionHolds() {
		return false
	}
	if v.opt.ConnectedOnly && !v.isConnectedCut() {
		return false
	}
	if v.opt.MaxDepth > 0 && v.internalDepth(S) > v.opt.MaxDepth {
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

// isConvex is the word-parallel form of definition 2. S is convex exactly
// when the gap region ReachFrom(S) ∩ ReachTo(S) \ S is empty: a vertex
// there lies outside S on a path between two members. Restricting the test
// to the gap region costs |S| row unions instead of a scan over all N
// vertices.
func (v *Validator) isConvex(S *bitset.Set) bool {
	g := v.g
	v.down.Clear()
	v.up.Clear()
	S.ForEach(func(u int) bool {
		v.down.Union(g.ReachFrom(u))
		v.up.Union(g.ReachTo(u))
		return true
	})
	return !v.down.AndNotAny(v.up, S)
}

// technicalConditionHolds implements the §3 condition on the inputs
// computed by the enclosing Validate call (v.ins / v.insBuf): every input w
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
// avoiding I(S) once per Validate call; the technical-condition and
// connectedness checks share it.
func (v *Validator) ensureRootReach() {
	if !v.rootValid {
		v.tr.ReachForwardAvoiding(v.rootReach, v.g.Entries(), v.ins, nil)
		v.rootValid = true
	}
}

// isConnectedCut implements definition 4 on the word-parallel engine (the
// generalized-dominator sense of "input to a vertex" established by theorem
// 1; see Graph.IsConnectedCut for the scalar reference). Per input the
// scalar version runs a traversal pair per output; here one shared
// root-reachability closure settles the root→input half for every input,
// and one forward closure per feeding input covers all outputs at once.
func (v *Validator) isConnectedCut() bool {
	if len(v.outsBuf) <= 1 {
		return true
	}
	if len(v.insBuf) > 64 {
		return false // cannot happen under any sane port constraint
	}
	g := v.g
	v.inputsTo = v.inputsTo[:0]
	for range v.outsBuf {
		v.inputsTo = append(v.inputsTo, 0)
	}
	v.ensureRootReach()
	for bi, i := range v.insBuf {
		rootFeeds := g.IsRoot(i) || g.IsUserForbidden(i) || g.PredsIntersect(i, v.rootReach)
		if !rootFeeds {
			continue
		}
		v.tr.ReachForwardAvoiding(v.reach, g.Succs(i), v.ins, nil)
		for k, o := range v.outsBuf {
			if v.reach.Has(o) {
				v.inputsTo[k] |= 1 << uint(bi)
			}
		}
	}
	for a := 0; a < len(v.outsBuf); a++ {
		for b := a + 1; b < len(v.outsBuf); b++ {
			if v.inputsTo[a]&v.inputsTo[b] == 0 {
				return false
			}
		}
	}
	return true
}

// internalDepth returns the number of edges on the longest path that stays
// inside S — the latency proxy used by the MaxDepth restriction. The
// per-vertex depths live in a reusable scratch array; no clearing is needed
// because every member's entry is written before any in-S successor reads
// it (topological order).
func (v *Validator) internalDepth(S *bitset.Set) int {
	g := v.g
	max := int32(0)
	for u := 0; u < g.N(); u++ {
		if !S.Has(u) {
			continue
		}
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
	}
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
