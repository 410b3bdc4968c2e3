package dfg

import (
	"fmt"
	"sort"

	"polyise/internal/bitset"
)

// This file implements the graph rewrites behind the iterative ISE flow of
// the paper's compiler toolchain [8]: extracting a cut as a standalone
// datapath graph (for RTL generation) and collapsing a cut into a single
// custom-instruction node so that identification can be repeated on the
// remainder of the block.

// ExtractCut builds a standalone frozen graph containing only the cut's
// computation: one OpVar per input (named after the original node when it
// has a name), the cut's interior operations, and the cut's outputs marked
// live-out. The returned mapping translates original node ids to extracted
// ids. Constants among the inputs stay constants.
func (g *Graph) ExtractCut(S *bitset.Set) (*Graph, map[int]int, error) {
	if !g.frozen {
		return nil, nil, ErrNotFrozen
	}
	if S.Empty() {
		return nil, nil, fmt.Errorf("dfg: ExtractCut of empty cut")
	}
	out := New()
	mapping := make(map[int]int)
	for _, in := range g.Inputs(S) {
		name := g.names[in]
		if name == "" {
			name = fmt.Sprintf("in%d", in)
		}
		var id int
		if g.ops[in] == OpConst {
			id = out.MustAddNode(OpConst, name)
			if err := out.SetConst(id, g.value[in]); err != nil {
				return nil, nil, err
			}
		} else {
			id = out.MustAddNode(OpVar, name)
		}
		mapping[in] = id
	}
	for _, v := range g.Topo() {
		if !S.Has(v) {
			continue
		}
		preds := make([]int, len(g.preds[v]))
		for i, p := range g.preds[v] {
			m, ok := mapping[p]
			if !ok {
				return nil, nil, fmt.Errorf("dfg: cut not convex-closed at node %d (pred %d)", v, p)
			}
			preds[i] = m
		}
		id, err := out.AddNode(g.ops[v], g.names[v], preds...)
		if err != nil {
			return nil, nil, err
		}
		if g.ops[v] == OpConst {
			if err := out.SetConst(id, g.value[v]); err != nil {
				return nil, nil, err
			}
		}
		mapping[v] = id
	}
	for _, o := range g.Outputs(S) {
		if err := out.MarkLiveOut(mapping[o]); err != nil {
			return nil, nil, err
		}
	}
	if err := out.Freeze(); err != nil {
		return nil, nil, err
	}
	return out, mapping, nil
}

// CollapseCut rebuilds the graph with the cut replaced by one OpCustom node
// whose const payload is latencyCycles. For a single-output cut the custom
// node directly replaces the output; for k outputs the custom node feeds k
// OpExtract selectors (payload = result index) and consumers are rewired to
// those. The returned mapping translates surviving original ids to new ids.
//
// The rewrite preserves the relative order of the graph's external inputs:
// collapsed.Roots()[i] is mapping[g.Roots()[i]] for every i. Positional
// environments (interp.Env.RootValues) depend on this contract to run the
// original and the collapsed block on the same inputs.
//
// Custom and extract nodes are implicitly forbidden, so repeated
// identification never re-absorbs an already-selected instruction.
func (g *Graph) CollapseCut(S *bitset.Set, name string, latencyCycles int) (*Graph, map[int]int, error) {
	if !g.frozen {
		return nil, nil, ErrNotFrozen
	}
	if S.Empty() {
		return nil, nil, fmt.Errorf("dfg: CollapseCut of empty cut")
	}
	if !g.IsConvex(S) {
		return nil, nil, fmt.Errorf("dfg: CollapseCut of non-convex set")
	}
	inputs := g.Inputs(S)
	outputs := g.Outputs(S)

	sort.Ints(inputs) // the documented operand order of the custom node

	out := newSized(g.N() - S.Count() + 1 + len(outputs))
	// ids[v] is the new id of survivor v (-1 until emitted); replaced[o]
	// for outputs of S is the node consumers read instead. Both are dense
	// slices: CollapseCut runs once per certified cut in the oracle sweeps.
	ids := make([]int, g.N())
	for v := range ids {
		ids[v] = -1
	}
	replaced := make([]int, g.N())

	// Collapsing creates new dependences (every consumer of an output now
	// depends on every input), so plain topological emission of survivors
	// can deadlock on interleavings. Convexity guarantees the rewritten
	// dependence relation is still acyclic, so demand-driven recursive
	// emission terminates.
	var emitNode func(v int) (int, error)
	customEmitted := false
	emitCustom := func() error {
		if customEmitted {
			return nil
		}
		customEmitted = true
		preds := make([]int, len(inputs))
		for i, in := range inputs {
			id, err := emitNode(in)
			if err != nil {
				return err
			}
			preds[i] = id
		}
		custom, err := out.AddNode(OpCustom, name, preds...)
		if err != nil {
			return err
		}
		if err := out.SetConst(custom, int64(latencyCycles)); err != nil {
			return err
		}
		if len(outputs) == 1 {
			replaced[outputs[0]] = custom
			if g.oext.Has(outputs[0]) {
				return out.MarkLiveOut(custom)
			}
			return nil
		}
		for idx, o := range outputs {
			ex, err := out.AddNode(OpExtract, fmt.Sprintf("%s.r%d", name, idx), custom)
			if err != nil {
				return err
			}
			if err := out.SetConst(ex, int64(idx)); err != nil {
				return err
			}
			replaced[o] = ex
			if g.oext.Has(o) {
				if err := out.MarkLiveOut(ex); err != nil {
					return err
				}
			}
		}
		return nil
	}
	emitNode = func(v int) (int, error) {
		if id := ids[v]; id >= 0 {
			return id, nil
		}
		if S.Has(v) {
			return 0, fmt.Errorf("dfg: emitNode called on cut member %d", v)
		}
		preds := make([]int, len(g.preds[v]))
		for i, p := range g.preds[v] {
			if S.Has(p) {
				if err := emitCustom(); err != nil {
					return 0, err
				}
				preds[i] = replaced[p]
				continue
			}
			id, err := emitNode(p)
			if err != nil {
				return 0, err
			}
			preds[i] = id
		}
		id, err := out.AddNode(g.ops[v], g.names[v], preds...)
		if err != nil {
			return 0, err
		}
		if g.ops[v] == OpConst || g.ops[v] == OpCustom || g.ops[v] == OpExtract {
			if err := out.SetConst(id, g.value[v]); err != nil {
				return 0, err
			}
		}
		if g.forb.Has(v) && g.ops[v] != OpCall && g.ops[v] != OpCustom && g.ops[v] != OpExtract {
			if err := out.MarkForbidden(id); err != nil {
				return 0, err
			}
		}
		if g.oext.Has(v) && len(g.succs[v]) > 0 {
			if err := out.MarkLiveOut(id); err != nil {
				return 0, err
			}
		}
		ids[v] = id
		return id, nil
	}

	// Emit every root first, in root order. Without this, demand-driven
	// emission reorders roots: a cut input that is a root with an id above
	// the first rewired consumer would be pulled forward by emitCustom,
	// shifting every root in between and silently breaking positional
	// RootValues environments (the semantic oracle caught exactly this on a
	// disconnected two-output cut). Roots have no predecessors, so emitting
	// them early cannot violate the topological id order.
	for _, r := range g.Roots() {
		if S.Has(r) {
			continue // unreachable: external inputs are forbidden in cuts
		}
		if _, err := emitNode(r); err != nil {
			return nil, nil, err
		}
	}
	for _, v := range g.Topo() {
		if S.Has(v) {
			continue
		}
		if _, err := emitNode(v); err != nil {
			return nil, nil, err
		}
	}
	if err := emitCustom(); err != nil { // cuts whose outputs feed nothing
		return nil, nil, err
	}
	if err := out.Freeze(); err != nil {
		return nil, nil, err
	}
	// Sanity: the rewrite must preserve node accounting.
	want := g.N() - S.Count() + 1
	if len(outputs) > 1 {
		want += len(outputs)
	}
	if out.N() != want {
		return nil, nil, fmt.Errorf("dfg: collapse accounting: got %d nodes, want %d", out.N(), want)
	}
	mapping := make(map[int]int, g.N()-S.Count())
	for v, id := range ids {
		if id >= 0 {
			mapping[v] = id
		}
	}
	return out, mapping, nil
}
