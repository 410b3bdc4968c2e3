package enum

// White-box property test for the incremental search-state engine: driving
// a real enumeration worker's push/undo methods (growS/shrinkS and their
// journal undos) through randomized sequences must keep the maintained cut
// S bit-identical to the from-scratch reference rebuildS at every step.
// This is the engine-level counterpart of the kernel-level
// TestDeltaCutMatchesRebuild in package dfg: it additionally exercises the
// per-depth journal slot discipline the recursion relies on.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"polyise/internal/bitset"
)

// engineOp is one applied push, replayed backward to undo.
type engineOp struct {
	isOutput bool
	v        int
	depth    int
}

func (e *incEnum) sMatchesRebuild(scratch *bitset.Set) bool {
	scratch.Clear()
	e.tr.CutNodesInto(scratch, e.outs, e.Iuser)
	return e.S.Equal(scratch)
}

func TestEngineDeltaSMatchesRebuildS(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randValGraph(r, 8+r.Intn(120))
		sh := newEnumShared(g, DefaultOptions())
		e := sh.newWorker(func(Cut) bool { return true }, nil)
		ref := bitset.New(g.N())
		var stack []engineOp
		depth := 0

		for step := 0; step < 60; step++ {
			switch {
			case r.Intn(3) == 0 && len(stack) > 0: // undo the top push
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if top.isOutput {
					e.undoGrowS(top.depth)
					e.outSet.Remove(top.v)
					e.outs = e.outs[:len(e.outs)-1]
				} else {
					e.undoShrinkS(top.depth)
					e.popInput(top.v)
				}
				depth--
			case r.Intn(2) == 0 || e.S.Empty(): // push an output
				o := r.Intn(g.N())
				if e.S.Has(o) || e.Iuser.Has(o) || e.outSet.Has(o) {
					continue
				}
				e.outs = append(e.outs, o)
				e.outSet.Add(o)
				e.growS(depth)
				stack = append(stack, engineOp{isOutput: true, v: o, depth: depth})
				depth++
			default: // push an input from inside S
				w := -1
				for probe := 0; probe < 8; probe++ {
					c := r.Intn(g.N())
					if e.S.Has(c) && !e.outSet.Has(c) {
						w = c
						break
					}
				}
				if w < 0 {
					continue
				}
				e.pushInput(w)
				e.shrinkS(depth, w)
				stack = append(stack, engineOp{isOutput: false, v: w, depth: depth})
				depth++
			}
			if !e.sMatchesRebuild(ref) {
				t.Logf("seed=%d step=%d: S=%v rebuild=%v outs=%v I=%v",
					seed, step, e.S.Members(), ref.Members(), e.outs, e.Ilist)
				return false
			}
		}
		// Full unwind must leave the worker empty, as the depth-0 range of
		// the next top-level position requires.
		for len(stack) > 0 {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if top.isOutput {
				e.undoGrowS(top.depth)
				e.outSet.Remove(top.v)
				e.outs = e.outs[:len(e.outs)-1]
			} else {
				e.undoShrinkS(top.depth)
				e.popInput(top.v)
			}
			if !e.sMatchesRebuild(ref) {
				return false
			}
		}
		return e.S.Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
