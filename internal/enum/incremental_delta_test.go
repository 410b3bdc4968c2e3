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

// engineOp is one push, replayed backward to undo: an output push, a seed
// push (seed), which leaves S alone, or a completion, whose one shrink
// applies every input pushed so far.
type engineOp struct {
	isOutput bool
	seed     bool
	v        int
	depth    int
}

// unapplied counts the seeds no completion has applied yet: the run of
// seed pushes on top of the stack.
func unapplied(stack []engineOp) int {
	k := 0
	for k < len(stack) && stack[len(stack)-1-k].seed {
		k++
	}
	return k
}

// sMatchesRebuild reports whether S is the from-scratch cut of the chosen
// outputs and the applied inputs: every chosen input but the last pending
// ones, the seeds no completion has applied yet.
func (e *incEnum) sMatchesRebuild(scratch *bitset.Set, pending int) bool {
	seeds := e.Ilist[len(e.Ilist)-pending:]
	for _, v := range seeds {
		e.Iuser.Remove(v)
	}
	scratch.Clear()
	e.tr.CutNodesInto(scratch, e.outs, e.Iuser)
	for _, v := range seeds {
		e.Iuser.Add(v)
	}
	return e.S.Equal(scratch)
}

// undo pops the push on top of the stack the way the search does.
func (e *incEnum) undo(op engineOp) {
	switch {
	case op.isOutput:
		e.undoGrowS(op.depth)
		e.outSet.Remove(op.v)
		e.outs = e.outs[:len(e.outs)-1]
	case op.seed:
		e.popInput(op.v)
	default:
		e.undoShrinkS(op.depth)
		e.popInput(op.v)
	}
}

// TestEngineDeltaSMatchesRebuildS drives random push/undo sequences
// through the engine: output pushes, seed pushes that leave S alone until
// a completion, and completions that apply every input pushed so far with
// one shrink. S must match the rebuild over the applied inputs after every
// push and pop, and each completion must run exactly one shrink and each
// seed push none. Seeds and completions are drawn from the cut with every
// chosen input blocked, as the search draws them from the surviving-path
// region and the reduced-graph chain, and outputs are pushed only with no
// seed pending, as the search pushes them only below a completion.
// ShrinkCut recomputes S from the input set, so this also checks that one
// shrink over a run of seeds and their completion is exact.
func TestEngineDeltaSMatchesRebuildS(t *testing.T) {
	t.Run("delta", func(t *testing.T) { checkEngineDeltaS(t) })
}

func checkEngineDeltaS(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randValGraph(r, 8+r.Intn(120))
		sh := newEnumShared(g, DefaultOptions())
		e := sh.newWorker(func(Cut) bool { return true }, nil)
		ref := bitset.New(g.N())
		var stack []engineOp
		depth := 0

		// pickIn draws a non-output member of the cut with every chosen
		// input blocked, or -1.
		pickIn := func() int {
			e.tr.CutNodesInto(ref, e.outs, e.Iuser)
			for probe := 0; probe < 8; probe++ {
				c := r.Intn(g.N())
				if ref.Has(c) && !e.outSet.Has(c) {
					return c
				}
			}
			return -1
		}
		for step := 0; step < 80; step++ {
			shrinks := e.work.Shrinks
			op := engineOp{depth: depth}
			switch k := r.Intn(6); {
			case k == 0 && len(stack) > 0: // undo the top push
				e.undo(stack[len(stack)-1])
				stack = stack[:len(stack)-1]
				depth--
			case k == 2 && len(e.outs) > 0: // push a seed, leaving S alone
				if op.v = pickIn(); op.v < 0 {
					continue
				}
				op.seed = true
				e.pushInput(op.v)
			case (k == 3 || e.S.Empty()) && unapplied(stack) == 0: // push an output
				if op.v = r.Intn(g.N()); e.S.Has(op.v) || e.Iuser.Has(op.v) || e.outSet.Has(op.v) {
					continue
				}
				op.isOutput = true
				e.outs = append(e.outs, op.v)
				e.outSet.Add(op.v)
				e.growS(depth)
			case len(e.outs) > 0: // complete: one shrink for it and the pending seeds
				if op.v = pickIn(); op.v < 0 {
					continue
				}
				e.pushInput(op.v)
				e.shrinkS(depth)
			default:
				continue
			}
			if depth == op.depth { // a push, not an undo
				want := shrinks
				if !op.seed && !op.isOutput {
					want++
				}
				if e.work.Shrinks != want {
					t.Logf("seed=%d step=%d: %d shrinks for push %+v, want %d", seed, step, e.work.Shrinks-shrinks, op, want-shrinks)
					return false
				}
				stack = append(stack, op)
				depth++
			}
			if !e.sMatchesRebuild(ref, unapplied(stack)) {
				t.Logf("seed=%d step=%d: S=%v rebuild=%v outs=%v I=%v pending=%d",
					seed, step, e.S.Members(), ref.Members(), e.outs, e.Ilist, unapplied(stack))
				return false
			}
		}
		// Full unwind must leave the worker empty, as the depth-0 range of
		// the next top-level position requires.
		for len(stack) > 0 {
			e.undo(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
			if !e.sMatchesRebuild(ref, unapplied(stack)) {
				return false
			}
		}
		return e.S.Empty() && e.Iuser.Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
