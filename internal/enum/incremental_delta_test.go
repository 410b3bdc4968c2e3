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
	"polyise/internal/faultinject"
)

// engineOp is one applied push, replayed backward to undo. A seed push
// (seed) may still be pending: its shrink deferred until the next flush.
type engineOp struct {
	isOutput bool
	seed     bool
	v        int
	depth    int
}

// sMatchesRebuild reports whether S is the from-scratch cut of the chosen
// outputs and the applied inputs: every chosen input except the pending
// seeds, whose shrinks have not run yet.
func (e *incEnum) sMatchesRebuild(scratch *bitset.Set) bool {
	seeds := e.Ilist[len(e.Ilist)-e.pending:]
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
		e.popSeed(op.depth, op.v)
	default:
		e.undoShrinkS(op.depth)
		e.popInput(op.v)
	}
}

// TestEngineDeltaSMatchesRebuildS drives random push/undo sequences
// through the engine, deferred seed pushes included: runs of pending
// seeds, flushes, and undos of flushed and still-pending seeds alike. S
// must match the rebuild over the applied inputs after every step. Seeds
// are drawn from the cut with every chosen input blocked, as the search
// draws them from the surviving-path region, and outputs and completion
// inputs are pushed only with no seed pending, as the search pushes them
// only after a flush. The second run forces ShrinkCut onto its rebuild
// fallback, which reads the input set, so it also checks that a flush
// shows each shrink only the seeds pushed before it.
func TestEngineDeltaSMatchesRebuildS(t *testing.T) {
	t.Run("delta", func(t *testing.T) { checkEngineDeltaS(t) })
	t.Run("fallback", func(t *testing.T) {
		faultinject.ForceFallback = func() bool { return true }
		defer faultinject.Uninstall()
		checkEngineDeltaS(t)
	})
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

		// pickIn draws a non-output member of set, or -1.
		pickIn := func(set *bitset.Set) int {
			for probe := 0; probe < 8; probe++ {
				c := r.Intn(g.N())
				if set.Has(c) && !e.outSet.Has(c) {
					return c
				}
			}
			return -1
		}
		for step := 0; step < 80; step++ {
			switch k := r.Intn(6); {
			case k == 0 && len(stack) > 0: // undo the top push
				e.undo(stack[len(stack)-1])
				stack = stack[:len(stack)-1]
				depth--
			case k == 1 && e.pending > 0:
				e.flushSeeds(depth)
			case k == 2 && len(e.outs) > 0: // defer a seed push
				e.tr.CutNodesInto(ref, e.outs, e.Iuser)
				w := pickIn(ref)
				if w < 0 {
					continue
				}
				e.pushSeed(w)
				stack = append(stack, engineOp{seed: true, v: w, depth: depth})
				depth++
			case e.pending > 0:
				continue
			case k == 3 || e.S.Empty(): // push an output
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
				w := pickIn(e.S)
				if w < 0 {
					continue
				}
				e.pushInput(w)
				e.shrinkS(depth, w)
				stack = append(stack, engineOp{v: w, depth: depth})
				depth++
			}
			if !e.sMatchesRebuild(ref) {
				t.Logf("seed=%d step=%d: S=%v rebuild=%v outs=%v I=%v pending=%v",
					seed, step, e.S.Members(), ref.Members(), e.outs, e.Ilist, e.pending)
				return false
			}
		}
		// Full unwind must leave the worker empty, as the depth-0 range of
		// the next top-level position requires.
		for len(stack) > 0 {
			e.undo(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
			if !e.sMatchesRebuild(ref) {
				return false
			}
		}
		return e.S.Empty() && e.pending == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
