package enum

import (
	"fmt"
	"math/rand"
	"testing"

	"polyise/internal/dfg"
	"polyise/internal/domtree"
	"polyise/internal/workload"
)

// forbiddenFreePath reports, by a direct search, whether a path u→…→o
// exists whose interior avoids every user-forbidden vertex.
func forbiddenFreePath(g *dfg.Graph, u, o int) bool {
	seen := make([]bool, g.N())
	stack := []int{u}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.Succs(v) {
			if s == o {
				return true
			}
			if !seen[s] && !g.IsUserForbidden(s) {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

// TestRejectionMasksMatchRules pins the seed loop's rejection masks to a
// direct per-vertex evaluation of the §5.3 rules they replace. A
// completion u of output o is rejected by the output–input pruning when no
// forbidden-free path leads from u to o, when o's forbidden predecessors
// plus u exceed Nin, or (PruneForbiddenAncestors) when u is an ancestor of
// a forbidden ancestor of o. A seed is rejected by those rules and by the
// input–input pruning: postdominance with a chosen input. Random
// MiBench-like blocks, random chosen-input lists and Nin from 1 to 4 (so
// that the forbidden-predecessor count meets and exceeds the budget) run
// under DefaultOptions, PaperOptions and the forbidden-ancestor rule as
// the only approximate pruning.
func TestRejectionMasksMatchRules(t *testing.T) {
	pfaOnly := DefaultOptions()
	pfaOnly.PruneForbiddenAncestors = true
	configs := []struct {
		name string
		opt  Options
	}{{"default", DefaultOptions()}, {"paper", PaperOptions()}, {"forbidden-ancestors-only", pfaOnly}}

	var fired [5]int // ff path, forced preds, badIn, postdominance, accepted
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := workload.MiBenchLike(r, 30+r.Intn(90), workload.DefaultProfile())
		n := g.N()
		pdt := domtree.PostdominatorTree(g)
		for _, cfg := range configs {
			t.Run(fmt.Sprintf("seed%d-%s", seed, cfg.name), func(t *testing.T) {
				opt := cfg.opt
				for trial := 0; trial < 40; trial++ {
					opt.MaxInputs = 1 + r.Intn(4)
					e := newEnumShared(g, opt).newWorker(nil, nil)
					o := r.Intn(n)
					e.Ilist = e.Ilist[:0]
					for k := r.Intn(4); k > 0; k-- {
						if v := r.Intn(n); v != o {
							e.Ilist = append(e.Ilist, v)
						}
					}
					inRej := e.bufAt(&e.inRejs, 0)
					e.inputRejectsInto(inRej, o)
					rej := e.bufAt(&e.seedRejs, 0)
					e.seedRejectsInto(rej, inRej)

					forced := map[int]bool{}
					for _, p := range g.Preds(o) {
						if g.IsUserForbidden(p) {
							forced[p] = true
						}
					}
					for u := 0; u < n; u++ {
						ff := !forbiddenFreePath(g, u, o)
						over := len(forced)+btoi(!forced[u]) > opt.MaxInputs
						bad := false
						if opt.PruneForbiddenAncestors {
							for f := 0; f < n && !bad; f++ {
								bad = g.IsUserForbidden(f) && g.Reaches(f, o) && g.Reaches(u, f)
							}
						}
						pd := false
						for _, v := range e.Ilist {
							pd = pd || pdt.Dominates(u, v) || pdt.Dominates(v, u)
						}
						wantIn := ff || over || bad
						wantSeed := pd || wantIn
						if inRej.Has(u) != wantIn || rej.Has(u) != wantSeed {
							t.Fatalf("Nin=%d o=%d I=%v u=%d: completion mask %v, seed mask %v; rules: no ff path %v, forced over %v, bad %v, postdominance %v",
								opt.MaxInputs, o, e.Ilist, u, inRej.Has(u), rej.Has(u), ff, over, bad, pd)
						}
						for i, hit := range []bool{ff, over, bad, pd, !wantSeed} {
							fired[i] += btoi(hit)
						}
					}
				}
			})
		}
	}
	for i, c := range fired {
		if c == 0 {
			t.Errorf("rule %d never decided a vertex: the corpus does not exercise it", i)
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
