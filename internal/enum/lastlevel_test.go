package enum

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"polyise/internal/bitset"
	"polyise/internal/dfg"
	"polyise/internal/workload"
)

// shuffledTopo rebuilds g under a random topological renumbering: the same
// DAG with other node ids, so the id-order arguments of the last-level
// table meet many layouts of one shape.
func shuffledTopo(g *dfg.Graph, r *rand.Rand) *dfg.Graph {
	n := g.N()
	indeg := make([]int, n)
	for v := 0; v < n; v++ {
		indeg[v] = len(g.Preds(v))
	}
	var ready, order []int
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	for len(ready) > 0 {
		i := r.Intn(len(ready))
		v := ready[i]
		ready[i] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, v)
		for _, w := range g.Succs(v) {
			if indeg[w]--; indeg[w] == 0 {
				ready = append(ready, w)
			}
		}
	}
	id := make([]int, n)
	out := dfg.New()
	for _, v := range order {
		preds := make([]int, 0, len(g.Preds(v)))
		for _, p := range g.Preds(v) {
			preds = append(preds, id[p])
		}
		id[v] = out.MustAddNode(g.Op(v), g.Name(v), preds...)
		if g.IsUserForbidden(v) {
			if err := out.MarkForbidden(id[v]); err != nil {
				panic(err)
			}
		}
	}
	out.MustFreeze()
	return out
}

type namedGraph struct {
	name string
	g    *dfg.Graph
}

// lastLevelCorpus is the property test's block mix: MiBench-like blocks
// (memory ops forbidden, plus a restricted-ISA variant), the figure 4 tree
// and the butterfly, each also under a random topological renumbering.
func lastLevelCorpus() []namedGraph {
	r := rand.New(rand.NewSource(13))
	var out []namedGraph
	add := func(name string, g *dfg.Graph) {
		out = append(out, namedGraph{name, g}, namedGraph{name + "-shuffled", shuffledTopo(g, r)})
	}
	for _, n := range []int{24, 60, 120, 200} {
		g := workload.MiBenchLike(rand.New(rand.NewSource(int64(n))), n, workload.DefaultProfile())
		add(fmt.Sprintf("mibench-n%d", n), g)
	}
	add("mibench-n90-nomul", workload.WithForbiddenOps(
		workload.MiBenchLike(rand.New(rand.NewSource(90)), 90, workload.DefaultProfile()), dfg.OpMul, dfg.OpShl))
	add("tree-d5", workload.Tree(5, 2))
	add("tree-d3-a3", workload.Tree(3, 3))
	add("butterfly-4", workload.Butterfly(4))
	return out
}

// TestLastLevelChainsMatchSweep pins the last input level to the analysis
// it replaces. For random parent states (output o, a blocked input set),
// the table armed with the parent's folded sweep must, for every seed s
// from the highest entry top up to o, taken in the seed loop's descending
// order, report s dominated exactly when the analysis of the child with s
// blocked finds o unreachable, and a served child's chainFor must give
// exactly the members below s of the child's dominator chain, the part the
// child's completion loop reads before it stops at the first vertex above
// s. The child also skips the seed-alive check, which for s itself rests
// on s keeping a successor that reaches o.
//
// The same holds for a table armed from o's cone memo entry, with no
// chosen input in the cone. Each entry is re-armed whenever its output
// comes round again, its seed walk starting at a random seed each time, so
// that the first served seed, up to which a folded table would derive its
// L values, differs between arms of one entry.
//
// Below top the seed loop stops (the cutoff), and the test certifies its
// premise directly: for every on-path s < top, the sweep with s blocked,
// and with up to two more random vertices below s blocked as later inputs
// of the phase would be, must still reach o with no dominator below s, so
// no completion of that subtree exists.
func TestLastLevelChainsMatchSweep(t *testing.T) {
	for _, blk := range lastLevelCorpus() {
		t.Run(blk.name, func(t *testing.T) {
			g := blk.g
			n := g.N()
			r := rand.New(rand.NewSource(int64(n)))
			e := newAnalyzer(g)
			back, onPath := bitset.New(n), bitset.New(n)
			cBack, cOnPath := bitset.New(n), bitset.New(n)
			var chain, full, want, got []int
			children, partnered, dominated, cutoff, memoChildren := 0, 0, 0, 0, 0
			// walk runs the armed table's seed loop from s0 down to top
			// and checks every child against its analysis.
			walk := func(o, s0, top int, back, onPath *bitset.Set, chain []int) (served int) {
				for s := s0; s >= top; s-- {
					if !onPath.Has(s) {
						continue
					}
					e.Iuser.Add(s)
					var wantReach bool
					wantReach, full = e.analyzeSeed(o, s, cBack, cOnPath, back, full[:0], nil)
					e.Iuser.Remove(s)
					if !g.SuccsIntersect(s, cBack) {
						t.Fatalf("o=%d I=%v s=%d: the seed lost every path to o", o, e.Iuser.Members(), s)
					}
					if e.last.dominated(s) == wantReach {
						t.Fatalf("o=%d I=%v s=%d: dominated %v, sweep reachable %v", o, e.Iuser.Members(), s, !wantReach, wantReach)
					}
					if !wantReach {
						dominated++
						continue
					}
					want = want[:0]
					for _, v := range full {
						if v < s {
							want = append(want, v)
						}
					}
					served++
					got = e.last.chainFor(s, got[:0])
					if !slices.Equal(got, want) {
						t.Fatalf("o=%d I=%v s=%d (walk from %d): chainFor %v, sweep below s %v (sweep %v, parent chain %v)",
							o, e.Iuser.Members(), s, s0, got, want, full, chain)
					}
					if len(want) > len(below(chain, s)) {
						partnered++
					}
				}
				return served
			}
			for trial := 0; trial < 300; trial++ {
				o := r.Intn(n)
				if g.IsForbidden(o) {
					continue
				}
				e.Iuser.Clear()
				back.Copy(g.ReachTo(o)) // as the output push leaves it
				back.Add(o)
				if c := e.coneEntry(o, back, onPath, nil); c.reach && o > int(c.top) {
					top := int(c.top)
					chain = append(chain[:0], e.cones.chainOf(c)...)
					e.last.arm(onPath, chain, top, e.cones.treeOf(c), true)
					memoChildren += walk(o, top+r.Intn(o-top), top, back, onPath, chain)
				}

				anc := g.ReachTo(o).Members()
				for k := r.Intn(3); k > 0 && len(anc) > 0; k-- {
					e.Iuser.Add(anc[r.Intn(len(anc))])
				}
				var reach bool
				reach, chain = e.analyzeStart(o, back, onPath, chain[:0], e.last.scratchTree(g))
				if !reach {
					continue
				}
				top := dfg.HighestMaskedBit(g.EntrySet().Words(), back.Words())
				e.last.arm(onPath, chain, top, e.last.scratch, false)
				children += walk(o, o-1, top, back, onPath, chain)
				for s := top - 1; s >= 0; s-- {
					if !onPath.Has(s) {
						continue
					}
					cutoff++
					blocked := []int{s}
					for k := r.Intn(3); k > 0; k-- {
						if v := r.Intn(s + 1); v < s && !e.Iuser.Has(v) && !slices.Contains(blocked, v) {
							blocked = append(blocked, v)
						}
					}
					for _, v := range blocked {
						e.Iuser.Add(v)
					}
					var cReach bool
					cReach, full = e.analyzeStart(o, cBack, cOnPath, full[:0], nil)
					for _, v := range blocked {
						e.Iuser.Remove(v)
					}
					if !cReach || (len(full) > 0 && full[0] < s) {
						t.Fatalf("o=%d I=%v top=%d blocked %v: reachable %v, dominators %v", o, e.Iuser.Members(), top, blocked, cReach, full)
					}
				}
			}
			if children == 0 || memoChildren == 0 || e.work.MemoHits == 0 || dominated == 0 || cutoff == 0 {
				t.Fatalf("%d served from folded tables, %d from memo tables (%d re-arms), %d dominated and %d cut-off children compared; each kind must occur",
					children, memoChildren, e.work.MemoHits, dominated, cutoff)
			}
			t.Logf("%d served children compared from folded tables and %d from memo tables (%d entries, %d re-arms), %d with separating-pair partners; %d dominated, %d below top",
				children, memoChildren, e.work.MemoFills, e.work.MemoHits, partnered, dominated, cutoff)
		})
	}
}

// TestLastLevelChainBelowTopPanics checks chainFor's precondition: a seed
// below the armed table's top, which the seed loop's cutoff never serves,
// panics instead of reading L values no fold derived.
func TestLastLevelChainBelowTopPanics(t *testing.T) {
	g := workload.MiBenchLike(rand.New(rand.NewSource(60)), 60, workload.DefaultProfile())
	n := g.N()
	e := newAnalyzer(g)
	back, onPath := bitset.New(n), bitset.New(n)
	for o := n - 1; o >= 0; o-- {
		if g.IsForbidden(o) {
			continue
		}
		reach, chain := e.analyzeStart(o, back, onPath, nil, e.last.scratchTree(g))
		if !reach {
			continue
		}
		top := dfg.HighestMaskedBit(g.EntrySet().Words(), back.Words())
		for s := top - 1; s >= 0; s-- {
			if !onPath.Has(s) {
				continue
			}
			e.last.arm(onPath, chain, top, e.last.scratch, false)
			defer func() {
				if r := recover(); r == nil {
					t.Fatalf("o=%d top=%d: chainFor(%d) returned", o, top, s)
				} else {
					t.Logf("o=%d top=%d s=%d: %v", o, top, s, r)
				}
			}()
			e.last.chainFor(s, nil)
			return
		}
	}
	t.Fatal("no output with an on-path vertex below its top")
}

// refTree is the reference for a table's tree over the on-path set onPath
// of output o (with reaches-o set back and highest entry top), computed
// the long way: H ranked in id order; dominator sets, {v} for an entry and
// otherwise {v} plus the intersection over v's on-path predecessors, whose
// highest other member is the immediate dominator; each vertex's highest
// successor in back; and, for the vertices from top on, L as the highest
// common dominator of every tail a < v whose highest successor lies above
// v. The virtual source is -1 throughout.
func refTree(g *dfg.Graph, o int, back, onPath *bitset.Set, top int) []treeNode {
	n := g.N()
	rank := make([]int32, n)
	dom := make([]*bitset.Set, n)
	var tree []treeNode
	highest := func(d *bitset.Set, skip int) int32 {
		for v := n - 1; v >= 0; v-- {
			if v != skip && d.Has(v) {
				return rank[v]
			}
		}
		return -1
	}
	for v := 0; v < o; v++ {
		if !onPath.Has(v) {
			continue
		}
		dom[v] = bitset.New(n)
		if !g.IsRoot(v) && !g.IsUserForbidden(v) {
			first := true
			for _, p := range g.Preds(v) {
				if !onPath.Has(p) {
					continue
				}
				if first {
					dom[v].Copy(dom[p])
					first = false
				} else {
					dom[v].Intersect(dom[p])
				}
			}
		}
		dom[v].Add(v)
		reach := int32(-1)
		for _, w := range g.Succs(v) {
			if back.Has(w) {
				reach = max(reach, int32(w))
			}
		}
		rank[v] = int32(len(tree))
		tree = append(tree, treeNode{vert: int32(v), idom: highest(dom[v], v), reach: reach, lca: -1})
	}
	for r := range tree {
		v := tree[r].vert
		if int(v) < top {
			continue
		}
		var common *bitset.Set
		for _, a := range tree[:r] {
			if a.reach > v {
				if common == nil {
					common = dom[a.vert].Clone()
				} else {
					common.Intersect(dom[a.vert])
				}
			}
		}
		if common != nil {
			tree[r].lca = highest(common, -1)
		}
	}
	return tree
}

// sameTree compares a folded tree with the reference rank by rank, L only
// from top on, where it is defined.
func sameTree(got, want []treeNode, top int) bool {
	if len(got) != len(want) {
		return false
	}
	for r, w := range want {
		g := got[r]
		if int(w.vert) < top {
			g.lca, w.lca = 0, 0
		}
		if g != w {
			return false
		}
	}
	return true
}

// TestConeMemoMatchesAnalysis pins the cone memo and the folding sweep to
// the analysis and the tree they replace. On random graphs and the
// last-level corpus, with a random chosen input set: for every output
// whose cone holds no chosen input, its memo entry (filled, or read back
// on the second pass) must give the back and onPath sets, chain, verdict
// and top of a fresh analyzePaths, and a tree equal to refTree's — ranks,
// immediate dominators, highest successors and L values. For every other
// output the sweep folded into the scratch tree must give the analysis
// of the plain sweep and refTree's ranks, immediate dominators and
// highest successors, and foldL over all its ranks refTree's L values.
func TestConeMemoMatchesAnalysis(t *testing.T) {
	graphs := []*dfg.Graph{}
	r := rand.New(rand.NewSource(31))
	for i := 0; i < 40; i++ {
		graphs = append(graphs, randDFGLocal(r, 3+r.Intn(40)))
	}
	for _, blk := range lastLevelCorpus() {
		graphs = append(graphs, blk.g)
	}
	entries, folds := 0, 0
	for gi, g := range graphs {
		n := g.N()
		e := newAnalyzer(g)
		for v := 0; v < n; v++ {
			if r.Intn(12) == 0 {
				e.Iuser.Add(v)
			}
		}
		back, onPath, wBack, wOnPath := bitset.New(n), bitset.New(n), bitset.New(n), bitset.New(n)
		var chain, want []int
		for pass := 0; pass < 2; pass++ {
			for o := 0; o < n; o++ {
				if g.IsForbidden(o) || e.Iuser.Has(o) {
					continue
				}
				var wantReach bool
				wantReach, want = e.analyzeStart(o, wBack, wOnPath, want[:0], nil)
				top := dfg.HighestMaskedBit(g.EntrySet().Words(), wBack.Words())
				ref := refTree(g, o, wBack, wOnPath, top)
				if !e.Iuser.Intersects(g.ReachTo(o)) {
					back.Copy(g.ReachTo(o)) // as the output push leaves it
					back.Add(o)
					c := e.coneEntry(o, back, onPath, chain[:0])
					if !back.Equal(wBack) || !onPath.Equal(wOnPath) || c.reach != wantReach || int(c.top) != top ||
						!slices.Equal(e.cones.chainOf(c), want) {
						t.Fatalf("graph %d o=%d pass %d: memo back %v onPath %v chain %v reach %v top %d, analysis %v %v %v %v %d",
							gi, o, pass, back, onPath, e.cones.chainOf(c), c.reach, c.top, wBack, wOnPath, want, wantReach, top)
					}
					if !sameTree(e.cones.treeOf(c), ref, top) {
						t.Fatalf("graph %d o=%d pass %d: memo tree %v, reference %v (top %d)", gi, o, pass, e.cones.treeOf(c), ref, top)
					}
					entries++
					continue
				}
				if pass > 0 {
					continue
				}
				var reach bool
				reach, chain = e.analyzeStart(o, back, onPath, chain[:0], e.last.scratchTree(g))
				if reach != wantReach || !slices.Equal(chain, want) || !onPath.Equal(wOnPath) {
					t.Fatalf("graph %d o=%d I=%v: folding sweep %v %v %v, plain sweep %v %v %v",
						gi, o, e.Iuser, reach, chain, onPath, wantReach, want, wOnPath)
				}
				if !reach {
					continue
				}
				tree := e.last.scratch[:len(ref)]
				e.last.foldL(tree, top, rankIn(onPath.Words(), top), int32(len(tree)))
				if !sameTree(tree, ref, top) {
					t.Fatalf("graph %d o=%d I=%v: folded tree %v, reference %v (top %d)", gi, o, e.Iuser, tree, ref, top)
				}
				folds++
			}
		}
		if e.work.MemoHits != e.work.MemoFills {
			t.Fatalf("graph %d: %d fills, %d hits; the second pass must read every entry back", gi, e.work.MemoFills, e.work.MemoHits)
		}
	}
	if entries == 0 || folds == 0 {
		t.Fatalf("%d memo entries and %d folded trees compared; both must occur", entries, folds)
	}
	t.Logf("%d memo entries and %d folded trees compared", entries, folds)
}

// TestLastLevelCounters pins the last-level ledger, the pruning counters
// and the admission counters on the n=140 gap instance at Nin=4 and Nin=6.
// Tables built, chains served, seeds pruned, outputs tried, candidates and
// their Duplicates (non-canonical) / Invalid verdicts are exact work counts,
// like LTRuns (which still counts every last-level child, decided in the
// parent or served): each is a function of the search node that produced
// it, so a complete parallel run must reproduce the serial values.
func TestLastLevelCounters(t *testing.T) {
	gi := workload.GapRegressionInstances()[0]
	if gi.Name != "mibench-n140-seed5" {
		t.Fatalf("gap instance 0 is %s", gi.Name)
	}
	g := gi.Graph()
	rows := []struct {
		nin  int
		want Stats
	}{
		{4, Stats{
			Valid: gi.WantCuts, Candidates: 8570, Duplicates: 198, Invalid: 739,
			LTRuns: 50970, SeedsPruned: 2196, OutputsTried: 16497,
			LastLevelTables: 5732, LastLevelLookups: 36150,
		}},
		{6, Stats{
			Valid: 7668, Candidates: 66496, Duplicates: 294, Invalid: 1472,
			LTRuns: 344487, SeedsPruned: 92668, OutputsTried: 39424,
			LastLevelTables: 34788, LastLevelLookups: 146540,
		}},
	}
	for _, row := range rows {
		if testing.Short() && row.nin > 4 {
			continue // the race run's budget; the non-race run pins it
		}
		for _, workers := range []int{1, 3} {
			opt := DefaultOptions()
			opt.Parallelism = workers
			opt.MaxInputs = row.nin
			st := Enumerate(g, opt, func(Cut) bool { return true })
			got := Stats{
				Valid: st.Valid, Candidates: st.Candidates, Duplicates: st.Duplicates, Invalid: st.Invalid,
				LTRuns: st.LTRuns, SeedsPruned: st.SeedsPruned, OutputsTried: st.OutputsTried,
				LastLevelTables: st.LastLevelTables, LastLevelLookups: st.LastLevelLookups,
			}
			if got != row.want {
				t.Errorf("Nin=%d, workers=%d: counters %+v, want %+v", row.nin, workers, got, row.want)
			}
		}
	}
}

// TestShrinkCutWork pins the cut-shrink work of a serial run on both gap
// instances: a seed push leaves S alone, and each completion runs one
// shrink over every chosen input, its phase's seeds included, so a seed
// pays for the kernel only through the completions below it.
func TestShrinkCutWork(t *testing.T) {
	want := map[string]int{"mibench-n140-seed5": 8591, "mibench-n220-seed17": 20995}
	for _, gi := range workload.GapRegressionInstances() {
		w, ok := want[gi.Name]
		if !ok {
			t.Fatalf("no shrinkS pin for gap instance %s", gi.Name)
		}
		if testing.Short() && gi.N > 150 {
			continue // the race run's budget; the non-race run pins it
		}
		g := gi.Graph()
		opt := DefaultOptions()
		opt.Parallelism = 1
		cuts := 0
		e := newEnumShared(g, opt).newWorker(func(Cut) bool { cuts++; return true }, nil)
		for pos := 0; pos < g.N(); pos++ {
			e.pickOutputRange(0, pos, pos+1, opt.MaxInputs, opt.MaxOutputs)
		}
		if cuts != gi.WantCuts || e.work.Shrinks != w {
			t.Errorf("%s: %d cuts with %d shrinkS calls, want %d with %d", gi.Name, cuts, e.work.Shrinks, gi.WantCuts, w)
		}
	}
}

// TestConeMemoWork pins the cone memo's and the folded tree's work on a
// serial run of the n=140 gap instance and the depth-6 figure 4 tree at
// Nin=4: memo entries filled, phase starts served from an entry, and
// analyses at two inputs left that folded their tree into the scratch
// tree, which only a level whose seed loop runs does. Like the flow-bound counters they are exact functions of the
// search, and they stay out of Stats.
func TestConeMemoWork(t *testing.T) {
	gap := workload.GapRegressionInstances()[0]
	blocks := []struct {
		name               string
		g                  *dfg.Graph
		cuts               int
		fills, hits, folds int
	}{
		{gap.Name, gap.Graph(), gap.WantCuts, 100, 3416, 3939},
		{"tree-depth6", workload.Tree(6, 2), 1911, 63, 2429, 186},
	}
	for _, blk := range blocks {
		opt := DefaultOptions()
		opt.Parallelism = 1
		cuts := 0
		e := newEnumShared(blk.g, opt).newWorker(func(Cut) bool { cuts++; return true }, nil)
		for pos := 0; pos < blk.g.N(); pos++ {
			e.pickOutputRange(0, pos, pos+1, opt.MaxInputs, opt.MaxOutputs)
		}
		if cuts != blk.cuts || e.work.MemoFills != blk.fills || e.work.MemoHits != blk.hits || e.work.TreeFolds != blk.folds {
			t.Errorf("%s: %d cuts, memo fills/hits %d/%d, tree folds %d, want %d cuts, %d/%d, %d",
				blk.name, cuts, e.work.MemoFills, e.work.MemoHits, e.work.TreeFolds, blk.cuts, blk.fills, blk.hits, blk.folds)
		}
	}
}
