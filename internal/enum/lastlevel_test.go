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
// the table armed with the parent's sweep must, for every seed s from the
// highest entry top up to o, taken in the seed loop's descending order,
// report s dominated exactly when the analysis of the child with s blocked
// finds o unreachable, and a served child's chainFor must give exactly the
// members below s of the child's dominator chain, the part the child's
// completion loop reads before it stops at the first vertex above s. The
// child also skips the seed-alive check, which for s itself rests on s
// keeping a successor that reaches o.
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
			children, partnered, dominated, cutoff := 0, 0, 0, 0
			for trial := 0; trial < 300; trial++ {
				o := r.Intn(n)
				if g.IsForbidden(o) {
					continue
				}
				e.Iuser.Clear()
				anc := g.ReachTo(o).Members()
				for k := r.Intn(3); k > 0 && len(anc) > 0; k-- {
					e.Iuser.Add(anc[r.Intn(len(anc))])
				}
				var reach bool
				reach, chain = e.analyzePaths(o, back, onPath, nil, -1, chain[:0])
				if !reach {
					continue
				}
				top := dfg.HighestMaskedBit(g.EntrySet().Words(), back.Words())
				e.last.arm(g, onPath, back, chain, top)
				for s := o - 1; s >= 0; s-- {
					if !onPath.Has(s) {
						continue
					}
					if s < top {
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
						cReach, full = e.analyzePaths(o, cBack, cOnPath, nil, -1, full[:0])
						for _, v := range blocked {
							e.Iuser.Remove(v)
						}
						if !cReach || (len(full) > 0 && full[0] < s) {
							t.Fatalf("o=%d I=%v top=%d blocked %v: reachable %v, dominators %v", o, e.Iuser.Members(), top, blocked, cReach, full)
						}
						continue
					}
					e.Iuser.Add(s)
					var wantReach bool
					wantReach, full = e.analyzePaths(o, cBack, cOnPath, back, s, full[:0])
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
					children++
					got = e.last.chainFor(s, got[:0])
					if !slices.Equal(got, want) {
						t.Fatalf("o=%d I=%v s=%d: chainFor %v, sweep below s %v (sweep %v, parent chain %v)",
							o, e.Iuser.Members(), s, got, want, full, chain)
					}
					if len(full) > len(chain) {
						partnered++
					}
				}
			}
			if children == 0 || dominated == 0 || cutoff == 0 {
				t.Fatalf("%d served, %d dominated and %d cut-off children compared; each kind must occur", children, dominated, cutoff)
			}
			t.Logf("%d served children compared, %d with separating-pair partners; %d dominated, %d below top", children, partnered, dominated, cutoff)
		})
	}
}

// TestLastLevelChainBelowTopPanics checks chainFor's precondition: a seed
// below the armed table's top, which the seed loop's cutoff never serves,
// panics instead of reading ranks that build never set.
func TestLastLevelChainBelowTopPanics(t *testing.T) {
	g := workload.MiBenchLike(rand.New(rand.NewSource(60)), 60, workload.DefaultProfile())
	n := g.N()
	e := newAnalyzer(g)
	back, onPath := bitset.New(n), bitset.New(n)
	for o := n - 1; o >= 0; o-- {
		if g.IsForbidden(o) {
			continue
		}
		reach, chain := e.analyzePaths(o, back, onPath, nil, -1, nil)
		if !reach {
			continue
		}
		top := dfg.HighestMaskedBit(g.EntrySet().Words(), back.Words())
		for s := top - 1; s >= 0; s-- {
			if !onPath.Has(s) {
				continue
			}
			e.last.arm(g, onPath, back, chain, top)
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
// instances: every completion shrinks S, but a seed push shrinks it only
// when a completion below it checks a cut (flushSeeds), so most seeds —
// those whose subtrees die in analysis — never pay for the kernel.
func TestShrinkCutWork(t *testing.T) {
	want := map[string]int{"mibench-n140-seed5": 15791, "mibench-n220-seed17": 37635}
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
		if cuts != gi.WantCuts || e.shrinks != w {
			t.Errorf("%s: %d cuts with %d shrinkS calls, want %d with %d", gi.Name, cuts, e.shrinks, gi.WantCuts, w)
		}
	}
}
