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

// TestLastLevelChainsMatchSweep pins the batched last input level to the
// analysis it replaces: for random parent states (output o, a blocked
// input set), the table recorded by the parent's sweep and armed with its
// chain must give, for every seed s on a surviving path, the reachability
// verdict and the dominator chain that analyzePaths computes for the child
// with s blocked. The child also skips the seed-alive check, which for s
// itself rests on s keeping a successor that reaches o.
func TestLastLevelChainsMatchSweep(t *testing.T) {
	for _, blk := range lastLevelCorpus() {
		t.Run(blk.name, func(t *testing.T) {
			g := blk.g
			n := g.N()
			r := rand.New(rand.NewSource(int64(n)))
			e := newAnalyzer(g)
			back, onPath := bitset.New(n), bitset.New(n)
			cBack, cOnPath := bitset.New(n), bitset.New(n)
			var chain, want, got []int
			children, partnered := 0, 0
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
				reach, chain = e.analyzePaths(o, back, onPath, nil, -1, chain[:0], true, &e.last)
				if !reach {
					continue
				}
				e.last.arm(chain)
				for s := onPath.Next(0); s >= 0 && s < o; s = onPath.Next(s + 1) {
					e.Iuser.Add(s)
					var wantReach bool
					wantReach, want = e.analyzePaths(o, cBack, cOnPath, back, s, want[:0], true, nil)
					e.Iuser.Remove(s)
					if gotReach := !e.last.onChain(s); gotReach != wantReach {
						t.Fatalf("o=%d I=%v s=%d: reachable %v, sweep %v", o, e.Iuser.Members(), s, gotReach, wantReach)
					}
					if !g.SuccsIntersect(s, cBack) {
						t.Fatalf("o=%d I=%v s=%d: the seed lost every path to o", o, e.Iuser.Members(), s)
					}
					if !wantReach {
						continue
					}
					children++
					got = e.last.chainFor(s, got[:0])
					if !slices.Equal(got, want) {
						t.Fatalf("o=%d I=%v s=%d: chainFor %v, sweep %v (parent chain %v)",
							o, e.Iuser.Members(), s, got, want, chain)
					}
					if len(want) > len(chain) {
						partnered++
					}
				}
			}
			if children == 0 {
				t.Fatal("no last-level child was compared")
			}
			t.Logf("%d children compared, %d with separating-pair partners", children, partnered)
		})
	}
}

// TestLastLevelCounters pins the last-level ledger and the admission
// counters on the n=140 gap instance. Tables built, chains served,
// candidates and their Duplicates (non-canonical) / Invalid verdicts are
// exact work counts, like LTRuns (which still counts every served chain):
// each is a function of the search node that produced it, so a complete
// parallel run must reproduce the serial values.
func TestLastLevelCounters(t *testing.T) {
	gi := workload.GapRegressionInstances()[0]
	if gi.Name != "mibench-n140-seed5" {
		t.Fatalf("gap instance 0 is %s", gi.Name)
	}
	g := gi.Graph()
	want := Stats{
		Valid: gi.WantCuts, Candidates: 8570, Duplicates: 198, Invalid: 739,
		LTRuns: 365475, LastLevelTables: 26646, LastLevelLookups: 328921,
	}
	for _, workers := range []int{1, 3} {
		opt := DefaultOptions()
		opt.Parallelism = workers
		st := Enumerate(g, opt, func(Cut) bool { return true })
		got := Stats{
			Valid: st.Valid, Candidates: st.Candidates, Duplicates: st.Duplicates, Invalid: st.Invalid,
			LTRuns: st.LTRuns, LastLevelTables: st.LastLevelTables, LastLevelLookups: st.LastLevelLookups,
		}
		if got != want {
			t.Fatalf("workers=%d: counters %+v, want %+v", workers, got, want)
		}
	}
}
