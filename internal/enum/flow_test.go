package enum

import (
	"math/bits"
	"math/rand"
	"testing"

	"polyise/internal/bitset"
	"polyise/internal/dfg"
	"polyise/internal/workload"
)

// TestFlowBoundWork pins the §5.3 flow bound's work in a serial run of the
// four `deep` blocks and the n=220 gap instance at Nin=4, and of n140,
// tree(6,2) and butterfly(4) at Nin=6, where the bound runs some forty
// times as often: how often a seed level loads the rejected set and asks
// for the bound (calls), how often the structural caps leave the max-flow
// kernel to run (runs), how many augmenting-path searches the kernel runs
// after its one-pass phase (augments), and how often it prunes. The
// kernel's value is exact, so a faster kernel keeps calls, runs and
// prunes.
func TestFlowBoundWork(t *testing.T) {
	gap := workload.GapRegressionInstances()
	blocks := []struct {
		name                          string
		g                             *dfg.Graph
		nin, cuts                     int
		calls, runs, augments, prunes int
	}{
		{gap[0].Name, gap[0].Graph(), 4, gap[0].WantCuts, 3370, 2683, 508, 2175},
		{gap[1].Name, gap[1].Graph(), 4, gap[1].WantCuts, 6302, 4546, 1645, 2902},
		{"mibench-n160-seed2", workload.MiBenchLike(rand.New(rand.NewSource(2)), 160, workload.DefaultProfile()), 4, 4497, 1355, 747, 426, 321},
		{"tree-depth6", workload.Tree(6, 2), 4, 1911, 820, 582, 73, 509},
		{"butterfly-4", workload.Butterfly(4), 4, 1800, 1072, 800, 160, 640},
		{gap[0].Name, gap[0].Graph(), 6, 7668, 153513, 121564, 28963, 92609},
		{"tree-depth6", workload.Tree(6, 2), 6, 11181, 33952, 24221, 3631, 20590},
		{"butterfly-4", workload.Butterfly(4), 6, 1800, 71776, 57584, 10960, 46624},
	}
	for _, blk := range blocks {
		if testing.Short() && (blk.g.N() > 150 || blk.nin > 4) {
			continue // the race run's budget; the non-race run pins it
		}
		opt := DefaultOptions()
		opt.Parallelism = 1
		opt.MaxInputs = blk.nin
		cuts := 0
		e := newEnumShared(blk.g, opt).newWorker(func(Cut) bool { cuts++; return true }, nil)
		for pos := 0; pos < blk.g.N(); pos++ {
			e.pickOutputRange(0, pos, pos+1, opt.MaxInputs, opt.MaxOutputs)
		}
		w := e.work
		if cuts != blk.cuts || w.FlowCalls != blk.calls || w.FlowRuns != blk.runs || w.FlowAugments != blk.augments || w.FlowPrunes != blk.prunes {
			t.Errorf("%s at Nin=%d: %d cuts, flow bound calls/runs/augments/prunes %d/%d/%d/%d, want %d cuts, %d/%d/%d/%d",
				blk.name, blk.nin, cuts, w.FlowCalls, w.FlowRuns, w.FlowAugments, w.FlowPrunes, blk.cuts, blk.calls, blk.runs, blk.augments, blk.prunes)
		}
	}
}

// edmondsKarpBound is the reference for completionFlowBound: Edmonds–Karp
// over an explicit residual edge array on the same split network (v_in=2v,
// v_out=2v+1, the source 2n, the sink o_in), stopping once the flow
// exceeds flowCap.
func edmondsKarpBound(g *dfg.Graph, o int, onPath, uncut *bitset.Set, flowCap int) int {
	const infCap = int32(1 << 30)
	n := g.N()
	src, sink := int32(2*n), int32(2*o)
	head := make([]int32, 2*n+1)
	for i := range head {
		head[i] = -1
	}
	var next, to, capa []int32
	addEdge := func(a, b, c int32) {
		to, capa, next = append(to, b), append(capa, c), append(next, head[a])
		head[a] = int32(len(to) - 1)
		to, capa, next = append(to, a), append(capa, 0), append(next, head[b])
		head[b] = int32(len(to) - 1)
	}
	ow := onPath.Words()
	onPath.ForEach(func(v int) bool {
		if v != o {
			c := int32(1)
			if uncut.Has(v) {
				c = infCap
			}
			addEdge(int32(2*v), int32(2*v+1), c)
			for wi, r := range g.SuccRow(v) {
				for m := r & ow[wi]; m != 0; m &= m - 1 {
					addEdge(int32(2*v+1), int32(2*(wi<<6+bits.TrailingZeros64(m))), infCap)
				}
			}
		}
		if g.EntrySet().Has(v) {
			addEdge(src, int32(2*v), infCap)
		}
		return true
	})
	parent := make([]int32, 2*n+1)
	flow := 0
	for flow <= flowCap {
		for i := range parent {
			parent[i] = -1
		}
		parent[src] = -2
		queue := []int32{src}
		for qi := 0; qi < len(queue) && parent[sink] == -1; qi++ {
			for ei := head[queue[qi]]; ei >= 0; ei = next[ei] {
				if y := to[ei]; capa[ei] > 0 && parent[y] == -1 {
					parent[y] = ei
					queue = append(queue, y)
				}
			}
		}
		if parent[sink] == -1 {
			break
		}
		for y := sink; y != src; y = to[parent[y]^1] {
			capa[parent[y]]--
			capa[parent[y]^1]++
		}
		flow++
	}
	return flow
}

// referenceBound is the reference for a seed level whose last seed is
// lastIn: edmondsKarpBound with the rejected set and every vertex strictly
// between lastIn and o at infinite capacity (inf is its scratch).
func referenceBound(g *dfg.Graph, o, lastIn int, onPath, rejected, inf *bitset.Set, flowCap int) int {
	inf.Copy(rejected)
	inf.AddRange(lastIn+1, o)
	return edmondsKarpBound(g, o, onPath, inf, flowCap)
}

// flowInstance draws a random DAG of n vertices whose predecessors mostly
// lie in a window below each vertex, so paths run deep and cross. Some
// non-root vertices are user-forbidden and so feed the source too.
func flowInstance(r *rand.Rand, n int) *dfg.Graph {
	g := dfg.New()
	window := 2 + r.Intn(24)
	for i := 0; i < n; i++ {
		if i == 0 || r.Intn(8) == 0 {
			g.MustAddNode(dfg.OpVar, "")
			continue
		}
		k := 1 + r.Intn(2)
		preds := make([]int, 0, k)
		for j := 0; j < k; j++ {
			if r.Intn(10) == 0 {
				preds = append(preds, r.Intn(i))
			} else {
				preds = append(preds, i-1-r.Intn(min(i, window)))
			}
		}
		id := g.MustAddNode(dfg.OpAdd, "", preds...)
		if r.Intn(20) == 0 {
			if err := g.MarkForbidden(id); err != nil {
				panic(err)
			}
		}
	}
	return g.MustFreeze()
}

// flowRegion fills back with the vertices that reach o avoiding the
// inputs, the set the search hands the bound, and onPath with those an
// entry reaches inside that set, the region of the reference.
func flowRegion(g *dfg.Graph, o int, inputs, back, onPath *bitset.Set) {
	back.Clear()
	back.Add(o)
	for v := o - 1; v >= 0; v-- {
		if !inputs.Has(v) && g.SuccsIntersect(v, back) {
			back.Add(v)
		}
	}
	onPath.Clear()
	for v := 0; v <= o; v++ {
		if back.Has(v) && (g.EntrySet().Has(v) || g.PredsIntersect(v, onPath)) {
			onPath.Add(v)
		}
	}
}

// TestFlowBoundMatchesEdmondsKarp checks the word-cost kernel against the
// Edmonds–Karp reference on random DAGs of one to five words, with random
// inputs, among them a random last seed lastIn below o, random rejected
// (infinite-capacity) sets below lastIn and flow caps 0–6. The kernel
// reads the reaches-o set, with every member above lastIn in the sink; the
// reference runs on the on-path set to o, with the vertices between lastIn
// and o and the rejected ones at infinite capacity. The one-pass phase
// alone must find a flow no larger than the reference's, and at least one
// path when any exists. Each instance also plants an all-uncuttable
// entry→o path, whose infinite capacity must saturate both at flowCap+1,
// and the kernel must not allocate once warm.
func TestFlowBoundMatchesEdmondsKarp(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	rounds, sinkEntries := 0, 0
	for stride := 1; stride <= 5; stride++ {
		for inst := 0; inst < 12; inst++ {
			lo, hi := 64*(stride-1)+1, min(64*stride, 300)
			g := flowInstance(r, lo+r.Intn(hi-lo+1))
			n := g.N()
			e := newEnumShared(g, DefaultOptions()).newWorker(func(Cut) bool { return true }, nil)
			fs := e.flow()
			inputs, back, onPath, inf := bitset.New(n), bitset.New(n), bitset.New(n), bitset.New(n)
			for q := 0; q < 40; q++ {
				o := n/2 + r.Intn(n-n/2)
				if o == 0 {
					continue
				}
				lastIn := r.Intn(o)
				inputs.Clear()
				inputs.Add(lastIn)
				for k := r.Intn(5); k > 0; k-- {
					inputs.Add(r.Intn(lastIn + 1))
				}
				flowRegion(g, o, inputs, back, onPath)
				if !onPath.Has(o) {
					continue
				}
				fs.uncut.Clear()
				if dens := r.Intn(4); dens > 0 {
					onPath.ForEach(func(v int) bool {
						if v < lastIn && r.Intn(8) < dens {
							fs.uncut.Add(v)
						}
						return true
					})
				}
				cap0 := r.Intn(7)
				want := referenceBound(g, o, lastIn, onPath, fs.uncut, inf, cap0)
				got := e.completionFlowBound(o, lastIn, back, cap0)
				if got != want {
					t.Fatalf("n=%d o=%d lastIn=%d cap=%d: bound %d, Edmonds–Karp %d", n, o, lastIn, cap0, got, want)
				}
				if one := fs.onePass(g, o, lastIn, back, cap0); one > want || (want > 0) != (one > 0) {
					t.Fatalf("n=%d o=%d lastIn=%d cap=%d: one-pass phase %d, Edmonds–Karp %d", n, o, lastIn, cap0, one, want)
				}
				fs.reset()
				if dfg.HighestMaskedBit(g.EntrySet().Words(), back.Words()) > lastIn {
					sinkEntries++
				}
				rounds++

				// Plant an all-uncuttable path: walk down from o through
				// on-path predecessors to an entry, rejecting each vertex
				// below lastIn on the way.
				for v := o; !g.EntrySet().Has(v); {
					for _, p := range g.Preds(v) {
						if onPath.Has(p) {
							v = p
							break
						}
					}
					if v < lastIn {
						fs.uncut.Add(v)
					}
				}
				got, want = e.completionFlowBound(o, lastIn, back, cap0), referenceBound(g, o, lastIn, onPath, fs.uncut, inf, cap0)
				if got != cap0+1 || want != cap0+1 {
					t.Fatalf("n=%d o=%d lastIn=%d cap=%d: uncuttable path gives bound %d, Edmonds–Karp %d, want %d", n, o, lastIn, cap0, got, want, cap0+1)
				}
				if a := testing.AllocsPerRun(5, func() { e.completionFlowBound(o, lastIn, back, cap0) }); a != 0 {
					t.Fatalf("n=%d: completionFlowBound allocates %.1f times per call", n, a)
				}
			}
		}
	}
	if rounds < 1000 || sinkEntries == 0 {
		t.Fatalf("only %d comparisons ran, %d with an entry in the sink", rounds, sinkEntries)
	}
}
