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
// times as often: how often the seed loop loads the uncuttable sets and
// asks for the bound (calls), how often the structural caps leave the
// max-flow kernel to run (runs), and how often it prunes. The kernel's
// value is exact, so a faster kernel keeps all three.
func TestFlowBoundWork(t *testing.T) {
	gap := workload.GapRegressionInstances()
	blocks := []struct {
		name                string
		g                   *dfg.Graph
		nin, cuts           int
		calls, runs, prunes int
	}{
		{gap[0].Name, gap[0].Graph(), 4, gap[0].WantCuts, 3237, 2669, 2175},
		{gap[1].Name, gap[1].Graph(), 4, gap[1].WantCuts, 5970, 4460, 2902},
		{"mibench-n160-seed2", workload.MiBenchLike(rand.New(rand.NewSource(2)), 160, workload.DefaultProfile()), 4, 4497, 1216, 737, 321},
		{"tree-depth6", workload.Tree(6, 2), 4, 1911, 757, 582, 509},
		{"butterfly-4", workload.Butterfly(4), 4, 1800, 1008, 800, 640},
		{gap[0].Name, gap[0].Graph(), 6, 7668, 144925, 120943, 92609},
		{"tree-depth6", workload.Tree(6, 2), 6, 11181, 32041, 24221, 20590},
		{"butterfly-4", workload.Butterfly(4), 6, 1800, 68656, 57584, 46624},
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
		if cuts != blk.cuts || e.flowCalls != blk.calls || e.flowRuns != blk.runs || e.flowPrunes != blk.prunes {
			t.Errorf("%s at Nin=%d: %d cuts, flow bound calls/runs/prunes %d/%d/%d, want %d cuts, %d/%d/%d",
				blk.name, blk.nin, cuts, e.flowCalls, e.flowRuns, e.flowPrunes, blk.cuts, blk.calls, blk.runs, blk.prunes)
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

// flowRegion fills onPath with the region the search hands the bound: the
// vertices that reach o avoiding the inputs, intersected with those an
// entry reaches inside that set.
func flowRegion(g *dfg.Graph, o int, inputs, onPath *bitset.Set) {
	back := bitset.New(g.N())
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
// inputs, random uncuttable (infinite-capacity) subsets and flow caps 0–6.
// Each instance also plants an all-uncuttable entry→o path, whose infinite
// capacity must saturate both at flowCap+1, and the kernel must not
// allocate once warm.
func TestFlowBoundMatchesEdmondsKarp(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	rounds := 0
	for stride := 1; stride <= 5; stride++ {
		for inst := 0; inst < 12; inst++ {
			lo, hi := 64*(stride-1)+1, min(64*stride, 300)
			g := flowInstance(r, lo+r.Intn(hi-lo+1))
			n := g.N()
			e := newEnumShared(g, DefaultOptions()).newWorker(func(Cut) bool { return true }, nil)
			fs := e.flow()
			inputs, onPath := bitset.New(n), bitset.New(n)
			for q := 0; q < 40; q++ {
				o := n/2 + r.Intn(n-n/2)
				inputs.Clear()
				for k := r.Intn(6); k > 0; k-- {
					if v := r.Intn(o + 1); v != o {
						inputs.Add(v)
					}
				}
				flowRegion(g, o, inputs, onPath)
				if !onPath.Has(o) {
					continue
				}
				fs.uncut.Clear()
				if dens := r.Intn(4); dens > 0 {
					onPath.ForEach(func(v int) bool {
						if v != o && r.Intn(8) < dens {
							fs.uncut.Add(v)
						}
						return true
					})
				}
				flowCap := r.Intn(7)
				got, want := e.completionFlowBound(o, onPath, flowCap), edmondsKarpBound(g, o, onPath, fs.uncut, flowCap)
				if got != want {
					t.Fatalf("n=%d o=%d cap=%d: bound %d, Edmonds–Karp %d", n, o, flowCap, got, want)
				}
				rounds++

				// Plant an all-uncuttable path: walk down from o through
				// on-path predecessors to an entry.
				for v := o; !g.EntrySet().Has(v); {
					for _, p := range g.Preds(v) {
						if onPath.Has(p) {
							v = p
							break
						}
					}
					fs.uncut.Add(v)
				}
				fs.uncut.Remove(o)
				got, want = e.completionFlowBound(o, onPath, flowCap), edmondsKarpBound(g, o, onPath, fs.uncut, flowCap)
				if got != flowCap+1 || want != flowCap+1 {
					t.Fatalf("n=%d o=%d cap=%d: uncuttable path gives bound %d, Edmonds–Karp %d, want %d", n, o, flowCap, got, want, flowCap+1)
				}
				if a := testing.AllocsPerRun(5, func() { e.completionFlowBound(o, onPath, flowCap) }); a != 0 {
					t.Fatalf("n=%d: completionFlowBound allocates %.1f times per call", n, a)
				}
			}
		}
	}
	if rounds < 1000 {
		t.Fatalf("only %d comparisons ran", rounds)
	}
}
