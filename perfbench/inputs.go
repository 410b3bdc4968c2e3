package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"

	"polyise/internal/baseline"
	"polyise/internal/bench"
	"polyise/internal/bitset"
	"polyise/internal/dfg"
	"polyise/internal/enum"
	"polyise/internal/graphio"
	"polyise/internal/ise"
	"polyise/internal/workload"
)

// spec pins one benchmark block: a deterministic canonical graph, the
// constraints it is run under, and the facts about it that do not depend on
// the run's seed.
type spec struct {
	name      string
	graph     func() *dfg.Graph
	nin, nout int
	// forbid restricts the ISA (workload.WithForbiddenOps) before the
	// block is renumbered.
	forbid []dfg.Op
	// maxInsn and minSaving configure selection (0 = unlimited / default).
	maxInsn, minSaving int
	// wantCuts is the exact number of valid cuts. It is a property of the
	// graph, so every renumbering of the block must reproduce it.
	wantCuts int
	// wantCyclesBefore is the block's software cycle count under
	// ise.DefaultModel, also invariant under renumbering (0 = not pinned).
	wantCyclesBefore int
}

func mibench(n int, seed int64) func() *dfg.Graph {
	return func() *dfg.Graph {
		return workload.MiBenchLike(rand.New(rand.NewSource(seed)), n, workload.DefaultProfile())
	}
}

func corpusBlock(name string) func() *dfg.Graph {
	return func() *dfg.Graph {
		for _, b := range workload.SelectionCorpus() {
			if b.Name == name {
				return b.G
			}
		}
		panic("perfbench: no selection-corpus block " + name)
	}
}

// deepSpecs are blocks whose search trees are deep: MiBench-like blocks of
// 140 and 160 nodes (the first is the pinned gap-regression instance), the
// figure 4 tree that is the worst case for exhaustive search, and a dense
// multi-output butterfly. Counts are verified against the pruned-exhaustive
// baseline on every run.
func deepSpecs() ([]spec, error) {
	gaps := workload.GapRegressionInstances()
	i := slices.IndexFunc(gaps, func(gi workload.GapInstance) bool { return gi.Name == "mibench-n140-seed5" })
	if i < 0 {
		return nil, fmt.Errorf("no gap-regression instance mibench-n140-seed5")
	}
	return []spec{
		{name: gaps[i].Name, graph: gaps[i].Graph, nin: 4, nout: 2, wantCuts: gaps[i].WantCuts},
		{name: "mibench-n160-seed2", graph: mibench(160, 2), nin: 4, nout: 2, wantCuts: 4497},
		{name: "tree-depth6", graph: func() *dfg.Graph { return workload.Tree(6, 2) }, nin: 4, nout: 2, wantCuts: 1911},
		{name: "butterfly-4", graph: func() *dfg.Graph { return workload.Butterfly(4) }, nin: 4, nout: 2, wantCuts: 1800},
	}, nil
}

// pipelineWant pins, for each end-to-end scenario of internal/bench, the cut
// count and block cycle count recorded for it in BENCH_PR9.json. The
// workload is exactly these scenarios, so one added to the suite later does
// not change it.
var pipelineWant = map[string]struct{ cuts, cyclesBefore int }{
	"io-2x1/mibench-n40":      {25, 46},
	"io-3x1/mibench-n40":      {30, 46},
	"io-4x2/mibench-n40":      {346, 46},
	"io-6x3/mibench-n40":      {3009, 46},
	"isa-full/fir4":           {29, 15},
	"isa-no-mul/fir4":         {6, 15},
	"isa-no-shift/hash-round": {43, 12},
	"mem/mem-kernel":          {29, 18},
	"budget-1insn/fir4":       {29, 15},
	"budget-save2/hash-round": {95, 12},
}

// pipelineSpecs are the pinned scenarios of bench.Scenarios (I/O-port
// sweeps, restricted-ISA variants, a memory kernel and binding selection
// budgets), in the suite's order.
func pipelineSpecs() ([]spec, error) {
	var out []spec
	for _, sc := range bench.Scenarios() {
		want, ok := pipelineWant[sc.Name]
		if !ok {
			continue
		}
		out = append(out, spec{
			name: sc.Name, graph: corpusBlock(sc.Block), nin: sc.Nin, nout: sc.Nout,
			forbid: sc.ForbiddenOps, maxInsn: sc.MaxInstructions, minSaving: sc.MinSaving,
			wantCuts: want.cuts, wantCyclesBefore: want.cyclesBefore,
		})
	}
	if len(out) != len(pipelineWant) {
		return nil, fmt.Errorf("bench.Scenarios holds %d of the %d pinned scenarios", len(out), len(pipelineWant))
	}
	return out, nil
}

// streamSpecs are mid-size blocks whose enumeration streams 300-3000 NDJSON
// rows per request.
var streamSpecs = []spec{
	{name: "mibench-n40-seed7", graph: corpusBlock("mibench-n40-seed7"), nin: 4, nout: 2, wantCuts: 346},
	{name: "mibench-n90-seed3", graph: mibench(90, 3), nin: 4, nout: 2, wantCuts: 1827},
	{name: "mibench-n120-seed4", graph: mibench(120, 4), nin: 4, nout: 2, wantCuts: 2594},
	{name: "tree-depth5", graph: func() *dfg.Graph { return workload.Tree(5, 2) }, nin: 4, nout: 2, wantCuts: 471},
	{name: "butterfly-4", graph: func() *dfg.Graph { return workload.Butterfly(4) }, nin: 4, nout: 2, wantCuts: 1800},
}

// block is one benchmark input as a run sees it: the pinned graph under a
// topological renumbering drawn from the run's seed, in the text format the
// program parses, together with the references its results are checked
// against.
type block struct {
	spec
	g    *dfg.Graph // the renumbered graph, frozen
	text []byte     // g in the graphio text format
	eopt enum.Options
	sopt ise.SelectOptions
	// refSet digests the cut set the pruned-exhaustive baseline finds on
	// the canonical graph, mapped through the renumbering.
	refSet uint64
	// seq is the digest of the serial visit order; it is set by the first
	// op of a run and every later op must reproduce it.
	seq uint64
	// ref, in the stream workload, is the library's own serial run on g:
	// its visit order is seq, and the service must do exactly its work.
	ref *enum.Stats
}

// makeBlocks builds the run's inputs from its seed. Each block gets its own
// random topological renumbering, so different seeds exercise different
// search orders over graphs whose cut sets are known exactly.
func makeBlocks(specs []spec, seed int64) ([]*block, error) {
	r := rand.New(rand.NewSource(seed))
	out := make([]*block, 0, len(specs))
	for _, sp := range specs {
		canon := sp.graph()
		if len(sp.forbid) > 0 {
			canon = workload.WithForbiddenOps(canon, sp.forbid...)
		}
		g, perm, err := renumber(canon, r)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.name, err)
		}
		var text bytes.Buffer
		if err := graphio.Write(&text, g); err != nil {
			return nil, fmt.Errorf("%s: write: %w", sp.name, err)
		}
		b := &block{spec: sp, g: g, text: text.Bytes()}
		b.eopt = enum.DefaultOptions()
		b.eopt.MaxInputs, b.eopt.MaxOutputs = sp.nin, sp.nout
		b.eopt.Parallelism = 1
		b.sopt = ise.DefaultSelectOptions()
		b.sopt.MaxInstructions = sp.maxInsn
		if sp.minSaving > 0 {
			b.sopt.MinSaving = sp.minSaving
		}

		var hs []uint64
		ref := baseline.PrunedSearch(canon, b.eopt, func(c enum.Cut) bool {
			hs = append(hs, cutHash(c.Nodes, perm))
			return true
		})
		if ref.StopReason != enum.StopNone {
			return nil, fmt.Errorf("%s: reference search stopped: %v", sp.name, ref.StopReason)
		}
		if len(hs) != sp.wantCuts {
			return nil, fmt.Errorf("%s: reference found %d cuts, want %d", sp.name, len(hs), sp.wantCuts)
		}
		b.refSet = setDigest(hs)
		out = append(out, b)
	}
	return out, nil
}

// renumber rebuilds g under a uniformly drawn topological order (Kahn's
// algorithm picking a random ready node). The result is the same DAG with
// the same operations, names, constants, forbidden and live-out marks, so
// it has the same cuts; only the ids — and with them the enumeration's
// search order — change. perm maps g's ids to the new ids.
func renumber(g *dfg.Graph, r *rand.Rand) (*dfg.Graph, []int, error) {
	n := g.N()
	indeg := make([]int, n)
	var ready []int
	for v := 0; v < n; v++ {
		indeg[v] = len(g.Preds(v))
		if indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	perm := make([]int, n)
	out := dfg.New()
	for len(ready) > 0 {
		i := r.Intn(len(ready))
		v := ready[i]
		ready[i] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]

		preds := make([]int, len(g.Preds(v)))
		for j, p := range g.Preds(v) {
			preds[j] = perm[p]
		}
		id, err := out.AddNode(g.Op(v), g.Name(v), preds...)
		if err != nil {
			return nil, nil, err
		}
		perm[v] = id
		switch g.Op(v) {
		case dfg.OpConst, dfg.OpCustom, dfg.OpExtract:
			if err := out.SetConst(id, g.ConstValue(v)); err != nil {
				return nil, nil, err
			}
		}
		if g.IsUserForbidden(v) && g.Op(v) != dfg.OpCall {
			if err := out.MarkForbidden(id); err != nil {
				return nil, nil, err
			}
		}
		if g.IsLiveOut(v) && len(g.Succs(v)) > 0 {
			if err := out.MarkLiveOut(id); err != nil {
				return nil, nil, err
			}
		}
		// Succs lists a successor once per operand slot, so each visit
		// retires exactly one of its in-edges.
		for _, s := range g.Succs(v) {
			if indeg[s]--; indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if out.N() != n {
		return nil, nil, fmt.Errorf("renumber: graph has a cycle")
	}
	if err := out.Freeze(); err != nil {
		return nil, nil, err
	}
	return out, perm, nil
}

// cutHash is an FNV-1a digest of a cut's vertex set, optionally mapped
// through perm first. It is computed here rather than by the library so the
// checks do not trust the code they check.
func cutHash(nodes *bitset.Set, perm []int) uint64 {
	ms := nodes.Members()
	if perm != nil {
		for i, v := range ms {
			ms[i] = perm[v]
		}
		slices.Sort(ms)
	}
	h := fnv.New64a()
	var buf [4]byte
	for _, v := range ms {
		buf[0], buf[1], buf[2], buf[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// setDigest digests a collection of cut hashes independently of its order;
// seqDigest digests it in order.
func setDigest(hs []uint64) uint64 {
	s := slices.Clone(hs)
	slices.Sort(s)
	return seqDigest(s)
}

func seqDigest(hs []uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range hs {
		for i := range buf {
			buf[i] = byte(x >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}
