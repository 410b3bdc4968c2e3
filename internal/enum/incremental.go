package enum

import (
	"context"
	"math/bits"
	"sync/atomic"
	"time"

	"polyise/internal/bitset"
	"polyise/internal/checkpoint"
	"polyise/internal/dfg"
	"polyise/internal/domtree"
	"polyise/internal/faultinject"
	"polyise/internal/parallel"
)

// Enumerate is POLY-ENUM-INCR of figure 3: it chooses outputs and inputs
// recursively, maintaining the cut S = (O ∪ ⋃_j B(I, o_j)) \ I of theorem 3
// incrementally, and prunes the search with the techniques of §5.3. Input
// selection follows Dubrova et al.: the chosen inputs act as the seed set,
// and one dominator analysis of the graph minus the seeds yields every
// vertex that completes a multiple-vertex dominator of the current output.
//
// One deliberate deviation from the paper: choosing a new input w may
// *remove* vertices from S (w itself, and vertices that only lay on paths
// through w), because theorem 3 subtracts the final input set. The paper
// claims S only ever grows, but that discipline loses cuts whose inputs lie
// inside an earlier B(I, o) — see the {d,g} example in the tests — so S is
// kept exact wherever it is read. Exact maintenance does not mean
// from-scratch recomputation: each output push, and each input push a cut
// check needs, applies a journaled delta to S (dfg.Traverser.GrowCut /
// ShrinkCut) whose cost follows the region the push changes, and each pop
// replays the journal backward — see the "incremental search-state engine"
// note in the package comment. rebuildS, the from-scratch recomputation,
// remains the reference the property tests pin the deltas to and the
// fallback for non-monotone input pushes that invalidate most of S.
//
// Every candidate S with at most Nout outputs (internal outputs included,
// per the output–output pruning) that the search reached by its canonical
// derivation is validated against the full §3 problem statement. Each
// valid cut has exactly one canonical derivation, so the visitor sees it
// exactly once. The visitor may return false to stop early.
//
// Options.Parallelism selects between the serial algorithm (1, the paper's
// configuration) and the sharded parallel one (0 = one shard worker per
// GOMAXPROCS, n = n workers). Both visit the same cuts in the same order;
// the package comment of parallel.go states the guarantees and the small
// differences in the returned Stats.
func Enumerate(g *dfg.Graph, opt Options, visit func(Cut) bool) Stats {
	if w := parallel.Workers(opt.Parallelism); w > 1 && g.N() > 1 {
		return enumerateParallel(g, opt, visit, w, nil)
	}
	return enumerateSerial(g, opt, visit, nil)
}

// enumerateSerial is the serial run loop, shared by Enumerate and
// ResumeEnumerate: snap, when non-nil, seeds the visit point from a
// snapshot and restarts the top-level loop at the snapshot's frontier
// position, whose subtree is replayed (see checkpoint.go).
func enumerateSerial(g *dfg.Graph, opt Options, visit func(Cut) bool, snap *checkpoint.Snapshot) Stats {
	sh := newEnumShared(g, opt)
	e := sh.newWorker(nil, nil)
	vp := newVisitPoint(g, opt, visit, &e.stats, snap)
	e.visit = func(c Cut) bool { return vp.deliver(c, e.topPos) }
	e.stopped = e.stats.StopReason != StopNone // a resume already at its MaxCuts cap
	func() {
		// Failure semantics (serial): a panic in the search is contained
		// here and reported as StopReason = StopError with Stats.Err; the
		// visit point contains the visitor's own panics. The cuts already
		// visited are a coherent prefix of the enumeration order, and the
		// final snapshot below is written from the unwound state.
		defer e.containPanic()
		for pos := vp.curTop; pos < g.N() && !e.stopped; pos++ {
			e.topPos = pos
			e.pickOutputRange(0, pos, pos+1, opt.MaxInputs, opt.MaxOutputs)
		}
	}()
	return vp.finish(&e.stats)
}

// EnumerateContext runs Enumerate with ctx installed as Options.Context and
// converts the run's stop state into an error: ctx.Err() when the context
// canceled the run, Stats.Err when a contained panic or protocol stall
// failed it, nil otherwise (budget, deadline and visitor stops are normal
// outcomes reported through Stats.StopReason, not errors).
func EnumerateContext(ctx context.Context, g *dfg.Graph, opt Options, visit func(Cut) bool) (Stats, error) {
	opt.Context = ctx
	stats := Enumerate(g, opt, visit)
	switch {
	case stats.Err != nil:
		return stats, stats.Err
	case stats.StopReason == StopCanceled:
		return stats, ctx.Err()
	}
	return stats, nil
}

// enumShared is the per-graph setup every shard of one enumeration shares.
// Everything in it is immutable after newEnumShared returns, so shards can
// read it concurrently without synchronization.
type enumShared struct {
	g       *dfg.Graph
	opt     Options
	pdt     *domtree.Tree
	entries []int         // roots ∪ user-forbidden: virtual-source successors
	permOut *bitset.Set   // vertices that can never stop being outputs once in S
	badIn   []*bitset.Set // per-output forbidden-ancestor exclusions (PruneForbiddenAncestors)
}

func newEnumShared(g *dfg.Graph, opt Options) *enumShared {
	sh := &enumShared{g: g, opt: opt}
	sh.pdt = domtree.PostdominatorTree(g)

	// Entry points of the augmented graph: the virtual source precedes
	// every root and every forbidden vertex (§3). Precomputed by Freeze.
	sh.entries = g.Entries()

	// Permanent outputs: members of Oext always feed the virtual sink, and
	// a vertex with a forbidden successor can never have that successor
	// join the cut. Static per graph, so the viability test reduces to one
	// word-parallel intersection count.
	sh.permOut = bitset.New(g.N())
	for v := 0; v < g.N(); v++ {
		if permanentOutput(g, v) {
			sh.permOut.Add(v)
		}
	}

	// The forbidden-ancestor input exclusion (§5.3, approximate) depends
	// only on the graph, so it is precomputed once here — shared read-only
	// by every shard — instead of being rebuilt in each worker's memo. One
	// pass over the topological order suffices: bad(v) accumulates, for
	// every user-forbidden ancestor f of v, the ancestors of f.
	if opt.PruneForbiddenAncestors {
		sh.badIn = make([]*bitset.Set, g.N())
		for v := 0; v < g.N(); v++ {
			b := bitset.New(g.N())
			for _, p := range g.Preds(v) {
				b.Union(sh.badIn[p])
				if g.IsUserForbidden(p) {
					b.Union(g.ReachTo(p))
				}
			}
			sh.badIn[v] = b
		}
	}
	return sh
}

// permanentOutput reports whether v can never stop being an output once in
// S: members of Oext always feed the virtual sink, and successors that are
// forbidden can never join the cut.
func permanentOutput(g *dfg.Graph, v int) bool {
	if g.IsLiveOut(v) {
		return true
	}
	for _, s := range g.Succs(v) {
		if g.IsForbidden(s) {
			return true
		}
	}
	return false
}

// newWorker allocates one enumeration worker with private mutable state (the
// clone-per-shard ownership the parallel enumeration relies on): validator,
// every bitset scratch buffer and the flow solver are owned exclusively by
// the returned worker. ext, when non-nil, is an external stop flag polled
// during the search (used to cancel sibling shards after an early visitor
// stop).
func (sh *enumShared) newWorker(visit func(Cut) bool, ext *atomic.Bool) *incEnum {
	n := sh.g.N()
	S := bitset.New(n)
	return &incEnum{
		g:       sh.g,
		opt:     sh.opt,
		visit:   visit,
		pdt:     sh.pdt,
		entries: sh.entries,
		permOut: sh.permOut,
		badIn:   sh.badIn,
		ext:     ext,
		stop:    NewStopper(sh.opt),
		dval:    NewDeltaValidator(sh.g, sh.opt, S),
		tr:      sh.g.NewTraverser(),
		S:       S,
		Iuser:   bitset.New(n),
		outSet:  bitset.New(n),
	}
}

type incEnum struct {
	g     *dfg.Graph
	opt   Options
	visit func(Cut) bool
	pdt   *domtree.Tree
	dval  *DeltaValidator // incremental validation engine, worker-owned
	tr    *dfg.Traverser  // word-parallel traversal kernels, worker-owned
	stats Stats
	ext   *atomic.Bool // external stop flag; nil in serial runs

	S      *bitset.Set // current cut (user capacity)
	Iuser  *bitset.Set // chosen inputs
	Ilist  []int
	outs   []int
	outSet *bitset.Set

	entries []int         // roots ∪ user-forbidden: virtual-source successors
	permOut *bitset.Set   // shared: vertices that are outputs forever once in S
	badIn   []*bitset.Set // shared: per-output forbidden-ancestor exclusions (§5.3, approximate)

	journal []*bitset.Set // per-depth undo journal: the delta each push applied to S
	paths   []*bitset.Set // per-depth on-path sets
	backs   []*bitset.Set // per-depth reaches-o sets
	uncs    []*bitset.Set // per-depth input-ancestor sets for the quick-offending reject
	chains  [][]int       // per-depth dominator-chain buffers
	pending int           // the last Ilist entries are seeds not yet applied to S
	shrinks int           // shrinkS calls, the cut-shrink work a test pins
	last    lastLevel     // the live two-inputs-left seed loop's chains (lastlevel.go)
	seed1   [1]int        // scratch: single-seed kernel calls
	fs      *flowScratch
	stopped bool
	stop    Stopper // shared cancel/deadline poll primitive (stop.go)

	// Work-stealing state, nil/empty in serial runs (see parallel.go for
	// the protocol). curSeg is the merge segment the worker currently emits
	// into; ranges is the stack of live pickOutputRange frames a donor can
	// split; segStack holds the resume segments created by splits, keyed by
	// the range frame whose epilogue must switch to them.
	steal    *stealState
	curSeg   *parallel.Seg[Cut]
	ranges   []posRange
	segStack []segResume

	// stallTimer is the reusable watchdog timer guarding handoff sends
	// (sendTask); allocated on the first donation, reset per send.
	stallTimer *time.Timer

	// topPos is a serial run's current top-level position, which the visit
	// point records as the frontier of each delivered cut.
	topPos int
}

// journalBuf returns the undo-journal buffer for recursion depth d. Each
// active search-tree push owns the buffer of its own depth: it records the
// exact set of vertices the push added to (output push) or removed from
// (input push) the maintained cut S, so the pop is a single word-parallel
// Subtract/Union instead of a snapshot restore or a from-scratch rebuild.
func (e *incEnum) journalBuf(d int) *bitset.Set {
	for len(e.journal) <= d {
		e.journal = append(e.journal, bitset.New(e.g.N()))
	}
	return e.journal[d]
}

// growS pushes the most recently chosen output onto the maintained cut:
// S gains {o} ∪ B(I, o) via the delta kernel, with the added vertices
// journaled at depth d. The incremental validation engine needs no
// notification — it mirrors S lazily at the next admission check (see
// deltaval.go), so pushes on branches that never reach CHECK-CUT cost it
// nothing. Undo with undoGrowS(d).
func (e *incEnum) growS(d int) {
	o := e.outs[len(e.outs)-1]
	e.tr.GrowCut(e.S, e.journalBuf(d), o, e.Iuser)
}

// undoGrowS pops the output push journaled at depth d.
func (e *incEnum) undoGrowS(d int) {
	e.S.Subtract(e.journal[d])
}

// shrinkS pushes input w onto the maintained cut: w and every vertex whose
// last surviving path ran through w leave S via the delta kernel (which
// falls back to the from-scratch rebuild when the affected region is most
// of S), with the removed vertices journaled at depth d. The caller must
// have pushed w into Iuser already. Undo with undoShrinkS(d).
func (e *incEnum) shrinkS(d, w int) {
	e.shrinks++
	e.tr.ShrinkCut(e.S, e.journalBuf(d), w, e.outs, e.outSet, e.Iuser)
}

// undoShrinkS pops the input push journaled at depth d.
func (e *incEnum) undoShrinkS(d int) {
	e.S.Union(e.journal[d])
}

// pushSeed pushes seed w but defers its shrinkS to flushSeeds: in an input
// phase only the cut checks below a completion read S, so a seed whose
// subtree checks no cut never pays for it. Undo with popSeed.
func (e *incEnum) pushSeed(w int) {
	e.pushInput(w)
	e.pending++
}

// popSeed pops the seed pushed at depth d: still pending, it is the last
// one (deeper seeds are popped first); flushed, its shrink is undone.
func (e *incEnum) popSeed(d, w int) {
	if e.pending > 0 {
		e.pending--
	} else {
		e.undoShrinkS(d)
	}
	e.popInput(w)
}

// flushSeeds applies the pending seeds' shrinks in push order before a
// completion at depth d. They end Ilist, pushed at depths d-len..d-1, and
// each is journaled at its own depth. ShrinkCut must see only the inputs
// pushed so far (its fallback rebuilds S from them), so the seeds leave
// Iuser first and rejoin one at a time.
func (e *incEnum) flushSeeds(d int) {
	seeds := e.Ilist[len(e.Ilist)-e.pending:]
	for _, v := range seeds {
		e.Iuser.Remove(v)
	}
	for k, v := range seeds {
		e.Iuser.Add(v)
		e.shrinkS(d-len(seeds)+k, v)
	}
	e.pending = 0
}

// uncBuf returns the quick-offending scratch buffer for recursion depth d
// (depth-indexed because deeper pickOutput levels run while an outer
// level's loop still needs its own set).
func (e *incEnum) uncBuf(d int) *bitset.Set {
	for len(e.uncs) <= d {
		e.uncs = append(e.uncs, bitset.New(e.g.N()))
	}
	return e.uncs[d]
}

// pathBuf returns the on-path buffer for recursion depth d.
func (e *incEnum) pathBuf(d int) *bitset.Set {
	for len(e.paths) <= d {
		e.paths = append(e.paths, bitset.New(e.g.N()))
	}
	return e.paths[d]
}

// backBuf returns the reaches-o buffer for recursion depth d.
func (e *incEnum) backBuf(d int) *bitset.Set {
	for len(e.backs) <= d {
		e.backs = append(e.backs, bitset.New(e.g.N()))
	}
	return e.backs[d]
}

// chainBuf returns the (emptied) dominator-chain buffer for recursion depth
// d. Depth-indexed because the chain found at depth d is still being
// iterated while deeper recursion levels run their own analyses.
func (e *incEnum) chainBuf(d int) []int {
	for len(e.chains) <= d {
		e.chains = append(e.chains, nil)
	}
	return e.chains[d][:0]
}

// analyzePaths analyses the reduced graph (the augmented graph minus the
// chosen inputs) with respect to output o. It computes into back the set of
// vertices that reach o avoiding the inputs, into onPath the set of
// vertices lying on some source→o path avoiding the inputs, appends to
// chain every vertex that dominates o in the reduced graph, and reports
// whether o is reachable at all.
//
// pBack is the back set of the parent recursion level (nil at the start of
// an output's phase). When present, the only change since the parent's
// analysis is the single seed lastIn joining I, so back is *derived* from
// the parent by the delta kernel (dfg.Traverser.ShrinkReachInto): it
// shrinks by lastIn's severed ancestor region, confined to the region the
// push actually changes, with the full confined traversal as fallback
// past the threshold. At a phase start back is traversed fresh.
//
// onPath, the dominator chain and the reachability verdict all come out of
// ONE ascending pass over back, with no forward closure at all. Three facts
// make the fusion exact. First, ascending id order is ascending topological
// order (dfg.Graph.AddNode only accepts existing predecessors), so every
// predecessor is settled before its successors: v lies on a surviving
// source path exactly when it is an entry of back or some predecessor of v
// is already on-path (any prefix of a source→v path inside back stays
// inside back — each prefix vertex reaches v and hence o avoiding I).
// Second, the entries of back are on-path unconditionally (an entry in back
// is not an input and carries a virtual-source edge), so the sweep's
// starting maximum — the highest virtual-source successor — is known before
// the walk. Third, for an on-path vertex every successor inside back is
// itself on-path (extend the source path by the edge), so masking a
// successor row by back equals masking it by the finished onPath, and the
// running maximum never reads a bit the walk has not justified.
//
// Dominators then fall out as in PR 3: restricted to surviving paths, v
// dominates o exactly when no surviving edge "jumps over" its topological
// position, i.e. when the running maximum of highest on-path successors is
// at most v when the walk reaches it. The Freeze-memoized MaxSucc bound
// skips the masked row scan whenever even v's highest successor overall
// cannot beat the running maximum — the common case once it nears o.
//
// When needChain is false (no input budget left) the caller consumes only
// the reachability verdict and back; o is source-reachable avoiding I
// exactly when an entry survives in back, so the sweep — and onPath
// entirely — is skipped for one word-parallel intersection test.
//
// When tree is non-nil (a seed level with two inputs left; chain must then
// start empty) the sweep also records the forward dominator tree of the
// region into the last-level table (lastlevel.go): the on-path test
// becomes the fold of the on-path predecessors' LCA, which is empty
// exactly when none exists.
func (e *incEnum) analyzePaths(o int, back, onPath, pBack *bitset.Set, lastIn int, chain []int, needChain bool, tree *lastLevel) (bool, []int) {
	g := e.g

	if pBack != nil {
		// Seed-extension level: derive back from the parent. (lastIn ∈
		// pBack: seeds are chosen on-path, and o ∈ pBack stays — it is
		// never an input, so only its ancestors can be severed.)
		e.tr.ShrinkReachInto(back, pBack, o, lastIn, e.Iuser)
	} else {
		// Phase start: traverse fresh, backward from o avoiding I.
		e.seed1[0] = o
		e.tr.ReachBackwardAvoiding(back, e.seed1[:], e.Iuser, nil)
	}
	if !needChain {
		return back.Intersects(g.EntrySet()), chain
	}

	onPath.CopyIntersect(g.EntrySet(), back)
	bw := back.Words()
	opw := onPath.Words()
	runMax := dfg.HighestMaskedBit(g.EntrySet().Words(), bw)
	if tree != nil {
		tree.begin(g.N(), runMax)
	}
	for wi, w := range bw {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			v := wi<<6 + b
			w &= w - 1
			idom := int32(-1) // an entry hangs off the virtual source
			if opw[wi]&(1<<uint(b)) == 0 {
				if tree == nil {
					if !g.PredsIntersect(v, onPath) {
						continue // on no surviving source path
					}
				} else if idom = tree.predLCA(g.PredRow(v), opw); idom == noVertex {
					continue
				}
				opw[wi] |= 1 << uint(b)
			}
			if v == o {
				return true, chain
			}
			below := len(chain)
			if runMax <= v {
				chain = append(chain, v)
			}
			if tree != nil {
				p := dfg.HighestMaskedBit(g.SuccRow(v), bw)
				tree.add(v, idom, p, below)
				runMax = max(runMax, p)
			} else if g.MaxSucc(v) > runMax {
				if p := dfg.HighestMaskedBit(g.SuccRow(v), bw); p > runMax {
					runMax = p
				}
			}
		}
	}
	return false, chain // o itself never became on-path: I dominates o
}

// rebuildS recomputes the exact cut identified by the chosen outputs and
// inputs: every vertex that reaches a chosen output along a path avoiding
// the chosen inputs (theorems 2 and 3), as one word-parallel backward
// frontier traversal. The search itself maintains S by journaled deltas
// (growS/shrinkS); rebuildS is the reference semantics those deltas are
// property-tested against, and ShrinkCut falls back to the same
// from-scratch rebuild when an input push invalidates most of S.
func (e *incEnum) rebuildS() {
	e.tr.CutNodesInto(e.S, e.outs, e.Iuser)
}

// viable applies the §5.3 "pruning while building S" test, adapted to the
// exact (non-monotone) maintenance of S: vertices leave S only when a new
// input joins I, either because the vertex itself becomes the input or
// because the input severs its last avoiding path. So with no input budget
// left, a forbidden vertex (or implicitly forbidden root) inside S, or more
// permanent outputs than Nout, is fatal; with budget remaining it merely
// obligates at least one more input. (Stronger counting — one forced input
// per offending vertex — would be unsound: a single well-placed input can
// evict several vertices from S at once.)
func (e *incEnum) viable(ninLeft int) bool {
	if !e.opt.PruneWhileBuildingS {
		return true
	}
	offending := e.S.Intersects(e.g.ForbiddenSet()) || e.S.Intersects(e.g.RootSet()) ||
		e.S.IntersectionCount(e.permOut) > e.opt.MaxOutputs
	return !offending || ninLeft > 0
}

// pickOutput implements PICK-OUTPUT: choose the next output o, grow S by
// {o} ∪ B(I, o), then hand over to input selection (which also covers the
// "I already dominates o" branch of figure 3).
//
// lastOut is the previously chosen output. With the output–output pruning
// on, only later ids are tried: an ancestor has a smaller id, so requiring
// strictly increasing ids makes the "skip ancestors of selected outputs"
// rule free and canonicalizes the choice order.
func (e *incEnum) pickOutput(depth, lastOut, ninLeft, noutLeft int) {
	start := 0
	if e.opt.PruneOutputOutput {
		start = lastOut + 1
	}
	e.pickOutputRange(depth, start, e.g.N(), ninLeft, noutLeft)
}

// pickOutputRange runs PICK-OUTPUT's candidate loop over the topological
// positions [start, end). It is the unit of work the donor side of
// work-stealing operates on: the loop claims positions from a posRange
// frame whose end a concurrent-donation poll (maybeSplit, reached from the
// loop body's recursion) may pull in, and whose epilogue switches the
// worker onto any resume segments splits created. Every parallel work unit
// enters here (runUnitBody) — a thief with the donor's reconstructed prefix
// state — and every top-level subtree, serial, sharded or resumed, is the
// one-position range [pos, pos+1) at depth 0. Serial runs take the same
// path with an empty steal state; the frame bookkeeping is a few appends
// per level.
func (e *incEnum) pickOutputRange(depth, start, end, ninLeft, noutLeft int) {
	if e.stopped || noutLeft <= 0 {
		return
	}
	// With the input budget exhausted, a push whose grown cut would contain
	// a root or forbidden vertex is dead on arrival (viable() below), and
	// that fate is often decidable without running the grow kernel: an
	// entry vertex (root or forbidden) in o's cone, outside S, that reaches
	// no chosen input has every path to o input-free and must join B(I, o).
	// uncAll collects the inputs' ancestor cones once per level — inputs
	// included, they can never rejoin — so the test is one fused word scan
	// per candidate output (quickOffending).
	quickRej := e.opt.PruneWhileBuildingS && ninLeft <= 0
	var uncAll *bitset.Set
	if quickRej {
		uncAll = e.uncBuf(depth)
		uncAll.Clear()
		for _, i := range e.Ilist {
			uncAll.UnionWords(e.g.ReachTo(i).Words())
			uncAll.Add(i)
		}
	}
	ri := len(e.ranges)
	e.ranges = append(e.ranges, posRange{
		depth: depth, cur: start - 1, end: end,
		outsLen: len(e.outs), insLen: len(e.Ilist),
		ninLeft: ninLeft, noutLeft: noutLeft,
	})
	// The frame must be addressed as e.ranges[ri] afresh after any
	// recursion: deeper levels append to the slice and may move it.
	for !e.stopped {
		o := e.ranges[ri].cur + 1
		if o >= e.ranges[ri].end { // end may have shrunk via a split
			break
		}
		e.ranges[ri].cur = o
		if !e.admissibleOutput(o) {
			continue
		}
		// In connected-only mode every output after the first must be
		// reachable from a chosen input (§5.3). The paper's companion rule —
		// when internal outputs exceed Nout, only connected outputs need be
		// tried — relies on S growing monotonically and is unsound under
		// the exact cut maintenance used here (a later input can evict an
		// internal output), so it is deliberately not applied.
		if e.opt.ConnectedOnly && len(e.outs) > 0 && !e.reachableFromInput(o) {
			continue
		}
		e.stats.OutputsTried++
		if quickRej && e.quickOffending(o, uncAll) {
			continue
		}
		e.outs = append(e.outs, o)
		e.outSet.Add(o)
		e.growS(depth)
		if e.viable(ninLeft) {
			e.pickInputs(depth+1, o, ninLeft, noutLeft-1, 0, len(e.Ilist), nil)
		}
		e.undoGrowS(depth)
		e.outSet.Remove(o)
		e.outs = e.outs[:len(e.outs)-1]
	}
	e.ranges = e.ranges[:ri]
	e.popRangeSegs(ri)
}

// quickOffending reports whether growing S for output o is certain to
// produce a cut containing a root or forbidden vertex: an entry vertex of
// o's cone outside S that reaches no chosen input (uncAll: the inputs and
// their ancestor cones) cannot be severed — any path of its to o stays in
// the cone, and an input on it would be one of its descendants, putting it
// in uncAll — so it must join B(I, o). One fused word-parallel scan; when
// it fires, the viable() rejection the grow kernel's work would have fed is
// taken for free. (o itself needs no test: admissibleOutput already
// excluded forbidden and root candidates.)
func (e *incEnum) quickOffending(o int, uncAll *bitset.Set) bool {
	cw := e.g.ReachTo(o).Words()
	ew := e.g.EntrySet().Words()
	sw := e.S.Words()
	uw := uncAll.Words()
	for i, c := range cw {
		if c&ew[i]&^sw[i]&^uw[i] != 0 {
			return true
		}
	}
	return false
}

// admissibleOutput filters output candidates: not forbidden, not a root,
// not already in the cut or chosen, and not related by ancestry or
// postdominance to a chosen output.
func (e *incEnum) admissibleOutput(o int) bool {
	if e.g.IsForbidden(o) || e.S.Has(o) || e.outSet.Has(o) || e.Iuser.Has(o) {
		return false
	}
	for _, prev := range e.outs {
		// Ancestors of chosen outputs end up inside the cut, so they never
		// need to be chosen (§5.3, output–output pruning). The topological
		// ordering already guarantees this when the pruning is on; check
		// explicitly for the unpruned configuration.
		if e.g.Reaches(o, prev) {
			return false
		}
		if e.pdt.Dominates(prev, o) || e.pdt.Dominates(o, prev) {
			return false
		}
	}
	return true
}

// reachableFromInput reports whether some chosen input reaches o.
func (e *incEnum) reachableFromInput(o int) bool {
	for _, i := range e.Ilist {
		if e.g.Reaches(i, o) {
			return true
		}
	}
	return false
}

// pickInputs implements PICK-INPUTS for output o: one reduced-graph
// analysis either shows the chosen inputs already dominate o (condition 1)
// — then, at a phase start, the cut is checked — or yields every vertex w
// completing a multiple-vertex dominator of o. Afterwards, if budget
// remains, the seed set is extended with further ancestors of o.
//
// Seed candidates are restricted to vertices on a surviving source→o path:
// blocking anything else leaves every path (and therefore every reduced
// dominator found below) unchanged, so such seeds can only reproduce cuts
// that the unextended seed set already generates.
//
// It reports whether any dominator completion (or full domination) was
// found in this subtree, which drives the dominator–input pruning.
//
// phaseStart indexes the first entry of Ilist chosen during the current
// output's phase: those seeds justify their membership through o, so each
// must keep a surviving path to o (the paper's "quick dismissal" of seed
// sets violating definition 5's condition 2). A branch whose seed went dead
// reproduces only cuts that the branch without that seed generates.
//
// pBack is the parent seed level's reaches-o frontier (nil at a phase
// start); when present the just-pushed seed is Ilist's last entry and
// analyzePaths derives the child frontier from it by delta.
func (e *incEnum) pickInputs(depth, o, ninLeft, noutLeft, seedStart, phaseStart int, pBack *bitset.Set) bool {
	if h := faultinject.OnPickInputs; h != nil {
		h()
	}
	e.checkStop()
	if e.stopped {
		return false
	}
	e.maybeSplit()
	e.stats.LTRuns++
	lastIn := -1
	if pBack != nil {
		lastIn = e.Ilist[len(e.Ilist)-1]
	}
	onPath := e.pathBuf(depth)
	back := e.backBuf(depth)
	// A seed level with two inputs left records its dominator tree in the
	// last-level table (lastlevel.go), which then serves its children: a
	// child with one input left below a seed loop needs no analysis.
	var tree *lastLevel
	if ninLeft == 2 {
		tree = &e.last
	}
	served := pBack != nil && ninLeft == 1
	var reachable bool
	var chain []int
	if served {
		// No frontier either, because the seed-alive check cannot fail
		// here: seeds are pushed in descending id order, so every other
		// seed of the phase lies above lastIn and keeps its paths to o,
		// and lastIn, on a surviving path, keeps one through a successor.
		reachable = !e.last.onChain(lastIn)
	} else {
		reachable, chain = e.analyzePaths(o, back, onPath, pBack, lastIn, e.chainBuf(depth), ninLeft > 0, tree)
		e.chains[depth] = chain // keep any capacity growth for reuse
		for _, v := range e.Ilist[phaseStart:] {
			// Alive ⟺ some successor of v still reaches o avoiding I; o
			// itself is a member of back, so one row intersection answers
			// it.
			if !e.g.SuccsIntersect(v, back) {
				e.stats.SeedsPruned++
				return false
			}
		}
	}
	if !reachable {
		// I dominates o already (the PICK-OUTPUT "if I dominates o" branch).
		// After a seed push the same input set is derived again with its
		// smallest member, lastIn, as the completion — the canonical
		// derivation (docs/ALGORITHM.md §5) — so only a phase start checks
		// the cut here.
		if pBack == nil {
			e.checkCut(depth, o, ninLeft, noutLeft)
		}
		return true
	}
	if ninLeft <= 0 {
		return false
	}
	if served {
		if !e.last.built {
			e.stats.LastLevelTables++
		}
		e.stats.LastLevelLookups++
		chain = e.last.chainFor(lastIn, e.chainBuf(depth))
		e.chains[depth] = chain
	}

	found := false

	// Completion step: every reduced-graph dominator of o extends I to a
	// multiple-vertex dominator of o. The completion is the phase's
	// smallest input: the chain ascends, so it stops at the first vertex
	// above the phase's last (smallest) seed.
	for _, u := range chain {
		if e.stopped {
			return found
		}
		if pBack != nil && u > lastIn {
			break
		}
		if e.outSet.Has(u) {
			continue // a chosen output cannot double as an input
		}
		if e.pruneInput(u, o) {
			continue
		}
		found = true
		e.flushSeeds(depth)
		e.pushInput(u)
		e.shrinkS(depth, u)
		if e.viable(ninLeft - 1) {
			e.checkCut(depth+1, o, ninLeft-1, noutLeft)
		}
		e.undoShrinkS(depth)
		e.popInput(u)
	}

	// Seed extension step: push another on-path ancestor of o and recurse.
	if ninLeft > 1 {
		// The budget-feasibility bound costs a few traversals, so it only
		// runs where extension is actually expensive: at least one seed
		// already chosen (the explosion lives in deep seed levels) and a
		// surviving-path region big enough that iterating it blindly would
		// cost more than the bound.
		if e.opt.PruneInfeasibleBudget && len(e.Ilist) > phaseStart &&
			onPath.Count() > 64 {
			// Load the mandatory vertices of the current phase's seeds and
			// bound the inputs any completion still needs (see flow.go).
			// flowBoundCanExceed first checks two O(words) structural caps
			// on the max-flow; when either already fits the budget, the
			// bound cannot prune and the residual graph is never built.
			fs := e.flow()
			fs.uncut.Clear()
			for _, v := range e.Ilist[phaseStart:] {
				e.mandatoryInto(fs.mandBuf, v, o, back)
				fs.uncut.Union(fs.mandBuf)
			}
			if e.flowBoundCanExceed(o, onPath, ninLeft) &&
				e.completionFlowBound(o, onPath, ninLeft) > ninLeft {
				e.stats.SeedsPruned++
				return found
			}
		}
		// Seed candidates walk the surviving-path vertices deepest-first
		// (descending id ≡ reverse topological order), starting below the
		// caller's seedStart.
		// Iterating the onPath members directly skips the off-path mass for
		// free; the historical index of seed i in that walk is N-1-i, which
		// is what the recursion's seedStart carries forward.
		if ninLeft == 2 {
			e.last.arm(chain)
		}
		lastValid := -1
		maxID := e.g.N() - 1 - seedStart
		ow := onPath.Words()
	seedLoop:
		for wi := maxID >> 6; wi >= 0; wi-- {
			w := ow[wi]
			if wi == maxID>>6 && maxID&63 != 63 {
				w &= 1<<uint((maxID&63)+1) - 1
			}
			for w != 0 {
				b := 63 - bits.LeadingZeros64(w)
				w &^= 1 << uint(b)
				i := wi<<6 + b
				if e.stopped {
					return found
				}
				if i == o || e.outSet.Has(i) {
					continue
				}
				if e.opt.PruneDominatorInput && lastValid >= 0 {
					if e.g.IsForbidden(lastValid) {
						// A forbidden seed cannot be replaced: stop extending
						// this slot (§5.3, dominator–input pruning).
						break seedLoop
					}
					if !e.g.Reaches(i, lastValid) {
						e.stats.SeedsPruned++
						continue // replacements come from the seed's ancestors
					}
				}
				if e.pruneSeed(i, o) {
					continue
				}
				// No viable() guard: ninLeft-1 ≥ 1 inputs stay, so it holds.
				e.pushSeed(i)
				sub := e.pickInputs(depth+1, o, ninLeft-1, noutLeft, e.g.N()-i, phaseStart, back)
				e.popSeed(depth, i)
				if sub {
					found = true
					lastValid = i
				}
			}
		}
	}
	return found
}

// pruneInput applies the §5.3 output–input prunings to a completion
// candidate u for output o.
func (e *incEnum) pruneInput(u, o int) bool {
	if !e.opt.PruneOutputInput {
		return false
	}
	// An input's private path to the output lies inside the cut after the
	// input, so a forbidden-free u→o path must exist.
	if !e.g.ReachesForbiddenFree(u, o) {
		e.stats.SeedsPruned++
		return true
	}
	if e.forcedInputsWith(u, o) > e.opt.MaxInputs {
		e.stats.SeedsPruned++
		return true
	}
	if e.opt.PruneForbiddenAncestors && e.badIn[o].Has(u) {
		e.stats.SeedsPruned++
		return true
	}
	return false
}

// forcedInputsWith lower-bounds |I(S)| for any cut that has v among its
// inputs and o among its outputs: every forbidden direct predecessor of o
// must be an input (it can neither join the cut nor be severed from o).
func (e *incEnum) forcedInputsWith(v, o int) int {
	fp := e.g.ForbiddenPreds(o)
	n := fp.Count()
	if !fp.Has(v) {
		n++
	}
	return n
}

// pruneSeed applies the §5.3 input–input prunings and pruneInput's to a
// seed candidate i for output o.
func (e *incEnum) pruneSeed(i, o int) bool {
	if e.opt.PruneInputInput {
		// Two inputs related by postdominance can never coexist in a valid
		// cut under the technical condition (§5.3, input–input pruning).
		for _, v := range e.Ilist {
			if e.pdt.Dominates(i, v) || e.pdt.Dominates(v, i) {
				e.stats.SeedsPruned++
				return true
			}
		}
	}
	if e.opt.PruneOutputInput {
		return e.pruneInput(i, o)
	}
	if e.opt.PruneForbiddenAncestors && e.badIn[o].Has(i) {
		e.stats.SeedsPruned++
		return true
	}
	return false
}

func (e *incEnum) pushInput(w int) {
	e.Iuser.Add(w)
	e.Ilist = append(e.Ilist, w)
}

func (e *incEnum) popInput(w int) {
	e.Iuser.Remove(w)
	e.Ilist = e.Ilist[:len(e.Ilist)-1]
}

// checkStop aborts the search when the external stop flag is raised or a
// stop source of the run — Options.Context, Options.Deadline — fires. The
// flag is an atomic load, checked on every call; the wall clock and the
// context channel are sampled only every few thousand checks (Stopper) to
// keep their cost negligible. It is the single poll point the incremental
// search uses; the baselines and EnumerateBasic share the same Stopper
// primitive so cancellation semantics cannot drift between poly and oracle
// runs.
//
// A stopping worker raises the shared stop flag HERE (stopExternal), before
// its unwinding closes any merge segment. The merge observes a close only
// after draining the segment, and a channel close is an acquire/release
// pair, so once the drain advances past the truncated segment it is
// guaranteed to see the flag and visit nothing further — the visitor
// receives a coherent prefix of the serial order even though segments past
// the truncation point (other workers' subtrees, previously donated ranges)
// still drain. The same argument covers every stop cause: deadline,
// cancellation, budget, contained panic, handoff stall.
func (e *incEnum) checkStop() {
	if e.ext != nil && e.ext.Load() {
		e.stopped = true
		return
	}
	if r := e.stop.Poll(); r != StopNone {
		e.stopExternal(r)
	}
}

// stopExternal records stop reason r and raises every stop flag: the
// worker's own and, in parallel runs, the shared one — strictly before any
// truncated merge segment closes, which is what keeps the drained prefix
// serial-coherent (see checkStop).
func (e *incEnum) stopExternal(r StopReason) {
	e.stats.RecordStop(r)
	e.stopped = true
	if e.ext != nil {
		e.ext.Store(true)
	}
}

// fail records err as the worker's first error and stops the run with
// StopReason = StopError.
func (e *incEnum) fail(err error) {
	if e.stats.Err == nil {
		e.stats.Err = err
	}
	e.stopExternal(StopError)
}

// resetChoice clears the output/input choice state (and the cut it
// identifies), returning the worker to the between-subtrees empty state.
func (e *incEnum) resetChoice() {
	e.outs = e.outs[:0]
	e.outSet.Clear()
	e.Ilist = e.Ilist[:0]
	e.Iuser.Clear()
	e.pending = 0
	e.S.Clear()
}

// checkCut implements CHECK-CUT: accept the current S when its real outputs
// (internal ones included, per the output–output pruning) fit the budget,
// then recurse into further output choices. The admission checks run on the
// incremental validation engine: the real-output count is a population
// count on the delta-maintained O(S) (the from-scratch OutputsInto sweep
// this replaced was the single hottest per-candidate cost), the canonical
// derivation test compares the chosen outputs and inputs with the
// maintained O(S) and I(S), and the full §3 validation runs staged on the
// same aggregates. Each valid cut passes the canonical test at exactly one
// search node, so it reaches e.visit once, with no record of earlier cuts:
// the run's visit point in a serial run, the worker's merge segment in a
// parallel one.
func (e *incEnum) checkCut(depth, o, ninLeft, noutLeft int) {
	if h := faultinject.OnCheckCut; h != nil {
		h()
	}
	e.checkStop()
	if e.stopped {
		return
	}
	e.maybeSplit()
	e.stats.Candidates++
	realOuts := e.dval.NumOutputs()
	if realOuts <= e.opt.MaxOutputs && !e.S.Empty() && !e.S.Intersects(e.g.ForbiddenSet()) {
		if !e.dval.Canonical(e.outs, e.Iuser) {
			e.stats.Duplicates++
		} else {
			var cut Cut
			if e.dval.Validate(&cut) {
				if e.opt.KeepCuts {
					cut.Nodes = cut.Nodes.Clone()
				}
				if !e.visit(cut) {
					// The visit point (serial) or the merge (parallel) has
					// recorded why the run stops.
					e.stopped = true
					return
				}
			} else {
				e.stats.Invalid++
			}
		}
	}
	if noutLeft > 0 {
		e.pickOutput(depth+1, o, ninLeft, noutLeft)
	}
}

// CollectAll is a convenience wrapper running Enumerate and returning all
// valid cuts sorted deterministically.
func CollectAll(g *dfg.Graph, opt Options) ([]Cut, Stats) {
	opt.KeepCuts = true
	return Collect(func(visit func(Cut) bool) Stats {
		return Enumerate(g, opt, visit)
	})
}

// CollectBasic runs EnumerateBasic and returns all valid cuts sorted
// deterministically.
func CollectBasic(g *dfg.Graph, opt Options) ([]Cut, Stats) {
	opt.KeepCuts = true
	return Collect(func(visit func(Cut) bool) Stats {
		return EnumerateBasic(g, opt, visit)
	})
}
