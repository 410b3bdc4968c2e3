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
// remains the reference the property tests pin the deltas to.
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
	return enumerateFrom(g, opt, visit, nil)
}

// enumerateFrom picks the serial or the parallel run loop for Enumerate
// (snap nil) and ResumeEnumerate (snap the validated snapshot).
func enumerateFrom(g *dfg.Graph, opt Options, visit func(Cut) bool, snap *checkpoint.Snapshot) Stats {
	if w := parallel.Workers(opt.Parallelism); w > 1 && g.N() > 1 {
		return enumerateParallel(g, opt, visit, w, snap)
	}
	return enumerateSerial(g, opt, visit, snap)
}

// enumerateSerial is the serial run loop, shared by Enumerate and
// ResumeEnumerate: snap, when non-nil, seeds the visit point from a
// snapshot and restarts the top-level loop at the snapshot's frontier
// position, whose subtree is replayed (see checkpoint.go).
func enumerateSerial(g *dfg.Graph, opt Options, visit func(Cut) bool, snap *checkpoint.Snapshot) Stats {
	sh := newEnumShared(g, opt)
	e := sh.newWorker(nil, nil)
	vp := newVisitPoint(g, opt, visit, &e.stats, snap)
	e.visit = vp.deliver
	e.stopped = e.stats.StopReason != StopNone // a resume already at its MaxCuts cap
	func() {
		// Failure semantics (serial): a panic in the search is contained
		// here and reported as StopReason = StopError with Stats.Err; the
		// visit point contains the visitor's own panics. The cuts already
		// visited are a coherent prefix of the enumeration order, and the
		// final snapshot below is written from the unwound state.
		defer e.containPanic()
		for pos := vp.curTop; pos < g.N() && !e.stopped; pos++ {
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
	pdRel   []*bitset.Set // per vertex: the vertices related to it by postdominance
	entries []int         // roots ∪ user-forbidden: virtual-source successors
	permOut *bitset.Set   // vertices that can never stop being outputs once in S
}

func newEnumShared(g *dfg.Graph, opt Options) *enumShared {
	sh := &enumShared{g: g, opt: opt}
	sh.pdRel = domtree.PostdominanceRelation(g)

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
		pdRel:   sh.pdRel,
		entries: sh.entries,
		permOut: sh.permOut,
		ext:     ext,
		stop:    NewStopper(sh.opt),
		val:     NewValidator(sh.g, sh.opt),
		tr:      sh.g.NewTraverser(),
		S:       S,
		Iuser:   bitset.New(n),
		outSet:  bitset.New(n),
	}
}

// work is the worker's share of the search's exact work counts that Stats
// does not carry. It stays out of Stats, and so out of the checkpoint
// record: a resumed or parallel run starts every worker's counts at zero.
// The work record (testdata/work.json) pins a serial run's counts.
type work struct {
	Shrinks        int `json:"shrinks"`          // shrinkS calls: one per completion
	FlowCalls      int `json:"flow_calls"`       // §5.3 flow bound asked for: rejected sets loaded
	FlowRuns       int `json:"flow_runs"`        // max-flow kernel runs past the structural caps
	FlowAugments   int `json:"flow_augments"`    // augmenting-path searches after the kernel's one-pass phase
	FlowPrunes     int `json:"flow_prunes"`      // subtrees the flow bound pruned
	MemoFills      int `json:"memo_fills"`       // cone memo entries filled
	MemoHits       int `json:"memo_hits"`        // phase starts served from a cone memo entry
	TreeFolds      int `json:"tree_folds"`       // analyses that folded a tree into the scratch tree
	OverBudget     int `json:"over_budget"`      // candidates rejected because O(S) exceeds MaxOutputs
	QuickRejects   int `json:"quick_rejects"`    // output pushes quickOffending rejected before the grow kernel
	ChainsInParent int `json:"chains_in_parent"` // served children the parent decided: no admissible completion
	ServedFolds    int `json:"served_folds"`     // tree folds whose armed table a child read
}

type incEnum struct {
	g     *dfg.Graph
	opt   Options
	visit func(Cut) bool
	val   *Validator     // CHECK-CUT's §3 checks, worker-owned
	tr    *dfg.Traverser // word-parallel traversal kernels, worker-owned
	stats Stats
	ext   *atomic.Bool // external stop flag; nil in serial runs

	S      *bitset.Set // current cut (user capacity)
	Iuser  *bitset.Set // chosen inputs
	Ilist  []int
	outs   []int
	outSet *bitset.Set

	entries []int         // roots ∪ user-forbidden: virtual-source successors
	pdRel   []*bitset.Set // shared: per-vertex postdominance relation rows
	permOut *bitset.Set   // shared: vertices that are outputs forever once in S

	journal  []*bitset.Set // per-depth undo journal: the delta each push applied to S
	paths    []*bitset.Set // per-depth on-path sets
	backs    []*bitset.Set // per-depth reaches-o sets (an output push at d fills d+1)
	uncs     []*bitset.Set // per-depth input-ancestor sets for the quick-offending reject
	chains   [][]int       // per-depth dominator-chain buffers
	inRejs   []*bitset.Set // per chosen output: the inputs §5.3 rejects for it
	seedRejs []*bitset.Set // per-depth: the seeds §5.3 rejects in the seed loop
	last     lastLevel     // the live two-inputs-left seed loop's chains (lastlevel.go)
	cones    coneMemo      // input-free phase starts, by output (lastlevel.go)
	fs       *flowScratch
	kept     cutSlab // storage of kept cuts (Options.KeepCuts)
	stopped  bool
	stop     Stopper // shared cancel/deadline poll primitive (stop.go)
	work     work

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
}

// bufAt returns the scratch set at index d of a per-depth (or per-output)
// family, growing the family as needed. Indexed because deeper recursion
// levels run while an outer level still needs its own set.
func (e *incEnum) bufAt(bufs *[]*bitset.Set, d int) *bitset.Set {
	for len(*bufs) <= d {
		*bufs = append(*bufs, bitset.New(e.g.N()))
	}
	return (*bufs)[d]
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
// chosen inputs) with respect to output o, below the phase's last input
// lastIn (o itself at a phase start). back arrives holding the set of
// vertices that reach o avoiding the inputs: at a phase start the output
// push's grow kernel (growS) wrote B(I, o) ∪ {o} into it, and after a seed
// push the delta kernel (dfg.Traverser.ShrinkReachInto) derived it from
// the parent level's. It computes into onPath the vertices below lastIn
// lying on some source→o path avoiding the inputs, appends to chain every
// vertex below lastIn that dominates o in the reduced graph, and reports
// whether o is reachable at all.
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
// Dominators then fall out of the running maximum: restricted to
// surviving paths, v dominates o exactly when no surviving edge "jumps
// over" its topological position, i.e. when the running maximum of highest
// on-path successors is at most v when the walk reaches it. The Freeze-memoized MaxSucc bound
// skips the masked row scan whenever even v's highest successor overall
// cannot beat the running maximum — the common case once it nears o.
//
// The walk stops at lastIn. Nothing of the level reads a vertex above it:
// its completions, its seeds and a last-level child's chain all lie below
// lastIn, and the flow bound reads back. After a seed push o is reachable
// exactly when the running maximum has passed lastIn: a vertex of back
// above lastIn reaches o inside back, and a surviving source path to o
// either starts at an entry above lastIn or leaves the vertices below it
// along an edge the running maximum has read. At a phase start the walk
// reaches o itself and decides it as before.
//
// A level that may arm a last-level table passes tree: the sweep then also
// ranks H into it, with each vertex's immediate dominator and highest
// successor (lastLevel.sweep), where nil skips that work.
//
// Only a caller with input budget left analyses: with none, viable has
// already decided that o is unreachable (see pickInputs).
func (e *incEnum) analyzePaths(o int, back, onPath *bitset.Set, lastIn int, chain []int, tree []treeNode) (bool, []int) {
	g := e.g
	if tree != nil {
		return e.last.sweep(g, o, lastIn, back, onPath, chain, tree)
	}

	onPath.CopyIntersect(g.EntrySet(), back)
	bw := back.Words()
	opw := onPath.Words()
	runMax := dfg.HighestMaskedBit(g.EntrySet().Words(), bw)
	for wi, w := range bw {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			v := wi<<6 + b
			w &= w - 1
			if v > lastIn {
				return runMax > lastIn, chain
			}
			if opw[wi]&(1<<uint(b)) == 0 {
				if !g.PredsIntersect(v, onPath) {
					continue // on no surviving source path
				}
				opw[wi] |= 1 << uint(b)
			}
			if v == o {
				return true, chain
			}
			if runMax <= v {
				chain = append(chain, v)
			}
			if g.MaxSucc(v) > runMax {
				if p := dfg.HighestMaskedBit(g.SuccRow(v), bw); p > runMax {
					runMax = p
				}
			}
		}
	}
	return runMax > lastIn, chain // at a phase start: o never became on-path, I dominates o
}

// pickOutput implements PICK-OUTPUT: choose the next output o, grow S by
// {o} ∪ B(I, o), then hand over to input selection (which also covers the
// "I already dominates o" branch of figure 3).
//
// lastOut is the previously chosen output. Only later ids are tried (§5.3,
// output–output pruning): an ancestor has a smaller id, so requiring
// strictly increasing ids makes the "skip ancestors of selected outputs"
// rule free and canonicalizes the choice order.
func (e *incEnum) pickOutput(depth, lastOut, ninLeft, noutLeft int) {
	e.pickOutputRange(depth, lastOut+1, e.g.N(), ninLeft, noutLeft)
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
	quickRej := ninLeft <= 0
	var uncAll *bitset.Set
	if quickRej {
		uncAll = e.bufAt(&e.uncs, depth)
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
			e.work.QuickRejects++
			continue
		}
		e.outs = append(e.outs, o)
		e.outSet.Add(o)
		e.growS(depth)
		if e.viable(ninLeft) {
			e.pickInputs(depth+1, o, ninLeft, noutLeft-1, nil)
		}
		e.undoGrowS(depth)
		e.outSet.Remove(o)
		e.outs = e.outs[:len(e.outs)-1]
	}
	e.ranges = e.ranges[:ri]
	e.popRangeSegs(ri)
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
// The descending seed order decides the rest of the phase's bookkeeping.
// Every seed of the phase keeps a surviving path to o, so definition 5's
// condition 2 (the paper's "quick dismissal" of seed sets) never fails: a
// later seed is smaller than an earlier one and cannot lie on that seed's
// paths to o, which climb in id, and the last seed was taken on-path, so
// it keeps a successor that reaches o. The seeds' own mandatory vertices
// lie between them and o, above the last seed, where the flow bound
// already counts every vertex as uncuttable (docs/ALGORITHM.md §5, §6).
//
// pBack is the parent seed level's reaches-o frontier (nil at a phase
// start); when present the just-pushed seed is Ilist's last entry, and the
// level derives its own frontier from the parent's by delta. The flow
// bound reads only that frontier, so it runs first, and a level it prunes
// runs no analysis.
func (e *incEnum) pickInputs(depth, o, ninLeft, noutLeft int, pBack *bitset.Set) {
	if h := faultinject.OnPickInputs; h != nil {
		h()
	}
	if !e.poll() {
		return
	}
	e.stats.LTRuns++
	if ninLeft <= 0 {
		// No input budget (always a phase start: a seed push keeps one).
		// viable admitted S with no root or forbidden vertex in it, and
		// every vertex reaching o avoiding I is in S, so no entry reaches
		// o: I dominates o already, and the cut is checked.
		e.checkCut(depth, o, ninLeft, noutLeft)
		return
	}
	// Every input the phase still adds lies below lastIn: the last seed,
	// or o itself at a phase start.
	lastIn := o
	if pBack != nil {
		lastIn = e.Ilist[len(e.Ilist)-1]
	}
	if pBack != nil && ninLeft == 1 {
		// A child with one input left below a seed loop reaches here only
		// when its parent could not decide it alone: lastIn is not on the
		// parent's chain (lastLevel.dominated), so o stays reachable, and
		// the chain the parent read off the last-level table holds an
		// admissible completion. With one input left the child runs no
		// analysis, no seed loop and no flow bound.
		e.countServed()
		e.complete(depth, o, ninLeft, noutLeft, lastIn, e.chains[depth])
		return
	}
	inRej := e.bufAt(&e.inRejs, len(e.outs)-1)
	onPath := e.bufAt(&e.paths, depth)
	back := e.bufAt(&e.backs, depth)
	// A phase start with no chosen input in o's cone reads its analysis,
	// and its last-level tree, from the worker's cone memo (coneMemo).
	// Anywhere else a level with two inputs left whose seed loop runs folds
	// its tree into the worker's scratch tree as it analyses.
	reachable, top := true, -1 // top: set from a memo entry, else found below
	var chain []int
	var memo *coneEntry
	if pBack == nil && !e.Iuser.Intersects(e.g.ReachTo(o)) {
		memo = e.coneEntry(o, back, onPath, e.chainBuf(depth))
		reachable, top = memo.reach, int(memo.top)
		chain = append(e.chainBuf(depth), e.cones.chainOf(memo)...)
	} else {
		if pBack != nil {
			// Seed-extension level: derive back from the parent. (lastIn ∈
			// pBack: seeds are chosen on-path, and o ∈ pBack stays — it is
			// never an input, so only its ancestors can be severed.) A seed
			// level has two or more inputs left, so the flow bound runs.
			e.tr.ShrinkReachInto(back, pBack, o, lastIn)
			if e.flowPrunes(o, lastIn, back, inRej, ninLeft) {
				// A pruned level has no completion either, so it runs no
				// analysis. Its flow exceeds ninLeft ≥ 2, and every source
				// path to the sink crosses each dominator of o below
				// lastIn, so such a dominator would have to be rejected,
				// and no dominator ever is (docs/ALGORITHM.md §5, "Rejected
				// vertices dominate nothing"): its completion loop would
				// find nothing to check or count.
				e.work.FlowPrunes++
				e.stats.SeedsPruned++
				return
			}
		}
		var tree []treeNode
		if ninLeft == 2 {
			tree = e.last.scratchTree(e.g)
			e.work.TreeFolds++
		}
		reachable, chain = e.analyzePaths(o, back, onPath, lastIn, e.chainBuf(depth), tree)
	}
	e.chains[depth] = chain // keep any capacity growth for reuse
	if !reachable {
		// I dominates o already (the PICK-OUTPUT "if I dominates o" branch).
		// After a seed push the same input set is derived again with its
		// smallest member, lastIn, as the completion — the canonical
		// derivation (docs/ALGORITHM.md §5) — so only a phase start checks
		// the cut here.
		if pBack == nil {
			e.checkCut(depth, o, ninLeft, noutLeft)
		}
		return
	}
	if pBack == nil {
		e.inputRejectsInto(inRej, o)
	}
	if e.complete(depth, o, ninLeft, noutLeft, lastIn, chain); e.stopped {
		return
	}

	// Seed extension step: push another on-path ancestor of o and recurse.
	if ninLeft > 1 {
		// Seed candidates walk the surviving-path vertices deepest-first
		// (descending id ≡ reverse topological order), starting below
		// lastIn. Iterating the onPath members directly skips the off-path
		// mass for free.
		//
		// The walk stops below top, the highest entry of the surviving
		// region (docs/ALGORITHM.md §5, rule C): ids are topological, so
		// the surviving path from top to o avoids every vertex below top,
		// and every later input of a seed s < top lies below s. Such a
		// subtree never ends the phase, so it checks no cut and finds
		// nothing.
		rej := e.bufAt(&e.seedRejs, depth)
		e.seedRejectsInto(rej, inRej)
		if top < 0 {
			top = dfg.HighestMaskedBit(e.g.EntrySet().Words(), back.Words())
		}
		if ninLeft == 2 {
			if memo != nil {
				e.last.arm(onPath, chain, top, e.cones.treeOf(memo), true)
			} else {
				e.last.arm(onPath, chain, top, e.last.scratch, false)
			}
		}
		maxID := lastIn - 1
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
				if i < top {
					break seedLoop
				}
				if e.stopped {
					return
				}
				if e.outSet.Has(i) {
					continue
				}
				if rej.Has(i) {
					e.stats.SeedsPruned++
					continue
				}
				if ninLeft == 2 && e.decideLastLevel(depth, i) {
					if e.stopped {
						return
					}
					continue
				}
				// No viable() guard: ninLeft-1 ≥ 1 inputs stay, so it holds.
				// A seed push leaves S alone: the completion below applies it.
				e.pushInput(i)
				e.pickInputs(depth+1, o, ninLeft-1, noutLeft, back)
				e.popInput(i)
			}
		}
	}
}

// flowPrunes runs the budget-feasibility bound (§5.3) at a seed level,
// once the phase has a seed: it reports whether every completion of the
// phase still needs more than the ninLeft inputs left (see flow.go). None
// of them can be a vertex above lastIn (seeds descend, and the completion
// lies below the last seed) or a vertex the phase rejects (inRej), so all
// of these are uncuttable. flowBoundCanExceed first checks two O(words)
// structural caps on the max-flow; when either already fits the budget,
// the bound cannot prune and the max-flow never runs.
func (e *incEnum) flowPrunes(o, lastIn int, back, inRej *bitset.Set, ninLeft int) bool {
	e.flow().uncut.Copy(inRej)
	e.work.FlowCalls++
	if !e.flowBoundCanExceed(o, lastIn, back, ninLeft) {
		return false
	}
	e.work.FlowRuns++
	return e.completionFlowBound(o, lastIn, back, ninLeft) > ninLeft
}

// complete runs PICK-INPUTS' completion step: every reduced-graph
// dominator u of o in chain extends I to a multiple-vertex dominator of o.
// The completion is the phase's smallest input: the chain ascends, so it
// stops at the first vertex above the phase's last (smallest) seed,
// lastIn. A completion applies every chosen input the phase added to S at
// once (shrinkS), checks the cut and pops both. No dominator is a vertex
// the output–input pruning rejects (docs/ALGORITHM.md §5, "Rejected
// vertices dominate nothing"), so the loop needs no such test.
func (e *incEnum) complete(depth, o, ninLeft, noutLeft, lastIn int, chain []int) {
	for _, u := range chain {
		if e.stopped {
			return
		}
		if u > lastIn {
			break
		}
		if e.outSet.Has(u) {
			continue // a chosen output cannot double as an input
		}
		e.pushInput(u)
		e.shrinkS(depth)
		if e.viable(ninLeft - 1) {
			e.checkCut(depth+1, o, ninLeft-1, noutLeft)
		}
		e.undoShrinkS(depth)
		e.popInput(u)
	}
}

// decideLastLevel settles, inside a seed loop with two inputs left, the
// child that seed s would recurse into, when that child would check no
// cut: it reports true when there is nothing to push. A seed on the
// armed chain cuts o off (lastLevel.dominated), and the child's cut is
// checked where s completes the chain. Otherwise the parent reads the
// child's chain off the table into the chain buffer of depth+1, where a
// served child finds it, and when every member is a chosen output the
// child would only count (no member is a rejected vertex: docs/ALGORITHM.md
// §5, "Rejected vertices dominate nothing"). Either way the parent runs
// the child's poll and counts what the child would have, with no push and
// no call.
func (e *incEnum) decideLastLevel(depth, s int) bool {
	dominated := e.last.dominated(s)
	if !dominated {
		chain := e.last.chainFor(s, e.chainBuf(depth+1))
		e.chains[depth+1] = chain
		for _, u := range chain {
			if !e.outSet.Has(u) {
				return false // the child has a completion to check
			}
		}
	}
	if !e.poll() {
		return true
	}
	e.stats.LTRuns++
	if !dominated {
		e.countServed()
		e.work.ChainsInParent++
	}
	return true
}

// countServed counts one child served a chain by the armed last-level
// table, whether the child or its parent completes it. The first such
// child marks the table used (Stats.LastLevelTables) and, when the
// parent's own sweep folded the table's tree, counts that fold as read
// (work.ServedFolds).
func (e *incEnum) countServed() {
	if !e.last.served {
		e.last.served = true
		e.stats.LastLevelTables++
		if e.last.swept {
			e.work.ServedFolds++
		}
	}
	e.stats.LastLevelLookups++
}

// coneEntry returns the cone memo's entry for output o, whose ancestor
// cone holds no chosen input. back arrives holding o's cone ∪ {o}, as the
// output push left it, and onPath gets the same set. The first phase start
// of o fills the entry through analyzePaths' folding sweep, into a tree
// sized to the cone, with chain as the chain buffer, and folds the tree's
// L values up to o−1.
func (e *incEnum) coneEntry(o int, back, onPath *bitset.Set, chain []int) *coneEntry {
	m := &e.cones
	if m.ents == nil {
		m.ents = make([]coneEntry, e.g.N())
	}
	c := &m.ents[o]
	if c.filled {
		e.work.MemoHits++
		onPath.Copy(back)
		return c
	}
	e.work.MemoFills++
	c.tree, c.h = int32(len(m.trees)), int32(e.g.ReachTo(o).Count())
	m.trees = growSlab(m.trees, int(c.h), e.g.N())
	tree := m.treeOf(c)
	c.reach, chain = e.analyzePaths(o, back, onPath, o, chain, tree)
	top := dfg.HighestMaskedBit(e.g.EntrySet().Words(), back.Words())
	if c.reach {
		e.last.foldL(tree, top, rankIn(onPath.Words(), top), c.h)
	}
	c.top, c.chain, c.nChain = int32(top), int32(len(m.chains)), int32(len(chain))
	m.chains = growSlab(m.chains, len(chain), e.g.N())
	copy(m.chainOf(c), chain)
	c.filled = true
	return c
}

// poll is the prologue of every search node — a PICK-INPUTS call, a
// last-level child its parent decides, a CHECK-CUT — so stop latency and
// steal responsiveness follow the search's steps: it polls the stop
// sources (checkStop) and then a hungry peer (maybeSplit), and reports
// whether the run goes on. A serial run without stop sources has nothing
// to poll, and that check inlines.
func (e *incEnum) poll() bool {
	if e.ext == nil && e.steal == nil && e.stop.idle {
		return !e.stopped
	}
	return e.pollSources()
}

func (e *incEnum) pollSources() bool {
	e.checkStop()
	if e.stopped {
		return false
	}
	e.maybeSplit()
	return true
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
	e.S.Clear()
}

// checkCut implements CHECK-CUT: accept the current S when its real outputs
// (internal ones included, per the output–output pruning) fit the budget,
// then recurse into further output choices. The validator loads S once:
// the real-output count is a population count on the loaded O(S), the
// canonical derivation test compares the chosen outputs and inputs with
// the loaded O(S) and I(S), and the staged §3 validation reads the same
// aggregates. Each valid cut passes the canonical test at exactly one
// search node, so it reaches e.visit once, with no record of earlier cuts:
// the run's visit point in a serial run, the worker's merge segment in a
// parallel one.
func (e *incEnum) checkCut(depth, o, ninLeft, noutLeft int) {
	if h := faultinject.OnCheckCut; h != nil {
		h()
	}
	if !e.poll() {
		return
	}
	e.stats.Candidates++
	e.val.load(e.S)
	if e.val.outs.Count() > e.opt.MaxOutputs {
		e.work.OverBudget++
	} else if !e.S.Empty() && !e.S.Intersects(e.g.ForbiddenSet()) {
		if !e.val.canonical(e.outs, e.Iuser) {
			e.stats.Duplicates++
		} else {
			var cut Cut
			if e.val.validate(&cut) {
				if e.opt.KeepCuts {
					cut = e.kept.keep(cut)
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
