package enum

// Sharded parallel POLY-ENUM-INCR with interior work-stealing. The top
// level of the incremental search chooses the first output by walking the
// topological order, and the subtree under each first-output choice touches
// no search state of any other subtree (every pickOutputRange frame leaves
// the worker state as it found it, so one depth-0 frame per position
// starts and ends empty). That makes first-output positions the natural
// initial shard grain: workers claim positions dynamically, each running
// the exact serial algorithm on its own clone-per-shard state (validator,
// bitset scratch, flow solver), and a merge stage reassembles the
// per-position cut streams in position order.
//
// Subtree sizes are heavily skewed, though — one fat first-output subtree
// bounds the speedup of pure position sharding at any worker count. So once
// the positions run out, workers turn thief: a busy worker that notices a
// hungry peer (maybeSplit, polled on the admission paths) splits the
// remaining next-output interval of its shallowest splittable search level
// and hands the upper half over as a stolen workUnit. The unit carries only
// the output/input choice prefixes of that level; the thief reconstructs
// the donor's full search state from them, because the maintained cut S is
// a pure function of (outs, Ilist) — rebuildS — and the validator derives
// everything it checks from S at each admission check. Claimed positions
// and stolen ranges run through the same runner (runUnit). Seed-extension
// intervals are deliberately not stealable (see posRange); stolen units
// can split again, so a fat subtree keeps decomposing for as long as
// workers go hungry.
//
// Determinism. The serial enumeration visits cuts in a well-defined order:
// the concatenation, over first-output positions, of each subtree's
// sequence of canonical derivations. Whether a search node delivers a cut
// depends on that node alone (checkCut's canonical derivation test), so no
// worker needs to know what any other delivered. The parallel enumeration
// reproduces that order exactly at every worker count and under every
// steal schedule. Order is preserved structurally rather than by
// numbering: the merge (parallel.SplitOrdered) drains a linked list of
// stream segments that starts as one segment per first-output position, and
// every split splices the stolen range's segment — followed by the donor's
// resume segment — at exactly the list position where the stolen output
// belongs in the serial sequence (see maybeSplit for why splicing at the
// donor's current segment is the right spot). The merge hands each cut, in
// list order, to the run's visit point (visitPoint, shared with serial
// runs). The visitor therefore sees the same cuts, in the same order, as
// Parallelism=1 — including the same prefix when it stops the enumeration
// early. Under any external stop — Options.Deadline, Options.Context
// cancellation, a resource budget, a contained panic or a handoff stall —
// the visited sequence is still a prefix of the serial order (a stopping
// worker raises the shared stop before any truncated segment closes; see
// checkStop), though not necessarily the same prefix a serial run stopped
// the same way would reach — workers progress at different rates.
//
// Stats. For runs that complete, every counter except Steals equals the
// serial run's: every search-tree node is executed exactly once by
// somebody holding the same state the serial run would hold, and each
// node's verdict (Duplicates, Invalid or delivered) is a function of that
// state alone. After an early visitor stop the counters are NOT preserved:
// workers already past the stopped prefix report work a serial run would
// never have started, so Candidates etc. may exceed the serial-stopped
// values, while Valid still counts exactly the visited cuts. Steals counts
// accepted stolen units and is zero in serial runs; it is
// scheduling-dependent and excluded from the determinism contract.

import (
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"polyise/internal/checkpoint"
	"polyise/internal/dfg"
	"polyise/internal/faultinject"
	"polyise/internal/parallel"
)

// shardStreamBuf bounds the number of undrained cuts buffered per merge
// segment. Producers ahead of the merge frontier block once their segment's
// buffer fills, so total in-flight memory is at most workers×shardStreamBuf
// cuts beyond the frontier.
const shardStreamBuf = 64

// streamBuf shrinks the per-segment buffer on very large graphs. Streams
// materialize lazily as segments are claimed and are released once drained
// (parallel.SplitOrdered), so the common case pays only for the ~workers
// streams that actually hold data; the cap bounds the worst case — every
// segment emitting into a buffer while producers sprint ahead of the drain
// frontier — to a few MB even for blocks far beyond the corpus's 1196-node
// ceiling.
func streamBuf(n int) int {
	const totalSlots = 1 << 18
	if b := totalSlots / n; b < shardStreamBuf {
		if b < 4 {
			return 4
		}
		return b
	}
	return shardStreamBuf
}

// workUnit is one piece of search a worker runs: the next-output positions
// [posStart, posEnd) of the pickOutputRange loop at recursion depth
// `depth`, entered with the output/input choice prefixes outs and ins, whose
// cuts flow into the merge segment seg. A claimed top-level position pos is
// the unit {Top(pos), depth 0, [pos, pos+1)} with empty prefixes; a stolen
// unit carries private copies of the donor's prefixes at the split level,
// and the thief mutates its own state only.
type workUnit struct {
	seg      *parallel.Seg[Cut]
	stolen   bool
	depth    int
	posStart int
	posEnd   int
	ninLeft  int
	noutLeft int
	outs     []int
	ins      []int
}

// stealState is the coordination block all workers of one parallel
// enumeration share.
//
// Tasks are created by handoff only: a donor first claims a hungry worker
// (claimHungry), and only then splices the merge segments and sends the
// task on the unbuffered channel. Every open merge segment therefore always
// has a live owner — donor, thief, or a task in flight to a committed
// receiver — which is exactly the liveness discipline SplitOrdered's
// deadlock-freedom argument requires. A queued-task design would break it:
// all workers could block emitting into full buffers while the merge head
// waits on a queued task nobody is running.
//
// active counts liveness tokens: workers still claiming top-level
// positions, workers running a task, and tasks in flight. A donor mints the
// task's token (active.Add(1)) before sending, the receiver inherits it and
// releases it when the task finishes. A worker with nothing to do releases
// its own token; whoever drops the count to zero proves no work exists and
// none can be created (donors hold tokens), and closes done to release the
// remaining waiters.
type stealState struct {
	ord    *parallel.SplitOrdered[Cut]
	tasks  chan workUnit
	done   chan struct{}
	hungry atomic.Int64
	active atomic.Int64
}

// claimHungry atomically claims one hungry worker, reporting false when
// none is waiting (or another donor won the race for the last one).
func (st *stealState) claimHungry() bool {
	for {
		h := st.hungry.Load()
		if h <= 0 {
			return false
		}
		if st.hungry.CompareAndSwap(h, h-1) {
			return true
		}
	}
}

// posRange is one live pickOutputRange frame: the topological positions
// [cur+1, end) are this level's untried next-output candidates, and a donor
// may give away the upper half of that interval because the iterations are
// mutually independent — each one restores S, outs and Ilist to the frame's
// entry state, which outsLen/insLen record as prefix lengths so a thief can
// reconstruct it (S is a pure function of the outs/Ilist prefixes;
// rebuildS). cur and end are only ever mutated by the owning worker's own
// goroutine: a split shrinks end and publishes the cut-off tail as a task,
// never touching another worker's state.
//
// Seed-extension intervals (the seedLoop of pickInputs) are not stealable,
// because nothing needs them to be: measured at Nin=8, no top-level
// position holds more than 3.9 % of LTRuns, so next-output ranges already
// balance the load. A thief would also have to re-arm the loop's
// last-level table (lastLevel), whose cursor carries across iterations;
// next-output intervals carry no cross-iteration state (uncAll and
// quickRej are level-constant).
type posRange struct {
	depth    int // recursion depth of the frame (journal/scratch index)
	cur      int // last claimed topological position; [start, cur] are taken
	end      int // exclusive upper bound; shrunk by splits
	outsLen  int // len(outs) at frame entry — the shared output prefix
	insLen   int // len(Ilist) at frame entry — the shared input prefix
	ninLeft  int
	noutLeft int
}

// segResume records the resume segment a split created: once the range
// frame at rangeIdx finishes, the donor closes its current segment and
// continues emitting into seg, which the merge places right after the
// stolen segment — the exact serial position of the donor's post-range
// output.
type segResume struct {
	rangeIdx int
	seg      *parallel.Seg[Cut]
}

// maybeSplit is the donation poll: when another worker is hungry, give away
// the upper half of the shallowest splittable next-output interval on the
// frame stack. Called from the hot admission paths (pickInputs, checkCut);
// the serial fast path is one nil check and the parallel no-donor fast path
// one atomic load.
//
// Splitting the SHALLOWEST splittable frame first does double duty. It
// donates the largest subtree (best granularity), and it is what makes
// splicing at the worker's CURRENT segment correct: a frame's remaining
// interval only ever shrinks, so once a frame is unsplittable it stays so,
// which makes the rangeIdx values on segStack non-decreasing — every
// already-promised stolen range belongs to a frame at least as deep as the
// one being split now, so its output serially precedes the newly stolen
// tail, and the merge-list order (new splices sit closest to the current
// segment) reproduces exactly that.
func (e *incEnum) maybeSplit() {
	st := e.steal
	if st == nil || e.stopped {
		return
	}
	if st.hungry.Load() == 0 {
		return
	}
	if h := faultinject.OnStealPublish; h != nil {
		// Fires before claimHungry, so an injected panic here dies with no
		// hungry slot claimed and no segment spliced — containment needs to
		// repair nothing of the handoff.
		h()
	}
	for ri := range e.ranges {
		remaining := e.ranges[ri].end - (e.ranges[ri].cur + 1)
		if remaining < 2 {
			continue
		}
		if !st.claimHungry() {
			return // the hungry worker was claimed by another donor
		}
		r := &e.ranges[ri] // stable here: no recursion below
		oldEnd := r.end
		mid := r.cur + 1 + (remaining+1)/2
		stolen, resume := st.ord.Split(e.curSeg)
		t := workUnit{
			seg:      stolen,
			stolen:   true,
			depth:    r.depth,
			posStart: mid,
			posEnd:   r.end,
			ninLeft:  r.ninLeft,
			noutLeft: r.noutLeft,
			outs:     append([]int(nil), e.outs[:r.outsLen]...),
			ins:      append([]int(nil), e.Ilist[:r.insLen]...),
		}
		r.end = mid
		e.segStack = append(e.segStack, segResume{rangeIdx: ri, seg: resume})
		e.sendTask(t, ri, oldEnd, resume)
		return
	}
}

// defaultStealStallTimeout bounds how long a donor waits for a claimed
// thief to accept a handoff before declaring the protocol's liveness
// broken. Under the handoff discipline the claimed thief is parked in its
// task select and committed to receive, so on a healthy run the send
// completes in microseconds; the timeout only fires if an invariant is
// broken, and then a diagnosable StallError beats an invisible hang. A
// variable rather than a constant so the watchdog's own test can shorten
// it.
var defaultStealStallTimeout = 10 * time.Second

// sendTask hands t to the claimed hungry worker, guarded by the stall
// watchdog. The claimed thief is committed to receive (see stealState), so
// the send normally completes at once; if it does not within
// defaultStealStallTimeout, the donor reabsorbs the donated range instead of
// hanging: the frame's end is restored so the donor runs the positions
// itself, the stolen and resume segments close empty (order-correct — the
// donor's current segment precedes both in the merge list, so its output
// keeps its serial position), the task's freshly minted liveness token is
// released, and the run stops with a StallError.
func (e *incEnum) sendTask(t workUnit, ri, oldEnd int, resume *parallel.Seg[Cut]) {
	st := e.steal
	st.active.Add(1) // the task's liveness token; the receiver inherits it
	if e.stallTimer == nil {
		e.stallTimer = time.NewTimer(defaultStealStallTimeout)
	} else {
		e.stallTimer.Reset(defaultStealStallTimeout)
	}
	select {
	case st.tasks <- t:
		e.stallTimer.Stop()
		return
	case <-e.stallTimer.C:
	}
	// Stall: reabsorb. segStack's top is the entry just pushed by
	// maybeSplit — no recursion ran in between.
	e.ranges[ri].end = oldEnd
	e.segStack = e.segStack[:len(e.segStack)-1]
	st.ord.Close(t.seg)
	st.ord.Close(resume)
	// The donor still holds its own token, so this release cannot be the
	// last one; the check mirrors the thief loop for symmetry.
	if st.active.Add(-1) == 0 {
		close(st.done)
	}
	e.fail(&StallError{Timeout: defaultStealStallTimeout})
}

// popRangeSegs runs at a pickOutputRange frame's epilogue: for every split
// the frame granted (LIFO on segStack), close the segment the worker has
// been emitting into and move onto the split's resume segment, whose merge
// position is right after the corresponding stolen range's output. With
// several splits of one frame the intermediate resume segments close empty
// — the donor reached the final (earliest-created) resume segment only
// after walking through the later ones.
func (e *incEnum) popRangeSegs(ri int) {
	for len(e.segStack) > 0 && e.segStack[len(e.segStack)-1].rangeIdx == ri {
		top := e.segStack[len(e.segStack)-1]
		e.segStack = e.segStack[:len(e.segStack)-1]
		e.steal.ord.Close(e.curSeg)
		e.curSeg = top.seg
	}
}

// containPanic is the search's containment boundary, deferred around the
// serial search loop and around each work unit's body (runUnitBody). It
// converts the panic into the run's first error and, in a parallel run,
// repairs the worker's merge obligations: the unwinding skipped every
// pickOutputRange epilogue on the stack, so the resume segments those
// frames' splits promised are closed here in LIFO order (replicating
// popRangeSegs), leaving curSeg on the final resume segment for the
// caller's own Close. Every segment is still closed exactly once and the
// ordered merge drains instead of deadlocking. The choice state is reset
// so the worker can keep claiming segments and serving its thief/token
// duties; the search-state corruption left behind (S, journals, analysis
// frontiers) is irrelevant because the stop flag is already raised — no
// further search runs on this worker.
func (e *incEnum) containPanic() {
	v := recover()
	if v == nil {
		return
	}
	e.fail(&PanicError{Value: v, Stack: debug.Stack()})
	for len(e.segStack) > 0 {
		top := e.segStack[len(e.segStack)-1]
		e.segStack = e.segStack[:len(e.segStack)-1]
		e.steal.ord.Close(e.curSeg)
		e.curSeg = top.seg
	}
	e.ranges = e.ranges[:0]
	e.resetChoice()
}

// runUnit executes one work unit on worker e and closes the unit's final
// segment. The segment is closed even when the unit is dropped because the
// enumeration already stopped — the merge drains every segment, so workers
// keep claiming positions after a stop — and even when the body panics:
// containment (containPanic) walks curSeg onto the unit's final segment,
// closing the intermediate ones, exactly as the skipped frame epilogues
// would have. Segments donated from the unit belong to their thieves.
func (e *incEnum) runUnit(u workUnit) {
	e.curSeg = u.seg
	if !e.stopped && !e.ext.Load() {
		e.runUnitBody(u)
		// The frame epilogue (or containPanic) left curSeg on the unit's
		// final segment and emptied the range/segment stacks; reset the
		// choice state a stolen unit installed.
		e.resetChoice()
	}
	e.steal.ord.Close(e.curSeg)
}

// runUnitBody is the contained interior of a work unit: state
// reconstruction from the choice prefixes and the range loop, under the
// parallel panic boundary.
func (e *incEnum) runUnitBody(u workUnit) {
	defer e.containPanic()
	if u.stolen {
		if h := faultinject.OnStealClaim; h != nil {
			// Fires after the thief accepted the unit (it owns u.seg and
			// the unit's liveness token) but before any reconstruction — a
			// panic here is the "thief dies mid-handoff" case.
			h()
		}
		e.stats.Steals++
	}
	e.outs = append(e.outs[:0], u.outs...)
	e.outSet.Clear()
	for _, o := range e.outs {
		e.outSet.Add(o)
	}
	e.Ilist = append(e.Ilist[:0], u.ins...)
	e.Iuser.Clear()
	for _, i := range e.Ilist {
		e.Iuser.Add(i)
	}
	e.rebuildS() // S is a pure function of the prefixes just installed
	e.pickOutputRange(u.depth, u.posStart, u.posEnd, u.ninLeft, u.noutLeft)
}

// enumerateParallel runs the sharded enumeration with the given worker
// count (≥ 2). The caller guarantees g is frozen and has at least 2 nodes.
// snap, when non-nil, resumes from a snapshot: workers start claiming
// top-level positions at the snapshot frontier and the merge's visit point
// is seeded from it, so it skips the replayed frontier subtree's
// already-delivered cuts (see ResumeEnumerate).
func enumerateParallel(g *dfg.Graph, opt Options, visit func(Cut) bool, workers int, snap *checkpoint.Snapshot) Stats {
	n := g.N()
	if workers > n {
		// More initial shards than first-output positions would only burn
		// per-worker setup (validator, traverser, scratch); work-stealing
		// is what balances skew, not extra idle states.
		workers = n
	}
	sh := newEnumShared(g, opt)

	// Shards must hand cuts across goroutines, so their node sets are
	// always cloned regardless of the caller's KeepCuts; the visitor
	// contract ("shared scratch, valid only during the call" when KeepCuts
	// is off) is trivially satisfied by the clone.
	sh.opt.KeepCuts = true

	st := &stealState{
		ord:   parallel.NewSplitOrdered[Cut](n, streamBuf(n)),
		tasks: make(chan workUnit),
		done:  make(chan struct{}),
	}
	st.active.Store(int64(workers))
	var mStats Stats // the merge's stop reason, first error and resume baseline
	vp := newVisitPoint(g, opt, visit, &mStats, snap)
	startTop := vp.curTop
	var stop atomic.Bool
	stop.Store(mStats.StopReason != StopNone) // a resume already at its MaxCuts cap
	var next atomic.Int64
	next.Store(int64(startTop))
	// The top-level segments before the resume frontier, which no worker
	// will claim, close empty so the drain walks straight past them.
	for i := 0; i < startTop && i < n; i++ {
		st.ord.Close(st.ord.Top(i))
	}
	var mu sync.Mutex
	var agg Stats

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var e *incEnum
			e = sh.newWorker(func(c Cut) bool {
				st.ord.Emit(e.curSeg, c)
				return !stop.Load()
			}, &stop)
			e.steal = st
			for {
				pos := int(next.Add(1)) - 1
				if pos >= n {
					break
				}
				e.runUnit(workUnit{
					seg: st.ord.Top(pos), posStart: pos, posEnd: pos + 1,
					ninLeft: opt.MaxInputs, noutLeft: opt.MaxOutputs,
				})
			}
			// Top-level positions exhausted: turn thief. Wait for donated
			// ranges until every token is released, i.e. until no worker
			// can possibly create more work. A donor claims a hungry slot
			// before minting the unit's token and sending, and donors hold
			// tokens of their own, so done cannot close while a send is
			// pending — the select below never strands a unit.
		thief:
			for {
				if st.active.Add(-1) == 0 {
					close(st.done)
					break
				}
				st.hungry.Add(1)
				select {
				case u := <-st.tasks:
					e.runUnit(u)
					// Loop: release the unit's token, go hungry again.
				case <-st.done:
					break thief
				}
			}
			mu.Lock()
			addStats(&agg, e.stats)
			mu.Unlock()
		}()
	}

	// Merge stage: drain the segment list in order and hand each cut to the
	// visit point until it stops the run. Draining continues after a stop so
	// blocked producers always finish; post-stop cuts are discarded.
	st.ord.Drain(func(c Cut) {
		if !stop.Load() && !vp.deliver(c) {
			stop.Store(true)
		}
	})
	wg.Wait()

	addStats(&agg, mStats)
	return vp.finish(&agg)
}

// addStats accumulates one worker's counters into the aggregate.
func addStats(dst *Stats, s Stats) {
	src := s.counters()
	for i, p := range dst.counters() {
		*p += *src[i]
	}
	dst.RecordStop(s.StopReason)
	if dst.Err == nil {
		dst.Err = s.Err
	}
}
