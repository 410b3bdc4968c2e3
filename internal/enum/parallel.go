package enum

// Sharded parallel POLY-ENUM-INCR with interior work-stealing. The top
// level of the incremental search chooses the first output by walking the
// topological order, and the subtree under each first-output choice touches
// no search state of any other subtree (topLevel resets the worker between
// positions). That makes first-output positions the natural initial shard
// grain: workers claim positions dynamically, each running the exact serial
// algorithm on its own clone-per-shard state (validator, dedup map, bitset
// scratch, flow solver), and a merge stage reassembles the per-position cut
// streams in position order.
//
// Subtree sizes are heavily skewed, though — one fat first-output subtree
// bounds the speedup of pure position sharding at any worker count. So once
// the positions run out, workers turn thief: a busy worker that notices a
// hungry peer (maybeSplit, polled on the admission paths) splits the
// remaining next-output interval of its shallowest splittable search level
// and hands the upper half over as a stealTask. The task carries only the
// output/input choice prefixes of that level; the thief reconstructs the
// donor's full search state from them, because the maintained cut S is a
// pure function of (outs, Ilist) — rebuildS — and the incremental
// validation engine resyncs its mirror to an arbitrary S jump on its next
// admission check (deltaval.go). Seed-extension intervals are deliberately
// not stealable (see posRange); stolen tasks can split again, so a fat
// subtree keeps decomposing for as long as workers go hungry.
//
// Determinism. The serial enumeration visits cuts in a well-defined order:
// the concatenation, over first-output positions, of each subtree's
// discovery sequence, with a global first-occurrence dedup. The parallel
// enumeration reproduces that order exactly at every worker count and under
// every steal schedule. Order is preserved structurally rather than by
// numbering: the merge (parallel.SplitOrdered) drains a linked list of
// stream segments that starts as one segment per first-output position, and
// every split splices the stolen range's segment — followed by the donor's
// resume segment — at exactly the list position where the stolen output
// belongs in the serial sequence (see maybeSplit for why splicing at the
// donor's current segment is the right spot). Dedup splits the same way:
// each worker dedups within the ranges it actually ran (the map resets per
// top-level position and per stolen task), and the merge performs the
// global dedup with first-wins semantics while draining in list order,
// which is serial order. A cut seen by both the donor and a thief of the
// same subtree is emitted twice and collapses in the merge exactly as a
// cross-subtree repeat does. The visitor therefore sees the same cuts, in
// the same order, as Parallelism=1 — including the same prefix when it
// stops the enumeration early. Under any external stop — Options.Deadline,
// Options.Context cancellation, a resource budget, a contained panic or a
// handoff stall — the visited sequence is still a prefix of the serial
// order (a stopping worker raises the shared stop before any truncated
// segment closes; see checkStop), though not necessarily the same prefix a
// serial run stopped the same way would reach — workers progress at
// different rates.
//
// Stats. For runs that complete, Candidates, LTRuns, OutputsTried and
// SeedsPruned partition exactly across workers — every search-tree node is
// executed exactly once by somebody holding the same state the serial run
// would hold — and the merge fixes Valid to the count of cuts actually
// delivered to the visitor, so all of those equal the serial counters;
// Duplicates+Invalid mass is likewise preserved, though attribution can
// shift between the two (a candidate repeating an already-INVALID vertex
// set from another dedup scope is re-validated where the serial global
// dedup would have counted a Duplicate). After an early visitor stop the
// counters are NOT preserved: workers already past the stopped prefix
// report work a serial run would never have started, so Candidates etc.
// may exceed the serial-stopped values, while Valid still counts exactly
// the visited cuts. Steals counts accepted steal tasks and is zero in
// serial runs; it is scheduling-dependent and excluded from the
// determinism contract.

import (
	"runtime/debug"
	"sync"
	"sync/atomic"

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

// stealTask is one donated unit of work: the tail [posStart, posEnd) of a
// next-output interval at recursion depth `depth`, together with the
// output/input choice prefixes identifying the donor's search state at that
// level and the merge segment the range's cuts must flow into. outs and ins
// are private copies — the thief mutates its own state only.
type stealTask struct {
	seg      *parallel.Seg[Cut]
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
	tasks  chan stealTask
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

// runTask executes one stolen range on worker e: reconstruct the donor's
// search state at the stolen level from the choice prefixes, run the
// range's loop, and leave the worker state empty again. The stolen segment
// is closed even when the task is dropped because the enumeration already
// stopped — the merge drains every spliced segment — and even when the
// body panics: containment (containPanic) walks curSeg onto the task's
// final segment, closing the intermediate ones, exactly as the skipped
// frame epilogues would have.
func (e *incEnum) runTask(t stealTask) {
	e.curSeg = t.seg
	if e.stopped || (e.ext != nil && e.ext.Load()) {
		e.steal.ord.Close(e.curSeg)
		return
	}
	e.runTaskBody(t)
	// The frame epilogue (or containPanic, when the body died) left curSeg
	// on the task's final segment and emptied the range/segment stacks;
	// reset the choice state for the next claim.
	e.resetChoice()
	e.steal.ord.Close(e.curSeg)
}

// runTaskBody is the contained interior of a stolen task: state
// reconstruction and the range loop, under the parallel panic boundary.
func (e *incEnum) runTaskBody(t stealTask) {
	defer e.containPanic()
	if h := faultinject.OnStealClaim; h != nil {
		// Fires after the thief accepted the task (it owns t.seg and the
		// task's liveness token) but before any reconstruction — a panic
		// here is the "thief dies mid-handoff" case.
		h()
	}
	e.stats.Steals++
	// Fresh dedup scope for the stolen range; the merge reconciles repeats
	// across the steal boundary in serial order.
	e.seen.Reset()
	e.outs = append(e.outs[:0], t.outs...)
	e.outSet.Clear()
	for _, o := range e.outs {
		e.outSet.Add(o)
	}
	e.Ilist = append(e.Ilist[:0], t.ins...)
	e.Iuser.Clear()
	for _, i := range e.Ilist {
		e.Iuser.Add(i)
	}
	e.rebuildS() // S is a pure function of the prefixes just installed
	e.pickOutputRange(t.depth, t.posStart, t.posEnd, t.ninLeft, t.noutLeft)
}

// runTop executes one top-level subtree under the parallel panic boundary;
// the caller closes curSeg afterwards whether or not the subtree died.
func (e *incEnum) runTop(pos int) {
	defer e.containPanic()
	e.seen.Reset()
	e.topLevel(pos)
}

// enumerateParallel runs the sharded enumeration with the given worker
// count (≥ 2). The caller guarantees g is frozen and has at least 2 nodes.
// rs, when non-nil, resumes from a snapshot: workers start claiming
// top-level positions at the snapshot frontier and the merge's dedup table
// and delivered count are pre-seeded, so the replayed frontier subtree
// re-emits only novel cuts (see ResumeEnumerate).
func enumerateParallel(g *dfg.Graph, opt Options, visit func(Cut) bool, workers int, rs *resumeState) Stats {
	n := g.N()
	if workers > n {
		// More initial shards than first-output positions would only burn
		// per-worker setup (validator, traverser, scratch); work-stealing
		// is what balances skew, not extra idle states.
		workers = n
	}
	sh := newEnumShared(g, opt)
	var ck *ckptWriter
	if opt.CheckpointPath != "" {
		ck = newCkptWriter(g, opt)
	}

	// Shards must hand cuts across goroutines, so their node sets are
	// always cloned regardless of the caller's KeepCuts; the visitor
	// contract ("shared scratch, valid only during the call" when KeepCuts
	// is off) is trivially satisfied by the clone.
	sopt := opt
	sopt.KeepCuts = true
	sh.opt = sopt

	st := &stealState{
		ord:   parallel.NewSplitOrdered[Cut](n, streamBuf(n)),
		tasks: make(chan stealTask),
		done:  make(chan struct{}),
	}
	st.active.Store(int64(workers))
	var stop atomic.Bool
	var next atomic.Int64
	var mu sync.Mutex
	var agg Stats
	if rs != nil {
		next.Store(int64(rs.startTop))
		agg = rs.stats // counter baseline; Valid is overwritten below
		agg.Valid = 0
	}

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
				// After a stop (early visitor stop or a deadline) keep
				// claiming positions so every top-level segment gets
				// closed — the merge drains all of them.
				e.curSeg = st.ord.Top(pos)
				if !e.stopped && !stop.Load() {
					e.runTop(pos)
					// Frame epilogues (or containment, if the subtree
					// panicked) have restored curSeg to the position's own
					// segment; any segments donated from this subtree
					// belong to their thieves now.
				}
				st.ord.Close(e.curSeg)
			}
			// Top-level positions exhausted: turn thief. Wait for donated
			// ranges until every token is released, i.e. until no worker
			// can possibly create more work. A donor claims a hungry slot
			// before minting the task's token and sending, and donors hold
			// tokens of their own, so done cannot close while a send is
			// pending — the select below never strands a task.
		thief:
			for {
				if st.active.Add(-1) == 0 {
					close(st.done)
					break
				}
				st.hungry.Add(1)
				select {
				case t := <-st.tasks:
					e.runTask(t)
					// Loop: release the task's token, go hungry again.
				case <-st.done:
					break thief
				}
			}
			mu.Lock()
			addStats(&agg, e.stats)
			mu.Unlock()
		}()
	}

	// Merge stage: drain the segment list in order, dedup across scopes
	// (first occurrence wins, matching the serial global dedup), and feed
	// the caller's visitor until it stops. Draining continues after a stop
	// so blocked producers always finish, but post-stop cuts are discarded
	// without deduping — under a dedup budget the global table must not
	// keep growing, and post-stop Duplicates attribution is outside the
	// Stats contract anyway; `discarded` keeps the arithmetic exact for the
	// pre-stop prefix. The merge is also a containment boundary: a
	// panicking visitor becomes the run's first error while the drain keeps
	// going, so no producer is left blocked on a full buffer.
	seen := newSigSet()
	var mStats Stats // merge-level stop reason and first error
	emitted, unique, visited, discarded := 0, 0, 0, 0
	startTop := 0
	if rs != nil {
		// Resume seeding: the pre-snapshot prefix counts as visited (MaxCuts
		// and CheckpointEvery bind across the seam), its digests suppress
		// re-delivery from the replayed frontier subtree, and the top-level
		// segments before the frontier — which no worker will claim — close
		// empty so the drain walks straight past them.
		startTop = rs.startTop
		visited = int(rs.visited)
		for _, d := range rs.digests {
			seen.Insert(d)
		}
		for i := 0; i < startTop && i < n; i++ {
			st.ord.Close(st.ord.Top(i))
		}
	}
	curTop := startTop // top-level position of the last delivered cut
	safeVisit := func(c Cut) (ok bool) {
		defer func() {
			if v := recover(); v != nil {
				if mStats.Err == nil {
					mStats.Err = &PanicError{Value: v, Stack: debug.Stack()}
				}
				mStats.RecordStop(StopError)
				ok = false
			}
		}()
		return visit(c)
	}
	st.ord.DrainWithIndex(func(top int, c Cut) {
		emitted++
		if stop.Load() {
			discarded++
			return
		}
		if opt.MaxDedupBytes > 0 && seen.WouldGrowPast(opt.MaxDedupBytes) {
			mStats.RecordStop(StopBudget)
			stop.Store(true)
			discarded++
			return
		}
		if !seen.Insert(c.Nodes.Hash128()) {
			return
		}
		unique++
		visited++
		curTop = top
		if !safeVisit(c) {
			// A voluntary visitor stop; on a visitor panic RecordStop's
			// max-precedence keeps the StopError recorded by safeVisit.
			mStats.RecordStop(StopVisitor)
			stop.Store(true)
			return
		}
		if opt.MaxCuts > 0 && visited >= opt.MaxCuts {
			mStats.RecordStop(StopBudget)
			stop.Store(true)
			return
		}
		// The merge polls the preemption hook too: workers poll it in their
		// own Stoppers, but on a small search they may all have finished
		// producing before the drain delivers the cut whose visitor pulls
		// the trigger — the drain must still stop at the next visit point.
		if opt.CheckpointStop != nil {
			select {
			case <-opt.CheckpointStop:
				mStats.RecordStop(StopCheckpoint)
				stop.Store(true)
				return
			default:
			}
		}
		// Periodic checkpoint cadence, at the merge's global visit point —
		// the one place where "the first `visited` cuts of the serial
		// order" is true under any steal schedule. Every top-level segment
		// before curTop is fully drained here, so curTop is the resume
		// frontier. A failed write stops the run: continuing would
		// silently void durability.
		if ck != nil && opt.CheckpointEvery > 0 && visited%opt.CheckpointEvery == 0 {
			if err := ck.write(ck.mergeSnap(seen, visited, curTop, mStats)); err != nil {
				if mStats.Err == nil {
					mStats.Err = err
				}
				mStats.RecordStop(StopError)
				stop.Store(true)
			}
		}
	})
	wg.Wait()

	agg.Valid = visited
	agg.Duplicates += emitted - discarded - unique
	addStats(&agg, mStats)
	if ck != nil {
		// Final snapshot, after every worker settled: resumable at the
		// last delivered cut's frontier, or marked Done on completion.
		snap := ck.mergeSnap(seen, visited, curTop, agg)
		if agg.StopReason == StopNone {
			snap.Done = true
			snap.CurTop = n
			snap.Digests = nil
		}
		if err := ck.write(snap); err != nil && agg.Err == nil {
			agg.Err = err
			agg.RecordStop(StopError)
		}
	}
	return agg
}

// addStats accumulates one worker's counters into the aggregate.
func addStats(dst *Stats, s Stats) {
	dst.Valid += s.Valid
	dst.Candidates += s.Candidates
	dst.Duplicates += s.Duplicates
	dst.Invalid += s.Invalid
	dst.LTRuns += s.LTRuns
	dst.SeedsPruned += s.SeedsPruned
	dst.OutputsTried += s.OutputsTried
	dst.Steals += s.Steals
	dst.LastLevelTables += s.LastLevelTables
	dst.LastLevelLookups += s.LastLevelLookups
	dst.TimedOut = dst.TimedOut || s.TimedOut
	dst.RecordStop(s.StopReason)
	if dst.Err == nil {
		dst.Err = s.Err
	}
}
