package enum

// Durable checkpoint/resume integration. A run with Options.CheckpointPath
// set writes snapshots (internal/checkpoint) at the serial-order visit
// point — the only quiescent cut across worker schedules — and
// ResumeEnumerate continues an interrupted run such that the snapshot's
// delivered prefix concatenated with the resumed run's sequence is
// bit-identical to an uninterrupted serial run, at any worker count on
// either side of the seam.
//
// # What a snapshot needs, and why it is enough
//
// Three facts carry the whole design (docs/ALGORITHM.md §12):
//
//  1. Cut validity is a pure function of the vertex set S, which is itself
//     a pure function of the (outs, Ilist) choice stacks (rebuildS — the
//     PR 6 stealing invariant).
//  2. The exploration order is independent of dedup contents and visitor
//     verdicts: the search visits candidate (outs, Ilist) nodes in a fixed
//     order; dedup and validation only decide delivery, never traversal.
//  3. Every snapshot is taken at the serial-order visit point, so "the
//     first Visited cuts of the serial order" describes the delivered
//     prefix exactly, at any worker count.
//
// Therefore a resume needs only: the top-level position of the last
// delivered cut (CurTop; every earlier position is fully visited), the
// dedup digests of what was already delivered, and the delivered count. It
// restarts the top-level loop at CurTop; the in-progress subtree is
// REPLAYED, and the restored digest table suppresses re-delivery of its
// pre-snapshot cuts — the dedup table is the skip mechanism, not just an
// optimization. By facts 1 and 2 the replay walks the same nodes to the
// same verdicts, so the first novel delivery is exactly the cut the
// interrupted run would have delivered next. Replay is the only resume
// mechanism, and it costs a few percent of dominator analyses over the
// remaining work (EXPERIMENTS.md, "Resume replay cost"). Serial and
// parallel runs share one visit point (visitPoint), which owns the
// delivered count, the frontier, the budgets at delivery and every
// snapshot.
//
// Dedup-scope compatibility across the seam: serial tables hold every
// candidate digest, the parallel merge's table only delivered cuts'. Both
// resume directions are sound because a digest NOT in the table is simply
// re-validated — and by fact 1 an invalid candidate re-validates to
// invalid — so only the Duplicates/Invalid attribution can shift, which
// the Stats contract already leaves free.

import (
	"errors"
	"fmt"
	"runtime/debug"

	"polyise/internal/bitset"
	"polyise/internal/checkpoint"
	"polyise/internal/dfg"
	"polyise/internal/faultinject"
	"polyise/internal/parallel"
)

// ErrCompleted is returned by ResumeEnumerate for a snapshot whose run
// exhausted the search space: there is nothing to resume.
var ErrCompleted = errors.New("enum: snapshot records a completed run; nothing to resume")

// optionsFingerprint hashes the Options fields that define the cut set and
// its visit order: the port constraints, connectivity/latency restrictions
// and the pruning toggles (the two approximate prunings change the cut set,
// the exact ones canonicalize the order's derivation). Budgets, deadlines,
// contexts, KeepCuts and Parallelism are excluded on purpose — the
// determinism contract makes them output-invariant, so a resume may
// legitimately change them (most obviously the worker count).
func optionsFingerprint(opt Options) uint64 {
	h := bitset.NewHasher128()
	h.Int(opt.MaxInputs)
	h.Int(opt.MaxOutputs)
	h.Int(opt.MaxDepth)
	flags := 0
	for i, b := range [...]bool{
		opt.ConnectedOnly,
		opt.PruneOutputOutput,
		opt.PruneInputInput,
		opt.PruneOutputInput,
		opt.PruneWhileBuildingS,
		opt.PruneInfeasibleBudget,
		opt.PruneDominatorInput,
		opt.PruneForbiddenAncestors,
	} {
		if b {
			flags |= 1 << i
		}
	}
	h.Int(flags)
	return h.Sum()[0]
}

// ckptWriter owns one run's snapshot output: the destination path and the
// precomputed identity fields every snapshot carries.
type ckptWriter struct {
	path    string
	gHash   [2]uint64
	gN      int
	optHash uint64
}

func newCkptWriter(g *dfg.Graph, opt Options) *ckptWriter {
	return &ckptWriter{
		path:    opt.CheckpointPath,
		gHash:   checkpoint.GraphDigest(g),
		gN:      g.N(),
		optHash: optionsFingerprint(opt),
	}
}

// write persists one snapshot atomically. The faultinject site lets the
// chaos suite kill a run in the middle of a snapshot write and prove the
// previous snapshot survives (checkpoint.WriteFile is temp+rename). A
// panic during the write is contained here and surfaced as the write
// error — the final write runs after the search has unwound, outside every
// worker's containment scope, so containment must live with the write
// itself.
func (ck *ckptWriter) write(s *checkpoint.Snapshot) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	if h := faultinject.OnCheckpointWrite; h != nil {
		h()
	}
	return checkpoint.WriteFile(ck.path, s)
}

// visitPoint is a run's serial-order visit point: the one place where a
// deduplicated valid cut reaches the caller's visitor, and so the one place
// where the delivery budgets bind and snapshots are taken. A serial run's
// worker delivers from checkCut; a parallel run's merge delivers after its
// global dedup, in drain order, which is serial order. Either way the
// visitor has received exactly the first `visited` cuts of the serial
// order, which is what a snapshot records.
type visitPoint struct {
	opt     Options
	visit   func(Cut) bool
	ck      *ckptWriter // nil unless Options.CheckpointPath is set
	seen    *sigSet     // the global dedup table: the serial worker's, or the merge's
	st      *Stats      // where stops are recorded; its counters ride in snapshots
	visited int         // cuts delivered in the logical run, resume prefix included
	curTop  int         // top-level position of the last delivered cut: the resume frontier
}

// newVisitPoint builds the visit point of one run over the dedup table
// seen, recording stops into st. snap, when non-nil, seeds it from a
// resume snapshot: the digests suppress re-delivery from the replayed
// frontier subtree, the delivered count keeps MaxCuts and CheckpointEvery
// counting across the seam, the frontier is the snapshot's, and the
// counters become st's baseline. A snapshot that already holds MaxCuts
// cuts records StopBudget here, and the caller must not start the search.
// Rejecting at delivery would be too late: the serial worker inserts a
// candidate's digest before delivering it, and a digest the table holds
// but the visitor never received is suppressed on every later resume.
func newVisitPoint(g *dfg.Graph, opt Options, visit func(Cut) bool, seen *sigSet, st *Stats, snap *checkpoint.Snapshot) *visitPoint {
	vp := &visitPoint{opt: opt, visit: visit, seen: seen, st: st}
	if opt.CheckpointPath != "" {
		vp.ck = newCkptWriter(g, opt)
	}
	if snap != nil {
		for _, d := range snap.Digests {
			seen.Insert(d)
		}
		*st = statsFromCounters(snap.Stats)
		vp.visited, vp.curTop = int(snap.Visited), snap.CurTop
		if opt.MaxCuts > 0 && vp.visited >= opt.MaxCuts {
			st.RecordStop(StopBudget)
		}
	}
	return vp
}

// deliver hands c, a deduplicated valid cut from top-level position top,
// to the visitor and applies the visit-point policy: panic containment
// around the visitor, MaxCuts, the CheckpointStop poll and the
// CheckpointEvery snapshot. It reports whether the run may go on; on false
// the reason is already recorded in st.
func (vp *visitPoint) deliver(c Cut, top int) (ok bool) {
	defer func() {
		if v := recover(); v != nil {
			vp.fail(&PanicError{Value: v, Stack: debug.Stack()})
			ok = false
		}
	}()
	vp.visited++
	vp.curTop = top
	if !vp.visit(c) {
		vp.st.RecordStop(StopVisitor)
		return false
	}
	if vp.opt.MaxCuts > 0 && vp.visited >= vp.opt.MaxCuts {
		vp.st.RecordStop(StopBudget)
		return false
	}
	// Polled here as well as in the workers' Stoppers: on a small parallel
	// search every worker may have finished producing before the merge
	// delivers the cut whose visitor pulls the trigger.
	if vp.opt.CheckpointStop != nil {
		select {
		case <-vp.opt.CheckpointStop:
			vp.st.RecordStop(StopCheckpoint)
			return false
		default:
		}
	}
	// A failed periodic write stops the run: continuing would silently void
	// durability.
	if vp.ck != nil && vp.opt.CheckpointEvery > 0 && vp.visited%vp.opt.CheckpointEvery == 0 {
		if err := vp.ck.write(vp.snapshot(*vp.st)); err != nil {
			vp.fail(err)
			return false
		}
	}
	return true
}

// fail records err as the visit point's first error and StopError.
func (vp *visitPoint) fail(err error) {
	if vp.st.Err == nil {
		vp.st.Err = err
	}
	vp.st.RecordStop(StopError)
}

// snapshot builds the run's snapshot at the visit point: the delivered
// count, curTop, the counters of st, and the digests of the dedup table,
// which suppress the replayed curTop subtree's pre-snapshot deliveries on
// resume.
func (vp *visitPoint) snapshot(st Stats) *checkpoint.Snapshot {
	st.Valid = vp.visited
	return &checkpoint.Snapshot{
		GraphHash: vp.ck.gHash,
		GraphN:    vp.ck.gN,
		OptHash:   vp.ck.optHash,
		Reason:    uint8(st.StopReason),
		Visited:   int64(vp.visited),
		CurTop:    vp.curTop,
		Stats:     countersOf(st),
		Digests:   vp.seen.AppendDigests(nil),
	}
}

// finish ends the run once the search has unwound and returns its Stats,
// st, with Valid set to the delivered count. With checkpointing on it
// writes the final snapshot: resumable at curTop when the run stopped, or
// marked Done (no dedup table, nothing to resume) when it exhausted the
// search space. Nothing that runs after a stop changes visited, curTop or
// the dedup table, and a contained panic unwinds without running frame
// epilogues, so the unwound state is the stop-time state. A failed write
// becomes the run's error unless it already has one.
func (vp *visitPoint) finish(st *Stats) Stats {
	st.Valid = vp.visited
	if vp.ck != nil {
		snap := vp.snapshot(*st)
		if st.StopReason == StopNone {
			snap.Done, snap.CurTop, snap.Digests = true, vp.ck.gN, nil
		}
		if err := vp.ck.write(snap); err != nil && st.Err == nil {
			st.Err = err
			st.RecordStop(StopError)
		}
	}
	return *st
}

// countersOf extracts the advisory work counters of a Stats.
func countersOf(s Stats) checkpoint.Counters {
	return checkpoint.Counters{
		Valid:            int64(s.Valid),
		Candidates:       int64(s.Candidates),
		Duplicates:       int64(s.Duplicates),
		Invalid:          int64(s.Invalid),
		LTRuns:           int64(s.LTRuns),
		SeedsPruned:      int64(s.SeedsPruned),
		OutputsTried:     int64(s.OutputsTried),
		Steals:           int64(s.Steals),
		LastLevelTables:  int64(s.LastLevelTables),
		LastLevelLookups: int64(s.LastLevelLookups),
	}
}

// statsFromCounters is the inverse of countersOf, as the resumed run's
// counter baseline.
func statsFromCounters(c checkpoint.Counters) Stats {
	return Stats{
		Valid:            int(c.Valid),
		Candidates:       int(c.Candidates),
		Duplicates:       int(c.Duplicates),
		Invalid:          int(c.Invalid),
		LTRuns:           int(c.LTRuns),
		SeedsPruned:      int(c.SeedsPruned),
		OutputsTried:     int(c.OutputsTried),
		Steals:           int(c.Steals),
		LastLevelTables:  int(c.LastLevelTables),
		LastLevelLookups: int(c.LastLevelLookups),
	}
}

// ResumeEnumerate continues an interrupted enumeration from a decoded
// snapshot (checkpoint.ReadFile): after validating that g and opt describe
// the same problem the snapshot was taken from, it delivers to visit
// exactly the cuts an uninterrupted serial run would have delivered AFTER
// the snapshot's prefix — prefix + resumed sequence is bit-identical to
// the uninterrupted serial sequence, at any Parallelism on either side of
// the seam, with no duplicate or missing cuts.
//
// Counting is global across the seam: the returned Stats.Valid, a MaxCuts
// cap and the CheckpointEvery cadence all count cuts of the whole logical
// run, snapshot prefix included. The work counters (Candidates, LTRuns, …)
// are advisory on a resumed run — the replay of the in-progress subtree
// re-executes pre-snapshot work — and a pre-snapshot candidate replayed
// against a dedup table that only tracked deliveries can shift attribution
// between Duplicates and Invalid, exactly the freedom the Stats contract
// already grants across worker counts.
//
// Errors: ErrCompleted when the snapshot records a finished run, a
// *checkpoint.MismatchError when g or the semantic Options differ from the
// snapshot's, and the run's own Stats.Err (panic, stall, failed snapshot
// write) otherwise. With CheckpointPath set the resumed run keeps
// checkpointing, so crash→resume chains arbitrarily.
func ResumeEnumerate(g *dfg.Graph, opt Options, snap *checkpoint.Snapshot, visit func(Cut) bool) (Stats, error) {
	// Identity is validated before the Done check: a completed snapshot
	// for a *different* graph or configuration must be refused as a
	// mismatch, not reported as "nothing to resume" for this one.
	if gh := checkpoint.GraphDigest(g); gh != snap.GraphHash || g.N() != snap.GraphN {
		return Stats{}, &checkpoint.MismatchError{
			Field: "graph",
			Want:  fmt.Sprintf("n=%d digest=%016x%016x", snap.GraphN, snap.GraphHash[0], snap.GraphHash[1]),
			Got:   fmt.Sprintf("n=%d digest=%016x%016x", g.N(), gh[0], gh[1]),
		}
	}
	if oh := optionsFingerprint(opt); oh != snap.OptHash {
		return Stats{}, &checkpoint.MismatchError{
			Field: "options",
			Want:  fmt.Sprintf("%016x", snap.OptHash),
			Got:   fmt.Sprintf("%016x", oh),
		}
	}
	if snap.Done {
		return Stats{}, ErrCompleted
	}
	if snap.CurTop < 0 || snap.CurTop > g.N() {
		return Stats{}, &checkpoint.FormatError{Reason: "frontier position out of range"}
	}
	if snap.Visited < 0 {
		return Stats{}, &checkpoint.FormatError{Reason: "negative visited count"}
	}
	var stats Stats
	if w := parallel.Workers(opt.Parallelism); w > 1 && g.N() > 1 {
		stats = enumerateParallel(g, opt, visit, w, snap)
	} else {
		stats = enumerateSerial(g, opt, visit, snap)
	}
	if stats.Err != nil {
		return stats, stats.Err
	}
	return stats, nil
}
