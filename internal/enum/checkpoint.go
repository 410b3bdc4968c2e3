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
//  2. The exploration order is independent of visitor verdicts, and so is
//     delivery: the search visits candidate (outs, Ilist) nodes in a fixed
//     order, and whether a node delivers a cut depends on that node alone
//     (the canonical derivation test and validation, see checkCut).
//  3. Every snapshot is taken at the serial-order visit point, so "the
//     first Visited cuts of the serial order" describes the delivered
//     prefix exactly, at any worker count.
//
// Therefore a resume needs only: the top-level position of the last
// delivered cut (CurTop, which is that cut's first output — see
// visitPoint.deliver; every earlier position is fully visited), the
// number of cuts of that position's subtree already delivered
// (TopDelivered), and the delivered count. It restarts the top-level loop
// at CurTop; the in-progress subtree is REPLAYED, and the visit point
// skips its first TopDelivered deliveries. By facts 1 and 2 the replay
// walks the same nodes to the same verdicts, so the first delivery past
// the skip is exactly the cut the interrupted run would have delivered
// next. Replay is the only resume mechanism, and it costs a few percent of
// dominator analyses over the remaining work (EXPERIMENTS.md, "Resume
// replay cost"). A snapshot is a fixed-size record whatever the cut count.
// Serial and parallel runs share one visit point (visitPoint), which owns
// the delivered count, the frontier, the skip, the budgets at delivery and
// every snapshot.

import (
	"errors"
	"fmt"
	"runtime/debug"

	"polyise/internal/bitset"
	"polyise/internal/checkpoint"
	"polyise/internal/dfg"
	"polyise/internal/faultinject"
)

// ErrCompleted is returned by ResumeEnumerate for a snapshot whose run
// exhausted the search space: there is nothing to resume.
var ErrCompleted = errors.New("enum: snapshot records a completed run; nothing to resume")

// optionsFingerprint hashes the Options fields that define the cut set and
// its visit order: the port constraints and the connectivity/latency
// restrictions. Budgets, deadlines, contexts, KeepCuts and Parallelism are
// excluded on purpose — the determinism contract makes them
// output-invariant, so a resume may legitimately change them (most
// obviously the worker count). Flag bits 1–5 held the on/off toggles of the
// five exact prunings, which are now unconditional; the bits stay set so
// that snapshots written with those prunings on, as every default
// configuration had them, still resume. Bits 6–7 held the two approximate
// prunings, which are gone; they stay clear, so the configurations that
// had them off keep their fingerprints and a snapshot parked with either
// on no longer matches any Options.
func optionsFingerprint(opt Options) uint64 {
	h := bitset.NewHasher128()
	h.Int(opt.MaxInputs)
	h.Int(opt.MaxOutputs)
	h.Int(opt.MaxDepth)
	flags := 0b111110
	if opt.ConnectedOnly {
		flags |= 1
	}
	h.Int(flags)
	return h.Sum()[0]
}

// visitPoint is a run's serial-order visit point: the one place where a
// valid cut reaches the caller's visitor, and so the one place where the
// delivery budgets bind and snapshots are taken. A serial run's worker
// delivers from checkCut; a parallel run's merge delivers in drain order,
// which is serial order. Either way the visitor has received exactly the
// first `visited` cuts of the serial order, which is what a snapshot
// records.
type visitPoint struct {
	opt     Options
	visit   func(Cut) bool
	st      *Stats // where stops are recorded; its counters ride in snapshots
	visited int    // cuts delivered in the logical run, resume prefix included
	curTop  int    // top-level position of the last delivered cut: the resume frontier
	topDone int    // cuts of curTop's subtree delivered so far
	skip    int    // replayed deliveries still to drop on a resume

	// The identity every snapshot carries, computed once when
	// Options.CheckpointPath is set.
	gHash   [2]uint64
	gN      int
	optHash uint64
}

// newVisitPoint builds the visit point of one run, recording stops into
// st. snap, when non-nil, seeds it from a resume snapshot: the frontier
// subtree's delivered count becomes the number of replayed deliveries to
// skip, the delivered count keeps MaxCuts and CheckpointEvery counting
// across the seam, the frontier is the snapshot's, and the counters become
// st's baseline. A snapshot that already holds MaxCuts cuts records
// StopBudget here, and the caller must not start the search.
func newVisitPoint(g *dfg.Graph, opt Options, visit func(Cut) bool, st *Stats, snap *checkpoint.Snapshot) *visitPoint {
	vp := &visitPoint{opt: opt, visit: visit, st: st}
	if opt.CheckpointPath != "" {
		vp.gHash, vp.gN, vp.optHash = checkpoint.GraphDigest(g), g.N(), optionsFingerprint(opt)
	}
	if snap != nil {
		*st = statsFromCounters(snap.Stats)
		vp.visited, vp.curTop = int(snap.Visited), snap.CurTop
		vp.topDone = int(snap.TopDelivered)
		vp.skip = vp.topDone
		if opt.MaxCuts > 0 && vp.visited >= opt.MaxCuts {
			st.RecordStop(StopBudget)
		}
	}
	return vp
}

// deliver hands c, a valid cut, to the visitor and applies the visit-point
// policy: the resume skip, panic containment around the visitor, MaxCuts,
// the CheckpointStop poll and the CheckpointEvery snapshot. It reports
// whether the run may go on; on false the reason is already recorded in st.
//
// The top-level position that derived c is c.Outputs[0]: the search
// delivers a cut only at its canonical derivation, whose chosen outputs
// are exactly O(S) in ascending order (Validator.canonical), and Validate
// lists Outputs ascending, so the first chosen output — the top-level
// position — is the cut's least output.
func (vp *visitPoint) deliver(c Cut) (ok bool) {
	if top := c.Outputs[0]; top != vp.curTop {
		vp.curTop, vp.topDone, vp.skip = top, 0, 0
	} else if vp.skip > 0 {
		// A replayed cut of the resume frontier's subtree that the
		// interrupted run already delivered.
		vp.skip--
		return true
	}
	defer func() {
		if v := recover(); v != nil {
			vp.fail(&PanicError{Value: v, Stack: debug.Stack()})
			ok = false
		}
	}()
	vp.visited++
	vp.topDone++
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
	if vp.opt.CheckpointPath != "" && vp.opt.CheckpointEvery > 0 && vp.visited%vp.opt.CheckpointEvery == 0 {
		if err := vp.write(vp.snapshot(*vp.st)); err != nil {
			vp.fail(err)
			return false
		}
	}
	return true
}

// write persists one snapshot atomically. The faultinject site lets the
// chaos suite kill a run in the middle of a snapshot write and prove the
// previous snapshot survives (checkpoint.WriteFile is temp+rename). A
// panic during the write is contained here and surfaced as the write
// error — the final write runs after the search has unwound, outside every
// worker's containment scope, so containment must live with the write
// itself.
func (vp *visitPoint) write(s *checkpoint.Snapshot) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	if h := faultinject.OnCheckpointWrite; h != nil {
		h()
	}
	return checkpoint.WriteFile(vp.opt.CheckpointPath, s)
}

// fail records err as the visit point's first error and StopError.
func (vp *visitPoint) fail(err error) {
	if vp.st.Err == nil {
		vp.st.Err = err
	}
	vp.st.RecordStop(StopError)
}

// snapshot builds the run's snapshot at the visit point: the delivered
// count, curTop and how many of its subtree's cuts were delivered, and the
// counters of st.
func (vp *visitPoint) snapshot(st Stats) *checkpoint.Snapshot {
	st.Valid = vp.visited
	return &checkpoint.Snapshot{
		GraphHash:    vp.gHash,
		GraphN:       vp.gN,
		OptHash:      vp.optHash,
		Reason:       uint8(st.StopReason),
		Visited:      int64(vp.visited),
		CurTop:       vp.curTop,
		TopDelivered: int64(vp.topDone),
		Stats:        countersOf(st),
	}
}

// finish ends the run once the search has unwound and returns its Stats,
// st, with Valid set to the delivered count. With checkpointing on it
// writes the final snapshot: resumable at curTop when the run stopped, or
// marked Done (nothing to resume) when it exhausted the search space.
// Nothing that runs after a stop changes visited, curTop or topDone, and a
// contained panic unwinds without running frame epilogues, so the unwound
// state is the stop-time state. A failed write becomes the run's error
// unless it already has one.
func (vp *visitPoint) finish(st *Stats) Stats {
	st.Valid = vp.visited
	if vp.opt.CheckpointPath != "" {
		snap := vp.snapshot(*st)
		if st.StopReason == StopNone {
			snap.Done, snap.CurTop, snap.TopDelivered = true, vp.gN, 0
		}
		if err := vp.write(snap); err != nil && st.Err == nil {
			st.Err = err
			st.RecordStop(StopError)
		}
	}
	return *st
}

// countersOf extracts the advisory work counters of a Stats.
func countersOf(s Stats) checkpoint.Counters {
	var c checkpoint.Counters
	dst := c.Fields()
	for i, p := range s.counters() {
		*dst[i] = int64(*p)
	}
	return c
}

// statsFromCounters is the inverse of countersOf, as the resumed run's
// counter baseline.
func statsFromCounters(c checkpoint.Counters) Stats {
	var s Stats
	src := c.Fields()
	for i, p := range s.counters() {
		*p = int(*src[i])
	}
	return s
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
// are advisory on a resumed run: the replay of the in-progress subtree
// re-executes pre-snapshot work.
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
	if snap.Visited < 0 || snap.TopDelivered < 0 || snap.TopDelivered > snap.Visited {
		return Stats{}, &checkpoint.FormatError{Reason: "delivered counts out of range"}
	}
	stats := enumerateFrom(g, opt, visit, snap)
	return stats, stats.Err
}
