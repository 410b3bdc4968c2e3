// Package enum implements the paper's core contribution: enumeration of all
// convex cuts of a data-flow graph under input/output constraints in
// polynomial time, O(n^(Nin+Nout+1)) (§5).
//
// Two algorithms are provided. EnumerateBasic is the straightforward
// POLY-ENUM of figure 2: couple every admissible output set with every
// generalized dominator of each output. Enumerate is the incremental
// POLY-ENUM-INCR of figure 3, which builds the cut S while choosing inputs
// and outputs, interleaves Dubrova-style seed-set exploration with
// dominator analyses of reduced graphs, and applies the pruning techniques
// of §5.3. docs/ALGORITHM.md maps both figures onto this package pseudocode
// line by line.
//
// # Completeness guarantees
//
// Both algorithms validate every candidate cut directly against the problem
// statement of §3, so no configuration can ever produce an invalid cut.
// Neither repeats a cut, by different means, and neither decides identity
// by hash. EnumerateBasic derives a cut many times and drops repeats by
// exact vertex set (bitset.Set.Signature); the generalized dominators it
// couples come from multidom, which derives each one once. Enumerate keeps
// no record of delivered cuts at all: each valid cut is identified by
// its (O, I) pair (theorem 3), and the search admits a candidate only at
// its canonical derivation — outputs chosen in ascending order, each
// output phase's inputs pushed in descending order with the smallest as
// the completion — which exists exactly once per valid cut
// (docs/ALGORITHM.md §5). Completeness — every valid cut is produced —
// holds under every Options and is verified by measurement at two tiers:
// against the brute-force oracle over all vertex subsets to n ≈ 16, and
// against the pruned-exhaustive oracle (baseline.DiffOracle, `make
// diff-oracle`) to n ≈ 240 on the MiBench-like corpus, including the
// pinned regression instances of the historical n ≥ 140 gap. That gap was
// a collision class in the dedup digest Enumerate then used, not a search
// deficiency (docs/ALGORITHM.md §7). Every §5.3 pruning the search applies
// is exact. The paper's two approximate ones, the "simplified"
// dominator–input test and the forbidden-ancestor input exclusion, are not
// implemented: on the pinned instances they lost 1–71 % of the cuts, more
// at larger Nin, and on a large block they stayed slower than the exact
// pruned search (EXPERIMENTS.md, "Paper mode's loss along Nin, before
// retirement").
//
// # The incremental search-state engine
//
// The paper's polynomial bound comes from sharing work across the search
// tree (§5.3), and since PR 3 the implementation shares state the same
// way: nothing about the current search node is recomputed from scratch.
// The cut S lives across pushes as journaled deltas — an output push grows
// S by the memoized backward cone of the new output, or by a backward
// closure through the cone when a chosen input blocks part of it
// (dfg.Traverser.GrowCut, whose B(I, o) ∪ {o} the output's phase start
// reuses as its first reaches-o frontier), and an input push shrinks S to
// the backward closure from the chosen outputs avoiding the inputs,
// confined to the old S (dfg.Traverser.ShrinkCut). Each push records
// exactly the vertices it changed in a per-depth undo journal, so
// backtracking is one word-parallel Subtract/Union. A seed push defers its shrink until a cut is
// checked below it (flushSeeds). Reduced-graph dominators are read off a
// running-max sweep over the surviving-path region (analyzePaths), which
// exploits vertex ids being a topological order (dfg.Graph.AddNode): bit
// index ≡ topological position, so "does any surviving edge jump over v"
// is a highest-set-bit scan per vertex. The from-scratch recomputation
// (rebuildS) survives as the reference that property tests pin every delta
// against.
//
// The sharing extends past S to the per-output analysis. The reaches-o
// frontier of PICK-INPUTS is
// derived from its parent seed level by a confined delta
// (dfg.Traverser.ShrinkReachInto) instead of re-traversed; the source→o
// on-path set and the reduced-graph dominators fall out of one fused
// ascending pass over that frontier with no forward closure at all; an
// output push that is doomed with the input budget exhausted is rejected
// by one word-parallel scan before the grow kernel runs (quickOffending).
// CHECK-CUT's §3 validation is not incremental: at |S| of a few vertices
// per candidate, one sweep of S's adjacency rows (Validator's load) derives
// I(S), O(S) and the convexity frontiers for less than keeping them in
// sync across pushes cost, and the staged checks run on those aggregates.
package enum

import (
	"context"
	"time"
)

// Options configures an enumeration run.
//
// Validity always includes the technical condition the paper adds in §3 —
// every input needs a private root path into the cut avoiding all other
// inputs. Theorems 2 and 3, on which the generation and several prunings
// rest, hold under that condition; cuts it excludes are recoverable as
// S ∪ {w} per the discussion in §3.
type Options struct {
	// MaxInputs is Nin, the register-file read ports available to a custom
	// instruction (§3). Must be ≥ 1.
	MaxInputs int
	// MaxOutputs is Nout, the register-file write ports. Must be ≥ 1.
	MaxOutputs int

	// Parallelism selects how many workers the enumeration shards its
	// top-level search subtrees across: 0 means auto (GOMAXPROCS), 1 runs
	// the serial paper algorithm, and any larger value is taken literally
	// (oversubscribing GOMAXPROCS is allowed).
	//
	// Workers start on first-output subtrees and then re-balance by
	// stealing interior next-output ranges from busy peers, so skewed
	// subtree sizes no longer bound the speedup (see
	// internal/enum/parallel.go).
	//
	// Determinism contract: at ANY worker count, under ANY steal schedule,
	// the visitor receives exactly the cuts a serial run would produce, in
	// exactly the serial order, including the same prefix when the visitor
	// stops early — selection built on the enumeration is bit-for-bit
	// reproducible regardless of parallelism. The differential harness and
	// the pinned sequence digests of the gap-regression corpus enforce
	// this. For runs that complete, every Stats counter except Steals
	// matches the serial run exactly: each candidate's verdict depends on
	// its own search node alone. After an early visitor stop the work
	// counters are NOT preserved — workers already past the stopped prefix
	// report Candidates/OutputsTried/etc. a serial run would never have
	// started, and only Valid is exact: it counts precisely the cuts the
	// visitor received. Steals is scheduling-dependent and zero in serial
	// runs. Corpus-level drivers (internal/bench, cmd/compare) reuse the
	// same knob to shard across basic blocks instead. Use Parallelism=1 to
	// reproduce the paper's serial numbers.
	Parallelism int

	// ConnectedOnly restricts the search to connected cuts (definition 4),
	// the Yu–Mitra style restriction discussed in §2 and §5.3.
	ConnectedOnly bool

	// MaxDepth, when positive, rejects cuts whose internal critical path
	// exceeds this many edges — the Configurable Compute Accelerator
	// restriction mentioned in §5.3 (output–input pruning).
	MaxDepth int

	// The five exact §5.3 prunings are always on and have no switch
	// (docs/ALGORITHM.md §6).

	// KeepCuts controls whether valid cuts are handed to the visitor with
	// storage of their own, safe to retain. Enumerate copies each kept cut
	// into per-worker slabs: its node set is a row of a chunk of node sets
	// and its inputs and outputs are windows of a shared []int, capped so
	// no cut can grow into another, so keeping costs a share of one
	// allocation per chunk instead of several per cut. A retained cut pins
	// its whole chunk. When false the visitor receives a shared scratch cut
	// that is only valid during the call.
	KeepCuts bool

	// Deadline, when non-zero, aborts the enumeration once the wall clock
	// passes it; Stats.StopReason reports StopDeadline. The check runs
	// every few thousand search steps, so overruns are small.
	Deadline time.Time

	// Context, when non-nil, cancels the enumeration once its Done channel
	// closes; Stats.StopReason reports StopCanceled. It is polled at the
	// same sampled sites as Deadline, so cancellation latency is a few
	// thousand search steps. A stopped run still delivers a coherent
	// prefix of the serial visit order at every worker count (see the
	// Parallelism determinism contract); EnumerateContext is the
	// convenience wrapper that also returns an error.
	Context context.Context

	// MaxCuts, when positive, stops the run once the visitor has received
	// that many cuts, with StopReason = StopBudget. The delivered prefix
	// is bit-exact the first MaxCuts cuts of the serial order at every
	// worker count — a deterministic cuts-retained cap for callers that
	// collect results. On a resumed run (ResumeEnumerate) the cap counts
	// cuts delivered across the whole logical run, snapshot prefix
	// included, so the same Options mean the same thing before and after a
	// crash.
	MaxCuts int

	// CheckpointPath, when non-empty, makes the run durable: snapshots of
	// the enumeration state are written to this file (atomically, via a
	// temp file and rename) so a later ResumeEnumerate can continue the
	// run bit-exactly after a crash or kill. A snapshot is written every
	// CheckpointEvery delivered cuts and once more when the run stops for
	// any clean reason (completion, visitor stop, budget, deadline,
	// cancellation, CheckpointStop) or dies to a contained panic. All
	// snapshots are taken at the serial-order visit point — the one
	// quiescent cut across worker schedules, the same point where MaxCuts
	// binds — so the snapshot prefix is exactly "the first Visited cuts of
	// the serial order" at any worker count. A failed snapshot write stops
	// the run with StopError rather than continuing un-durably.
	CheckpointPath string

	// CheckpointEvery is the period, in delivered cuts, of periodic
	// snapshots; 0 disables periodic snapshots (only the final stop-time
	// snapshot is written). Ignored unless CheckpointPath is set. On a
	// resumed run the period counts across the seam, continuing the
	// interrupted run's cadence.
	CheckpointEvery int

	// CheckpointStop, when non-nil, requests a checkpoint-and-stop: once
	// the channel closes, the run writes a final snapshot (when
	// CheckpointPath is set) and stops cleanly with StopReason =
	// StopCheckpoint. This is the preemption hook — SIGINT handlers and
	// job schedulers close it instead of canceling the Context, turning
	// "shut down" into "park the run on disk". Polled at the same sampled
	// sites as Deadline, and at every delivered cut.
	CheckpointStop <-chan struct{}
}

// DefaultOptions returns the paper's standard configuration: Nin=4, Nout=2,
// unrestricted latency and connectivity, and technical condition required.
func DefaultOptions() Options {
	return Options{
		MaxInputs:  4,
		MaxOutputs: 2,
		KeepCuts:   true,
	}
}

// Stats reports the work an enumeration performed and, for runs that ended
// early, why they stopped (StopReason) and with what error (Err).
type Stats struct {
	Valid        int // distinct valid cuts reported
	Candidates   int // candidate cuts submitted to validation
	Duplicates   int // candidates rejected as non-canonical derivations (EnumerateBasic: repeated vertex sets)
	Invalid      int // candidates that failed validation
	LTRuns       int // PICK-INPUTS steps: analyses swept, decided in a last-level parent or served from its table, and no-budget phase starts viable decided
	SeedsPruned  int // seed vertices skipped by §5.3 prunings
	OutputsTried int // output choices explored
	Steals       int // stolen interior ranges executed (0 in serial runs)

	// LastLevelTables counts the armed seed loops with a served child: one
	// per two-inputs-left seed loop with a child its parent could not
	// decide in O(1) (a seed off the parent's chain). LastLevelLookups
	// counts the one-input-left children served a chain from a table
	// without a region sweep; each is also one LTRuns.
	LastLevelTables  int
	LastLevelLookups int

	// StopReason classifies an early end of the run: StopNone means the
	// search space was exhausted; any other value means the visited cuts
	// are a (coherent, serial-order) prefix. When several causes coincide
	// across parallel workers the highest-precedence reason wins.
	StopReason StopReason

	// Err is the first error of a failed run: a *PanicError for a panic
	// contained at a shard, steal-task or merge-consumer boundary, a
	// *StallError for a steal handoff the watchdog declared dead, or a
	// baseline-specific error. Non-nil implies StopReason == StopError.
	Err error
}

// counters lists the work counters in the snapshot's on-disk order
// (checkpoint.Counters.Fields), for the loops that add, save and restore
// them.
func (s *Stats) counters() [10]*int {
	return [...]*int{
		&s.Valid, &s.Candidates, &s.Duplicates, &s.Invalid, &s.LTRuns,
		&s.SeedsPruned, &s.OutputsTried, &s.Steals,
		&s.LastLevelTables, &s.LastLevelLookups,
	}
}
