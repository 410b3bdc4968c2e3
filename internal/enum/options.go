// Package enum implements the paper's core contribution: enumeration of all
// convex cuts of a data-flow graph under input/output constraints in
// polynomial time, O(n^(Nin+Nout+1)) (§5).
//
// Two algorithms are provided. EnumerateBasic is the straightforward
// POLY-ENUM of figure 2: couple every admissible output set with every
// generalized dominator of each output. Enumerate is the incremental
// POLY-ENUM-INCR of figure 3, which builds the cut S while choosing inputs
// and outputs, interleaves Dubrova-style seed-set exploration with
// Lengauer–Tarjan runs on reduced graphs, and applies the pruning techniques
// of §5.3. docs/ALGORITHM.md maps both figures onto this package pseudocode
// line by line.
//
// # Completeness guarantees
//
// Both algorithms validate every candidate cut directly against the problem
// statement of §3 and deduplicate by a 128-bit vertex-set digest, so no
// configuration can ever produce an invalid or repeated cut. Completeness —
// every valid cut is produced — holds under DefaultOptions and is verified
// by measurement at two tiers: against the brute-force oracle over all
// vertex subsets to n ≈ 16 (any Options), and against the pruned-exhaustive
// oracle (baseline.DiffOracle, `make diff-oracle`) to n ≈ 240 on the
// MiBench-like corpus, including the pinned regression instances of the
// historical n ≥ 140 gap. That gap was a collision class in the dedup
// digest, not a search deficiency — the dedup layer is as
// completeness-critical as the search, which is why the oracle compares by
// full signature and triages digest collisions explicitly. The two
// approximate §5.3 prunings (PruneDominatorInput, PruneForbiddenAncestors)
// are the only knobs that trade completeness away and are off by default.
// How many cuts they lose has not been measured yet (ROADMAP.md, item
// 4(c)).
//
// # The incremental search-state engine
//
// The paper's polynomial bound comes from sharing work across the search
// tree (§5.3), and since PR 3 the implementation shares state the same
// way: nothing about the current search node is recomputed from scratch.
// The cut S lives across pushes as journaled deltas — an output push grows
// S by the memoized backward cone of the new output, clipped by a
// traversal only where a chosen input blocks part of the cone
// (dfg.Traverser.GrowCut), and an input push shrinks S by recomputing
// survival only inside the new input's ancestor region, falling back to
// the from-scratch rebuild when that region is most of S
// (dfg.Traverser.ShrinkCut). Each push records exactly the vertices it
// changed in a per-depth undo journal, so backtracking is one word-
// parallel Subtract/Union. Reduced-graph dominators are read off a
// running-max sweep over the surviving-path region (analyzePaths), which
// exploits the identity topological order dfg.Freeze pins: bit index ≡
// topological position, so "does any surviving edge jump over v" is a
// highest-set-bit scan per vertex. The from-scratch recomputation
// (rebuildS) survives as the reference that property tests pin every
// delta against.
//
// Since PR 5 the sharing extends past S to the per-output analysis and the
// admission checks themselves. The reaches-o frontier of PICK-INPUTS is
// derived from its parent seed level by a confined delta
// (dfg.Traverser.ShrinkReachInto) instead of re-traversed; the source→o
// on-path set and the reduced-graph dominators fall out of one fused
// ascending pass over that frontier with no forward closure at all; an
// output push that is doomed with the input budget exhausted is rejected
// by one word-parallel scan before the grow kernel runs (quickOffending);
// and CHECK-CUT's §3 validation runs on the incremental validation engine
// (DeltaValidator, deltaval.go), which mirrors S through the search's own
// journals and keeps I(S), O(S) and the convexity frontiers as
// delta-maintained aggregates, demoting the from-scratch Validator to the
// property-tested reference.
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
	// this. Stats are NOT part of that contract. For runs that complete,
	// Valid, Candidates, LTRuns, OutputsTried and SeedsPruned match the
	// serial run exactly and only attribution can shift between Duplicates
	// and Invalid (their sum is preserved): a candidate repeated across
	// two dedup scopes is re-validated instead of being caught by the
	// serial run's global dedup. After an early visitor stop the work
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

	// Pruning toggles (§5.3). The first four are exact: they trade work for
	// nothing and the set of enumerated cuts is unchanged. They are on by
	// default.
	PruneOutputOutput   bool // skip outputs that are ancestors of chosen ones
	PruneInputInput     bool // skip seed pairs related by postdominance
	PruneOutputInput    bool // forbidden-node path partitioning + lower bound
	PruneWhileBuildingS bool // abort candidates as soon as S violates F/Nout
	// PruneInfeasibleBudget bounds seed extension with a min-vertex-cut
	// argument: completing the current output's dominator needs at least
	// maxflow(source→output) further inputs, counted over surviving paths
	// and with each already-chosen seed's mandatory vertices uncuttable
	// (cutting one would make that seed redundant). Exact; this is what
	// keeps the figure 4 tree family polynomial in practice.
	PruneInfeasibleBudget bool

	// PruneDominatorInput enables the paper's "simplified" dominator–input
	// test (§5.3): after a seed yields a valid dominator, later candidates
	// for the same slot are restricted to that seed's ancestors (and a
	// forbidden seed ends the slot). Implemented literally, this test is NOT
	// exact — it loses cuts whose dominators use an incomparable seed (the
	// test suite demonstrates this) — so unlike the paper we keep it OFF by
	// default and expose it only for the ablation study.
	PruneDominatorInput bool

	// PruneForbiddenAncestors enables the paper's aggressive form of the
	// output–input pruning: "if a forbidden node w is an ancestor of v, w's
	// ancestors will not be valid inputs to v" (§5.3). Taken literally this
	// is NOT exact either — an input may reach the output both through a
	// forbidden node and around it (the test suite demonstrates the loss) —
	// but it is what makes thousand-node memory-heavy blocks tractable, so
	// it ships as the opt-in "paper mode" used by the large-cluster
	// benchmarks.
	PruneForbiddenAncestors bool

	// KeepCuts controls whether valid cuts are handed to the visitor with
	// their node sets retained (cloned). When false the visitor receives a
	// shared scratch cut that is only valid during the call.
	KeepCuts bool

	// Deadline, when non-zero, aborts the enumeration once the wall clock
	// passes it; Stats.StopReason reports StopDeadline (and the deprecated
	// TimedOut alias stays set). The check runs every few thousand search
	// steps, so overruns are small.
	Deadline time.Time

	// Context, when non-nil, cancels the enumeration once its Done channel
	// closes; Stats.StopReason reports StopCanceled. It is polled at the
	// same sampled sites as Deadline, so cancellation latency is a few
	// thousand search steps. A stopped run still delivers a coherent
	// prefix of the serial visit order at every worker count (see the
	// Parallelism determinism contract); EnumerateContext is the
	// convenience wrapper that also returns an error.
	Context context.Context

	// MaxDedupBytes, when positive, bounds the memory of the global dedup
	// digest table (the open-addressing set that makes every cut unique):
	// the serial run's table, or the merge stage's in parallel runs. When
	// an insert would grow it past the budget the run ends early with
	// StopReason = StopBudget and exact partial stats, instead of growing
	// without bound on adversarial graphs. The table fills in serial cut
	// order at every worker count, so degradation delivers the longest
	// affordable serial-order prefix. (The transient per-worker scoped
	// tables, reset at every subtree, are not budgeted.)
	MaxDedupBytes int

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
	// sites as Deadline.
	CheckpointStop <-chan struct{}

	// StealStallTimeout bounds how long a parallel donor waits for a
	// claimed thief to accept a steal handoff before declaring the
	// protocol's liveness broken and failing the run with a *StallError
	// (see the watchdog note in internal/enum/incremental.go). Zero means
	// the 10 s default. Under the handoff discipline a healthy send
	// completes in microseconds, so the timeout only matters as a
	// diagnosability bound; long-running services tighten it per request
	// so a broken run is reported quickly instead of occupying a slot for
	// the full default.
	StealStallTimeout time.Duration
}

// DefaultOptions returns the paper's standard configuration: Nin=4, Nout=2,
// unrestricted latency and connectivity, technical condition required, all
// prunings enabled.
func DefaultOptions() Options {
	return Options{
		MaxInputs:             4,
		MaxOutputs:            2,
		PruneOutputOutput:     true,
		PruneInputInput:       true,
		PruneOutputInput:      true,
		PruneWhileBuildingS:   true,
		PruneInfeasibleBudget: true,
		KeepCuts:              true,
	}
}

// PaperOptions returns the configuration closest to the paper's own
// implementation: the standard Nin=4/Nout=2 constraint with every §5.3
// pruning enabled, including the two approximate ones
// (PruneDominatorInput, PruneForbiddenAncestors). Enumeration under these
// options is fast but may miss valid cuts; the size of that loss has not
// been measured yet (ROADMAP.md, item 4(c)).
func PaperOptions() Options {
	o := DefaultOptions()
	o.PruneDominatorInput = true
	o.PruneForbiddenAncestors = true
	return o
}

// Stats reports the work an enumeration performed and, for runs that ended
// early, why they stopped (StopReason) and with what error (Err).
type Stats struct {
	Valid        int // distinct valid cuts reported
	Candidates   int // candidate cuts submitted to validation
	Duplicates   int // candidates that repeated an already-seen vertex set
	Invalid      int // candidates that failed validation
	LTRuns       int // reduced-graph dominator analyses served: swept, or looked up in a last-level table
	SeedsPruned  int // seed vertices skipped by §5.3 prunings
	OutputsTried int // output choices explored
	Steals       int // stolen interior ranges executed (0 in serial runs)

	// LastLevelTables counts the last-level tables built: one per
	// two-inputs-left seed loop with a child that needed a chain.
	// LastLevelLookups counts the last-level analyses served from a table
	// instead of a region sweep; each is also one LTRuns. Neither is
	// carried in a checkpoint snapshot, so after a resume they count the
	// resumed run's own work only.
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

	// TimedOut reports that the run hit Options.Deadline.
	//
	// Deprecated: equivalent to StopReason == StopDeadline; kept as an
	// alias for callers predating StopReason.
	TimedOut bool
}
