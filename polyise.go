// Package polyise is a reproduction of Bonzini & Pozzi, "Polynomial-Time
// Subgraph Enumeration for Automated Instruction Set Extension" (DATE 2007).
//
// Given the data-flow graph of a basic block and a microarchitectural
// input/output constraint (Nin register-file read ports, Nout write ports),
// the library enumerates every convex subgraph — candidate custom
// instruction — in time polynomial in the graph size, scores the candidates
// with a latency/area model, and selects an instruction set extension.
//
// Basic use:
//
//	g := polyise.NewGraph()
//	a := g.MustAddNode(polyise.OpVar, "a")
//	b := g.MustAddNode(polyise.OpVar, "b")
//	sum := g.MustAddNode(polyise.OpAdd, "sum", a, b)
//	sq := g.MustAddNode(polyise.OpMul, "sq", sum, sum)
//	_ = sq
//	g.MustFreeze()
//
//	cuts, stats := polyise.EnumerateAll(g, polyise.DefaultOptions())
//
// # Parallel enumeration
//
// Enumeration shards across CPUs at two grain sizes. Within one block,
// Options.Parallelism splits the top-level search subtrees of
// POLY-ENUM-INCR over that many workers (0 = GOMAXPROCS, the default);
// each worker owns a full clone of the enumerator's mutable state, and a
// merge stage reassembles the per-subtree cut streams. Across blocks, the
// corpus drivers (internal/bench, cmd/compare) reuse the same knob to
// shard whole basic blocks over a worker pool. The determinism guarantee
// is strict and differentially tested: at any worker count the visitor
// receives exactly the cuts a serial run would produce, in exactly the
// serial order — including the same prefix under an early stop — so
// results, selections and iterative flows are bit-for-bit reproducible,
// and a complete run's Stats match the serial run's in every counter but
// Steals. To reproduce the paper's serial measurements, set
// Options.Parallelism = 1.
//
// The subpackages under internal implement the substrates: DAG (post)
// dominators, multiple-vertex dominator enumeration, the [15]-style
// baseline search, workload generators, the benchmark harness and the
// worker-pool/ordered-merge machinery (internal/parallel). This package
// re-exports the surface a downstream user needs.
package polyise

import (
	"context"
	"io"
	"net/http"

	"polyise/internal/baseline"
	"polyise/internal/dfg"
	"polyise/internal/enum"
	"polyise/internal/exprc"
	"polyise/internal/graphio"
	"polyise/internal/interp"
	"polyise/internal/ise"
	"polyise/internal/session"
	"polyise/internal/workload"
)

// Graph is a basic-block data-flow graph; see NewGraph.
type Graph = dfg.Graph

// Op identifies a node operation.
type Op = dfg.Op

// Node operation kinds.
const (
	OpVar    = dfg.OpVar
	OpConst  = dfg.OpConst
	OpAdd    = dfg.OpAdd
	OpSub    = dfg.OpSub
	OpMul    = dfg.OpMul
	OpDiv    = dfg.OpDiv
	OpRem    = dfg.OpRem
	OpAnd    = dfg.OpAnd
	OpOr     = dfg.OpOr
	OpXor    = dfg.OpXor
	OpNot    = dfg.OpNot
	OpNeg    = dfg.OpNeg
	OpShl    = dfg.OpShl
	OpShr    = dfg.OpShr
	OpSar    = dfg.OpSar
	OpCmpEQ  = dfg.OpCmpEQ
	OpCmpNE  = dfg.OpCmpNE
	OpCmpLT  = dfg.OpCmpLT
	OpCmpLE  = dfg.OpCmpLE
	OpSelect = dfg.OpSelect
	OpMin    = dfg.OpMin
	OpMax    = dfg.OpMax
	OpAbs    = dfg.OpAbs
	OpLoad   = dfg.OpLoad
	OpStore  = dfg.OpStore
	OpCall   = dfg.OpCall
)

// NewGraph returns an empty, mutable data-flow graph. Add nodes with
// AddNode/MustAddNode, mark memory or otherwise unmappable operations with
// MarkForbidden, mark extra live-out values with MarkLiveOut, then call
// Freeze.
func NewGraph() *Graph { return dfg.New() }

// Options configures cut enumeration (Nin/Nout, connectedness, latency,
// worker count, budgets and checkpointing). Every §5.3 pruning is exact
// and always on.
type Options = enum.Options

// DefaultOptions is the paper's standard configuration: Nin=4, Nout=2.
func DefaultOptions() Options { return enum.DefaultOptions() }

// Cut is one convex subgraph with its derived inputs and outputs.
type Cut = enum.Cut

// Stats summarizes the work an enumeration performed.
type Stats = enum.Stats

// Enumerate runs the paper's polynomial-time incremental algorithm
// (POLY-ENUM-INCR, figure 3) and streams every valid cut to visit; return
// false from the visitor to stop early. Options.Parallelism shards the
// search across workers (0 = GOMAXPROCS, 1 = the paper's serial run)
// without changing the visited cuts or their order.
func Enumerate(g *Graph, opt Options, visit func(Cut) bool) Stats {
	return enum.Enumerate(g, opt, visit)
}

// EnumerateContext is Enumerate with explicit cancellation: it wires ctx
// into Options.Context and returns a non-nil error when the run ended
// abnormally — ctx.Err() on cancellation or deadline expiry through the
// context, Stats.Err for a contained panic or a stalled worker handoff.
// Early stops the caller asked for (Options.Deadline, MaxCuts, a
// false-returning visitor) are not errors; inspect
// Stats.StopReason to distinguish them. Whatever the cause, the visitor
// has by then received an exact prefix of the serial enumeration order.
func EnumerateContext(ctx context.Context, g *Graph, opt Options, visit func(Cut) bool) (Stats, error) {
	return enum.EnumerateContext(ctx, g, opt, visit)
}

// StopReason identifies why an enumeration ended early; Stats.StopReason
// is StopNone for a run that completed the full search space.
type StopReason = enum.StopReason

// The stop reasons, in increasing precedence: when several causes race,
// Stats.StopReason reports the highest.
const (
	StopNone       = enum.StopNone       // ran to completion
	StopVisitor    = enum.StopVisitor    // the visitor returned false
	StopBudget     = enum.StopBudget     // MaxCuts reached
	StopCheckpoint = enum.StopCheckpoint // Options.CheckpointStop closed; run parked
	StopDeadline   = enum.StopDeadline   // Options.Deadline passed
	StopCanceled   = enum.StopCanceled   // Options.Context canceled
	StopError      = enum.StopError      // contained panic or worker failure; see Stats.Err
)

// PanicError is the Stats.Err value for a panic contained at an
// enumeration boundary; it carries the recovered value and stack.
type PanicError = enum.PanicError

// StallError is the Stats.Err value reported when a parallel work handoff
// stalled past the liveness watchdog.
type StallError = enum.StallError

// EnumerateAll collects every valid cut, sorted deterministically.
func EnumerateAll(g *Graph, opt Options) ([]Cut, Stats) {
	return enum.CollectAll(g, opt)
}

// EnumerateBasic runs the non-incremental POLY-ENUM of figure 2 — the
// reference implementation, slower but simpler.
func EnumerateBasic(g *Graph, opt Options, visit func(Cut) bool) Stats {
	return enum.EnumerateBasic(g, opt, visit)
}

// PrunedExhaustiveSearch runs the Pozzi–Atasu–Ienne style baseline the
// paper compares against in figure 5 (reference [15]): a binary
// include/exclude search with constraint propagation, exponential in the
// worst case.
func PrunedExhaustiveSearch(g *Graph, opt Options, visit func(Cut) bool) Stats {
	return baseline.PrunedSearch(g, opt, visit)
}

// Model is the ISE latency/area cost model.
type Model = ise.Model

// DefaultModel returns a single-issue embedded RISC cost model.
func DefaultModel() Model { return ise.DefaultModel() }

// Estimate is a scored candidate instruction.
type Estimate = ise.Estimate

// Selection is the result of instruction selection on one block.
type Selection = ise.Selection

// SelectOptions configures instruction selection.
type SelectOptions = ise.SelectOptions

// DefaultSelectOptions returns greedy selection with unlimited resources.
func DefaultSelectOptions() SelectOptions { return ise.DefaultSelectOptions() }

// SelectISE scores the given cuts and picks a non-overlapping instruction
// set maximizing saved cycles under the resource constraints.
func SelectISE(g *Graph, m Model, cuts []Cut, opt SelectOptions) Selection {
	return ise.Select(g, m, cuts, opt)
}

// IdentifyISE is the end-to-end flow: enumerate all cuts, then select.
func IdentifyISE(g *Graph, eopt Options, m Model, sopt SelectOptions) Selection {
	return ise.Identify(g, eopt, m, sopt)
}

// CompileExpr compiles a straight-line kernel in the exprc language into a
// data-flow graph; see the package documentation of internal/exprc for the
// grammar.
func CompileExpr(src string) (*Graph, error) { return exprc.Compile(src) }

// MustCompileExpr is CompileExpr that panics on error.
func MustCompileExpr(src string) *Graph { return exprc.MustCompile(src) }

// ReadGraph parses the polyise text format.
func ReadGraph(r io.Reader) (*Graph, error) { return graphio.Read(r) }

// WriteGraph serializes a frozen graph in the text format.
func WriteGraph(w io.Writer, g *Graph) error { return graphio.Write(w, g) }

// WriteDOT exports a graph as Graphviz DOT, optionally highlighting a cut.
func WriteDOT(w io.Writer, g *Graph, highlight *Cut) error {
	opt := graphio.DOTOptions{}
	if highlight != nil {
		opt.Highlight = highlight.Nodes
	}
	return graphio.WriteDOT(w, g, opt)
}

// TreeWorstCase builds the figure 4 tree-shaped DFG, the worst case for
// exhaustive-search algorithms like [15].
func TreeWorstCase(depth int) *Graph { return workload.Tree(depth, 2) }

// IterativeResult is the outcome of the multi-round identification flow.
type IterativeResult = ise.IterativeResult

// IterativeIdentify repeatedly enumerates, selects the best instruction and
// collapses it into the block (the paper's compiler-toolchain flow [8]),
// for at most maxRounds rounds.
func IterativeIdentify(g *Graph, eopt Options, m Model, maxRounds int) (IterativeResult, error) {
	return ise.IterativeIdentify(g, eopt, m, maxRounds)
}

// WriteVerilog emits a combinational Verilog module implementing the cut's
// datapath — the custom functional unit the selected instruction maps to.
func WriteVerilog(w io.Writer, g *Graph, cut Cut, moduleName string) error {
	return ise.WriteVerilog(w, g, cut, moduleName)
}

// ExtractCut builds a standalone graph containing only the cut's
// computation; the mapping translates original node ids to extracted ids.
func ExtractCut(g *Graph, cut Cut) (*Graph, map[int]int, error) {
	return g.ExtractCut(cut.Nodes)
}

// CollapseCut rebuilds the graph with the cut replaced by a single custom
// instruction of the given latency.
func CollapseCut(g *Graph, cut Cut, name string, latencyCycles int) (*Graph, map[int]int, error) {
	return g.CollapseCut(cut.Nodes, name, latencyCycles)
}

// ExecEnv configures concrete execution of a graph (see Execute).
type ExecEnv = interp.Env

// ExecResult carries every node's value after Execute.
type ExecResult = interp.Result

// Execute interprets the block on concrete 32-bit values — the semantic
// reference the test suite uses to prove that collapsing instructions
// preserves program meaning.
func Execute(g *Graph, env ExecEnv) (ExecResult, error) { return interp.Run(g, env) }

// Service is the enumeration-as-a-service session layer behind the
// polyised server: content-addressed graph caching under a global memory
// budget, admission control with load shedding, per-request deadlines and
// budgets, panic isolation, and graceful shutdown that parks durable runs
// as resumable checkpoints. See internal/session and cmd/polyised.
type Service = session.Service

// ServiceConfig sizes a Service.
type ServiceConfig = session.Config

// ServiceRequest names one enumeration over a cached graph.
type ServiceRequest = session.Request

// GraphID is the content address of a cached graph (the same digest that
// gates checkpoint resume).
type GraphID = session.GraphID

// NewService builds the session layer; serve it over HTTP with
// NewServiceHandler or drive it directly.
func NewService(cfg ServiceConfig) *Service { return session.NewService(cfg) }

// NewServiceHandler exposes a Service over HTTP (the polyised API).
func NewServiceHandler(s *Service, hc session.HandlerConfig) http.Handler {
	return session.NewHandler(s, hc)
}
