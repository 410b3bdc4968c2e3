// Package ise turns enumerated convex cuts into Instruction Set Extensions:
// it scores cuts with a latency/area model, selects a non-overlapping set of
// custom instructions, and estimates the resulting basic-block speedup —
// the application flow the paper's introduction motivates and §7 reports
// ("full subgraph enumeration allows detection of high-performance custom
// instruction sets, yielding speedups up to 6x").
package ise

import (
	"fmt"
	"math"

	"polyise/internal/dfg"
	"polyise/internal/enum"
)

// OpCost is the cost model entry for one operation kind.
type OpCost struct {
	// SWCycles is the operation's latency on the base processor pipeline.
	SWCycles int
	// HWDelay is the operation's propagation delay through the custom
	// functional unit, normalized so 1.0 equals one processor cycle.
	HWDelay float64
	// Area is the silicon cost of one instance, in arbitrary units
	// (NAND2-equivalents scaled down).
	Area float64
}

// Model maps operations to costs plus the per-instruction I/O overhead.
type Model struct {
	Costs [32]OpCost
	// ExtraInputCycles is the register-file overhead per custom-instruction
	// operand beyond the first two (sequenced reads on a 2-read-port file).
	ExtraInputCycles float64
	// ExtraOutputCycles is the write-back overhead per result beyond the
	// first.
	ExtraOutputCycles float64
}

// DefaultModel returns a cost model for a single-issue embedded RISC core
// with a 32-bit datapath, in the spirit of the models used by Atasu et al.
// and Pozzi et al.: single-cycle ALU ops, multi-cycle multiply/divide in
// software, and combinational delays well under a cycle for simple gates so
// that chaining several operations into one instruction is profitable.
func DefaultModel() Model {
	m := Model{
		ExtraInputCycles:  1,
		ExtraOutputCycles: 1,
	}
	set := func(op dfg.Op, sw int, hw, area float64) {
		m.Costs[op] = OpCost{SWCycles: sw, HWDelay: hw, Area: area}
	}
	set(dfg.OpVar, 0, 0, 0)
	set(dfg.OpConst, 0, 0, 0)
	set(dfg.OpAdd, 1, 0.30, 1.0)
	set(dfg.OpSub, 1, 0.30, 1.0)
	set(dfg.OpMul, 3, 0.90, 8.0)
	set(dfg.OpDiv, 18, 4.00, 20.0)
	set(dfg.OpRem, 18, 4.00, 20.0)
	set(dfg.OpAnd, 1, 0.05, 0.2)
	set(dfg.OpOr, 1, 0.05, 0.2)
	set(dfg.OpXor, 1, 0.06, 0.3)
	set(dfg.OpNot, 1, 0.03, 0.1)
	set(dfg.OpNeg, 1, 0.30, 0.8)
	set(dfg.OpShl, 1, 0.20, 1.5)
	set(dfg.OpShr, 1, 0.20, 1.5)
	set(dfg.OpSar, 1, 0.20, 1.5)
	set(dfg.OpCmpEQ, 1, 0.25, 0.7)
	set(dfg.OpCmpNE, 1, 0.25, 0.7)
	set(dfg.OpCmpLT, 1, 0.30, 0.9)
	set(dfg.OpCmpLE, 1, 0.30, 0.9)
	set(dfg.OpSelect, 1, 0.10, 0.9)
	set(dfg.OpMin, 1, 0.40, 1.2)
	set(dfg.OpMax, 1, 0.40, 1.2)
	set(dfg.OpAbs, 1, 0.35, 1.0)
	set(dfg.OpLoad, 2, 0, 0) // never inside a cut
	set(dfg.OpStore, 2, 0, 0)
	set(dfg.OpCall, 10, 0, 0)
	return m
}

// Cost returns the model entry for op.
func (m *Model) Cost(op dfg.Op) OpCost { return m.Costs[op] }

// Estimate is the scored form of a candidate instruction.
type Estimate struct {
	Cut enum.Cut
	// SWCycles is the software execution time of the covered operations.
	SWCycles int
	// HWCycles is the custom instruction's latency in cycles: the critical
	// path through the datapath, rounded up, plus I/O sequencing overhead,
	// at least 1.
	HWCycles int
	// Saving is SWCycles − HWCycles per execution (may be ≤ 0).
	Saving int
	// Area is the summed datapath area.
	Area float64
}

// Estimator scores cuts of one graph under a model.
type Estimator struct {
	g *dfg.Graph
	m Model
}

// NewEstimator creates an Estimator.
func NewEstimator(g *dfg.Graph, m Model) *Estimator {
	return &Estimator{g: g, m: m}
}

// swCycles returns the software latency of node v: the model entry for its
// operation, except custom instructions, whose latency is recorded in their
// const payload when the cut was collapsed (result extractors are free).
func (e *Estimator) swCycles(v int) int {
	switch e.g.Op(v) {
	case dfg.OpCustom:
		return int(e.g.ConstValue(v))
	case dfg.OpExtract:
		return 0
	}
	return e.m.Cost(e.g.Op(v)).SWCycles
}

// Estimate scores one cut.
func (e *Estimator) Estimate(c enum.Cut) Estimate {
	sw := 0
	area := 0.0
	// Critical path through the cut in normalized delay units.
	depth := make(map[int]float64, c.Nodes.Count())
	maxDelay := 0.0
	for v := 0; v < e.g.N(); v++ {
		if !c.Nodes.Has(v) {
			continue
		}
		cost := e.m.Cost(e.g.Op(v))
		sw += e.swCycles(v)
		area += cost.Area
		d := 0.0
		for _, p := range e.g.Preds(v) {
			if c.Nodes.Has(p) {
				if dp := depth[p]; dp > d {
					d = dp
				}
			}
		}
		d += cost.HWDelay
		depth[v] = d
		if d > maxDelay {
			maxDelay = d
		}
	}
	hw := math.Ceil(maxDelay)
	if nin := len(c.Inputs); nin > 2 {
		hw += float64(nin-2) * e.m.ExtraInputCycles
	}
	if nout := len(c.Outputs); nout > 1 {
		hw += float64(nout-1) * e.m.ExtraOutputCycles
	}
	if hw < 1 {
		hw = 1
	}
	return Estimate{
		Cut:      c,
		SWCycles: sw,
		HWCycles: int(hw),
		Saving:   sw - int(hw),
		Area:     area,
	}
}

// BlockCycles returns the software execution time of the whole block: the
// summed latency of every operation (custom instructions contribute their
// recorded hardware latency).
func (e *Estimator) BlockCycles() int {
	total := 0
	for v := 0; v < e.g.N(); v++ {
		total += e.swCycles(v)
	}
	return total
}

// Graph returns the underlying graph.
func (e *Estimator) Graph() *dfg.Graph { return e.g }

// String renders an estimate for reports.
func (s Estimate) String() string {
	return fmt.Sprintf("ISE{nodes=%d in=%d out=%d sw=%d hw=%d save=%d area=%.1f}",
		s.Cut.Nodes.Count(), len(s.Cut.Inputs), len(s.Cut.Outputs),
		s.SWCycles, s.HWCycles, s.Saving, s.Area)
}

// Overlaps reports whether two estimates share any graph vertex.
func (s Estimate) Overlaps(t Estimate) bool {
	return s.Cut.Nodes.Intersects(t.Cut.Nodes)
}
