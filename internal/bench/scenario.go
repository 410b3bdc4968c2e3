package bench

import (
	"bytes"
	"fmt"
	"hash/fnv"

	"polyise/internal/dfg"
	"polyise/internal/enum"
	"polyise/internal/ise"
	"polyise/internal/semoracle"
	"polyise/internal/workload"
)

// This file turns end-to-end pipeline configurations into first-class
// benchmark scenarios: exprc kernels and generated blocks run through
// enumerate → select → Verilog emission → interpreter re-check, under
// sweeps over I/O port budgets, forbidden-op sets and resource limits.
// Every result field is deterministic (counts, cycle accounting, emission
// digest), so the suite's results are committed in BENCH_PR9.json and
// TestScenariosRunCleanAndDeterministic gates them by exact equality (its
// -update flag rewrites the record): a drifted field is a behaviour change
// in some pipeline stage, not noise.

// Scenario is one pinned end-to-end configuration.
type Scenario struct {
	Name string
	// Block names a selection-corpus instance (workload.SelectionCorpus).
	Block string
	// Nin and Nout are the register-file port budgets of the enumeration.
	Nin, Nout int
	// ForbiddenOps restricts the ISA: every node with one of these
	// operations is added to the forbidden set before enumeration.
	ForbiddenOps []dfg.Op
	// MaxInstructions and MinSaving configure selection (0 = unlimited /
	// default 1).
	MaxInstructions int
	MinSaving       int
}

// ScenarioResult is the deterministic outcome of one scenario run.
type ScenarioResult struct {
	Name string `json:"name"`
	N    int    `json:"n"`
	// Cuts is the number of valid cuts enumerated under the scenario's
	// constraints; exact, so any drift is a correctness regression.
	Cuts int `json:"cuts"`
	// Chosen is the number of selected instructions.
	Chosen int `json:"chosen"`
	// CyclesBefore/After pin the cost-model accounting.
	CyclesBefore int `json:"cycles_before"`
	CyclesAfter  int `json:"cycles_after"`
	// AreaMilli is the selection's total area in milli-units (integer, so
	// the JSON round-trip is exact).
	AreaMilli int64 `json:"area_milli"`
	// VerilogBytes and VerilogFNV pin the emitted RTL byte-exactly: the
	// concatenated module text's length and 64-bit FNV-1a digest.
	VerilogBytes int    `json:"verilog_bytes"`
	VerilogFNV   string `json:"verilog_fnv"`
	// OracleEnvs and OracleMismatches record the interpreter re-check of
	// every chosen instruction (collapsed ≡ original); a recorded scenario
	// always has OracleMismatches == 0.
	OracleEnvs       int `json:"oracle_envs"`
	OracleMismatches int `json:"oracle_mismatches"`
}

// Scenarios returns the pinned scenario suite: I/O port sweeps, restricted-
// ISA (forbidden-op) sweeps, memory-inclusive kernels, and binding
// selection budgets — the constraint axes of §5.3/§7 exercised through the
// whole pipeline.
func Scenarios() []Scenario {
	return []Scenario{
		// I/O port budget sweep on a mid-size generated block with memory
		// traffic: the axis of the paper's Nin/Nout constraint.
		{Name: "io-2x1/mibench-n40", Block: "mibench-n40-seed7", Nin: 2, Nout: 1},
		{Name: "io-3x1/mibench-n40", Block: "mibench-n40-seed7", Nin: 3, Nout: 1},
		{Name: "io-4x2/mibench-n40", Block: "mibench-n40-seed7", Nin: 4, Nout: 2},
		{Name: "io-6x3/mibench-n40", Block: "mibench-n40-seed7", Nin: 6, Nout: 3},
		// Restricted-ISA sweep: the same kernel with and without a
		// multiplier block, and a shift-free hash round.
		{Name: "isa-full/fir4", Block: "fir4", Nin: 4, Nout: 2},
		{Name: "isa-no-mul/fir4", Block: "fir4", Nin: 4, Nout: 2,
			ForbiddenOps: []dfg.Op{dfg.OpMul, dfg.OpDiv, dfg.OpRem}},
		{Name: "isa-no-shift/hash-round", Block: "hash-round", Nin: 4, Nout: 2,
			ForbiddenOps: []dfg.Op{dfg.OpShl, dfg.OpShr, dfg.OpSar}},
		// Memory-inclusive kernel: cuts wrap around forbidden loads/stores
		// and collapsing must preserve the dependence ordering.
		{Name: "mem/mem-kernel", Block: "mem-kernel", Nin: 4, Nout: 2},
		// Binding selection budgets on the richest small instance.
		{Name: "budget-1insn/fir4", Block: "fir4", Nin: 4, Nout: 2, MaxInstructions: 1},
		{Name: "budget-save2/hash-round", Block: "hash-round", Nin: 4, Nout: 2, MinSaving: 2},
	}
}

// scenarioOracleEnvs is the per-instruction environment count of the
// end-to-end re-check (the full corpus-level sweep at DefaultEnvs lives in
// internal/semoracle's own tests).
const scenarioOracleEnvs = 4

// RunScenario executes one scenario end to end and returns its
// deterministic result. Any pipeline failure — enumeration stopping early,
// emission failing, the interpreter refusing a graph — is an error, not a
// silently partial result.
func RunScenario(s Scenario) (ScenarioResult, error) {
	res := ScenarioResult{Name: s.Name, OracleEnvs: scenarioOracleEnvs}
	g := findBlock(s.Block)
	if g == nil {
		return res, fmt.Errorf("scenario %s: unknown block %q", s.Name, s.Block)
	}
	if len(s.ForbiddenOps) > 0 {
		g = workload.WithForbiddenOps(g, s.ForbiddenOps...)
	}
	res.N = g.N()

	eopt := enum.DefaultOptions()
	eopt.MaxInputs = s.Nin
	eopt.MaxOutputs = s.Nout
	cuts, stats := enum.CollectAll(g, eopt)
	if stats.StopReason != enum.StopNone {
		return res, fmt.Errorf("scenario %s: enumeration stopped: %v", s.Name, stats.StopReason)
	}
	res.Cuts = len(cuts)

	sopt := ise.DefaultSelectOptions()
	sopt.MaxInstructions = s.MaxInstructions
	if s.MinSaving > 0 {
		sopt.MinSaving = s.MinSaving
	}
	sel := ise.Select(g, ise.DefaultModel(), cuts, sopt)
	if bad := semoracle.Invariants(g, sel, eopt, sopt); len(bad) != 0 {
		return res, fmt.Errorf("scenario %s: selection invariants: %v", s.Name, bad)
	}
	res.Chosen = len(sel.Chosen)
	res.CyclesBefore = sel.BlockCyclesBefore
	res.CyclesAfter = sel.BlockCyclesAfter
	res.AreaMilli = int64(sel.TotalArea*1000 + 0.5)

	var rtl bytes.Buffer
	for i, c := range sel.Chosen {
		if err := ise.WriteVerilog(&rtl, g, c.Cut, fmt.Sprintf("ise%d", i)); err != nil {
			return res, fmt.Errorf("scenario %s: verilog for instruction %d: %w", s.Name, i, err)
		}
	}
	res.VerilogBytes = rtl.Len()
	h := fnv.New64a()
	h.Write(rtl.Bytes())
	res.VerilogFNV = fmt.Sprintf("%016x", h.Sum64())

	for i, c := range sel.Chosen {
		mismatches, err := semoracle.CheckCut(g, c.Cut, scenarioOracleEnvs, int64(i)+0x5ce)
		if err != nil {
			return res, fmt.Errorf("scenario %s: oracle on instruction %d: %w", s.Name, i, err)
		}
		res.OracleMismatches += len(mismatches)
	}
	return res, nil
}

// RunScenarios runs the whole pinned suite.
func RunScenarios() ([]ScenarioResult, error) {
	var out []ScenarioResult
	for _, s := range Scenarios() {
		r, err := RunScenario(s)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

func findBlock(name string) *dfg.Graph {
	for _, b := range workload.SelectionCorpus() {
		if b.Name == name {
			return b.G
		}
	}
	return nil
}
