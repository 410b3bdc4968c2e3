// Package interp executes data-flow graphs on concrete values. Its job in
// the reproduction is semantic validation: the graph rewrites behind the
// iterative ISE flow (ExtractCut, CollapseCut) must preserve the block's
// meaning, and the test suite proves it by running rewritten blocks against
// the originals on random inputs. It also doubles as a tiny reference model
// for the generated Verilog's operator semantics (32-bit two's complement).
package interp

import (
	"fmt"
	"math/rand"

	"polyise/internal/bitset"
	"polyise/internal/dfg"
)

// Memory provides load/store semantics for the memory operations.
type Memory interface {
	Load(addr int32) int32
	Store(addr, val int32)
}

// FlatMemory is a sparse word-addressed memory.
type FlatMemory map[int32]int32

// Load returns the word at addr (zero if never written).
func (m FlatMemory) Load(addr int32) int32 { return m[addr] }

// Store writes the word at addr.
func (m FlatMemory) Store(addr, val int32) { m[addr] = val }

// CustomFn implements one collapsed custom instruction: it receives the
// operand values in the instruction's documented operand order and returns
// one value per result.
type CustomFn func(args []int32) []int32

// Env configures an execution.
type Env struct {
	// Inputs maps live-in variable names to values; unnamed roots default
	// to zero and can be set positionally via RootValues.
	Inputs map[string]int32
	// RootValues overrides inputs positionally, indexed like g.Roots().
	RootValues []int32
	// Mem backs loads and stores; nil means a fresh FlatMemory.
	Mem Memory
	// Customs resolves custom instructions by node name.
	Customs map[string]CustomFn
}

// Result carries every node's value after execution.
type Result struct {
	Values []int32
	Mem    Memory
}

// LiveOuts returns the values of the block's Oext vertices in ascending
// vertex order — the observable result of the block.
func (r Result) LiveOuts(g *dfg.Graph) []int32 {
	outs := g.Oext()
	vals := make([]int32, len(outs))
	for i, o := range outs {
		vals[i] = r.Values[o]
	}
	return vals
}

// Run executes the frozen graph in topological order.
//
// Run is total over frozen graphs: a graph whose nodes carry fewer operands
// than their operation requires (possible through hand-built or deserialized
// graphs — neither AddNode nor the graphio parser enforces arity) is
// reported as an error, never a panic. Extra operands beyond an operation's
// arity are ignored; by convention they are dependence edges (the memory-
// ordering edges the workload generator emits).
func Run(g *dfg.Graph, env Env) (Result, error) {
	mem := env.Mem
	if mem == nil {
		mem = FlatMemory{}
	}
	vals := make([]int32, g.N())
	roots := g.Roots()
	for i, r := range roots {
		switch {
		case env.RootValues != nil && i < len(env.RootValues):
			vals[r] = env.RootValues[i]
		case env.Inputs != nil:
			vals[r] = env.Inputs[g.Name(r)]
		}
	}
	// Custom results are cached per custom node (multi-output instructions
	// are evaluated once, extracts select from the cache).
	customResults := make(map[int][]int32)

	for v := 0; v < g.N(); v++ {
		preds := g.Preds(v)
		if want := g.Op(v).Arity(); want > 0 && len(preds) < want {
			return Result{}, fmt.Errorf("interp: node %d (%v) has %d operands, needs %d",
				v, g.Op(v), len(preds), want)
		}
		a := func(i int) int32 { return vals[preds[i]] }
		switch g.Op(v) {
		case dfg.OpVar:
			// already seeded
		case dfg.OpConst:
			vals[v] = int32(g.ConstValue(v))
		case dfg.OpAdd:
			vals[v] = a(0) + a(1)
		case dfg.OpSub:
			vals[v] = a(0) - a(1)
		case dfg.OpMul:
			vals[v] = a(0) * a(1)
		case dfg.OpDiv:
			if a(1) == 0 {
				vals[v] = 0 // hardware-style saturation of the undefined case
			} else {
				vals[v] = a(0) / a(1)
			}
		case dfg.OpRem:
			if a(1) == 0 {
				vals[v] = 0
			} else {
				vals[v] = a(0) % a(1)
			}
		case dfg.OpAnd:
			vals[v] = a(0) & a(1)
		case dfg.OpOr:
			vals[v] = a(0) | a(1)
		case dfg.OpXor:
			vals[v] = a(0) ^ a(1)
		case dfg.OpNot:
			vals[v] = ^a(0)
		case dfg.OpNeg:
			vals[v] = -a(0)
		case dfg.OpShl:
			vals[v] = a(0) << uint32(a(1)&31)
		case dfg.OpShr:
			vals[v] = int32(uint32(a(0)) >> uint32(a(1)&31))
		case dfg.OpSar:
			vals[v] = a(0) >> uint32(a(1)&31)
		case dfg.OpCmpEQ:
			vals[v] = b2i(a(0) == a(1))
		case dfg.OpCmpNE:
			vals[v] = b2i(a(0) != a(1))
		case dfg.OpCmpLT:
			vals[v] = b2i(a(0) < a(1))
		case dfg.OpCmpLE:
			vals[v] = b2i(a(0) <= a(1))
		case dfg.OpSelect:
			if a(0) != 0 {
				vals[v] = a(1)
			} else {
				vals[v] = a(2)
			}
		case dfg.OpMin:
			vals[v] = min32(a(0), a(1))
		case dfg.OpMax:
			vals[v] = max32(a(0), a(1))
		case dfg.OpAbs:
			if a(0) < 0 {
				vals[v] = -a(0)
			} else {
				vals[v] = a(0)
			}
		case dfg.OpLoad:
			vals[v] = mem.Load(a(0))
		case dfg.OpStore:
			mem.Store(a(0), a(1))
			vals[v] = a(1)
		case dfg.OpCustom:
			fn := env.Customs[g.Name(v)]
			if fn == nil {
				return Result{}, fmt.Errorf("interp: no implementation for custom instruction %q", g.Name(v))
			}
			args := make([]int32, len(preds))
			for i := range preds {
				args[i] = a(i)
			}
			rs := fn(args)
			customResults[v] = rs
			if len(rs) > 0 {
				vals[v] = rs[0]
			}
		case dfg.OpExtract:
			rs := customResults[preds[0]]
			idx := int(g.ConstValue(v))
			if idx < 0 || idx >= len(rs) {
				return Result{}, fmt.Errorf("interp: extract index %d out of range (%d results)", idx, len(rs))
			}
			vals[v] = rs[idx]
		case dfg.OpCall:
			return Result{}, fmt.Errorf("interp: cannot execute opaque call %q", g.Name(v))
		default:
			return Result{}, fmt.Errorf("interp: unknown op %v", g.Op(v))
		}
	}
	return Result{Values: vals, Mem: mem}, nil
}

// CutEvaluator builds a CustomFn from a cut extracted with ExtractCut: the
// returned function interprets the datapath, taking operands in the cut's
// input order (ExtractCut creates the input vertices first, in exactly the
// operand order CollapseCut wires) and returning the results for outputIDs,
// the extracted ids of the cut's outputs in the original output order
// (obtain them by mapping g.Outputs(S) through ExtractCut's mapping).
func CutEvaluator(extracted *dfg.Graph, outputIDs []int) CustomFn {
	outs := append([]int(nil), outputIDs...)
	return func(args []int32) []int32 {
		env := Env{RootValues: args}
		res, err := Run(extracted, env)
		if err != nil {
			panic(err) // extracted datapaths contain no memory ops or calls
		}
		vals := make([]int32, len(outs))
		for i, o := range outs {
			vals[i] = res.Values[o]
		}
		return vals
	}
}

// SeededMemory is a Memory whose never-written cells read as a pseudorandom
// function of the address instead of zero. Differential checks want this:
// under FlatMemory every load of an untouched cell returns 0, so two runs
// that disagree on which address they load can still agree on every value.
// With seeded contents, any divergence in load addresses or in load/store
// ordering shows up as a value difference.
type SeededMemory struct {
	seed   uint64
	writes map[int32]int32
}

// NewSeededMemory creates a SeededMemory with the given content seed. Two
// memories with the same seed present identical initial contents.
func NewSeededMemory(seed uint64) *SeededMemory {
	return &SeededMemory{seed: seed, writes: make(map[int32]int32)}
}

// Load returns the written value, or the seeded pseudorandom content of an
// untouched cell.
func (m *SeededMemory) Load(addr int32) int32 {
	if v, ok := m.writes[addr]; ok {
		return v
	}
	// splitmix64 of seed⊕addr: cheap, well-mixed cell contents.
	return int32(mix64(m.seed ^ uint64(uint32(addr)) + splitGamma))
}

// splitGamma is splitmix64's state increment, the golden-ratio gamma.
const splitGamma = 0x9e3779b97f4a7c15

// mix64 is splitmix64's output function.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// SplitMix64 is the splitmix64 generator, the one SeededMemory draws its
// cell contents from: a 64-bit state stepped by a constant and mixed, so
// seeding it costs nothing and a draw is a few multiplies.
type SplitMix64 struct{ state uint64 }

// NewSplitMix64 returns the generator seeded with seed.
func NewSplitMix64(seed uint64) SplitMix64 { return SplitMix64{seed} }

// Next returns the next 64-bit draw.
func (s *SplitMix64) Next() uint64 {
	s.state += splitGamma
	return mix64(s.state)
}

// Store writes the word at addr.
func (m *SeededMemory) Store(addr, val int32) { m.writes[addr] = val }

// Equal reports whether two seeded memories are observably identical: same
// initial contents (seed) and the same set of written cells and values.
func (m *SeededMemory) Equal(o *SeededMemory) bool {
	if m.seed != o.seed || len(m.writes) != len(o.writes) {
		return false
	}
	for addr, v := range m.writes {
		if ov, ok := o.writes[addr]; !ok || ov != v {
			return false
		}
	}
	return true
}

// Writes returns the cells the execution stored to; read-only.
func (m *SeededMemory) Writes() map[int32]int32 { return m.writes }

// RandomEnv builds a randomized execution environment for g: uniformly
// random 32-bit values for every root and a SeededMemory with contents
// drawn from the same source. Environments are deterministic in the
// source's state, so a failing configuration is reproducible from its seed.
func RandomEnv(r *rand.Rand, g *dfg.Graph) Env {
	vals := make([]int32, len(g.Roots()))
	for i := range vals {
		vals[i] = int32(r.Uint32())
	}
	return Env{RootValues: vals, Mem: NewSeededMemory(r.Uint64())}
}

// CutFn builds the interpreter-backed implementation of one cut of g: the
// extracted datapath (dfg.Graph.ExtractCut) wrapped as a CustomFn whose
// results follow the cut's original output order — exactly the function
// CollapseCut's custom node needs to execute the collapsed graph under Run.
func CutFn(g *dfg.Graph, nodes *bitset.Set, outputs []int) (CustomFn, error) {
	extracted, mapping, err := g.ExtractCut(nodes)
	if err != nil {
		return nil, err
	}
	outIDs := make([]int, len(outputs))
	for i, o := range outputs {
		outIDs[i] = mapping[o]
	}
	return CutEvaluator(extracted, outIDs), nil
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

func max32(a, b int32) int32 {
	if a < b {
		return b
	}
	return a
}
