package ise

import (
	"cmp"
	"slices"
	"strings"

	"polyise/internal/bitset"
	"polyise/internal/dfg"
	"polyise/internal/enum"
)

// SelectOptions configures instruction selection.
type SelectOptions struct {
	// MaxInstructions bounds how many custom instructions are selected;
	// zero means unlimited.
	MaxInstructions int
	// AreaBudget bounds the summed datapath area; zero means unlimited.
	AreaBudget float64
	// MinSaving discards candidates saving fewer cycles per execution.
	MinSaving int
	// Exact switches from the greedy heuristic to exhaustive
	// branch-and-bound over candidates; exponential, so it is only used
	// when the candidate list is small (≤ ExactLimit).
	Exact      bool
	ExactLimit int
}

// DefaultSelectOptions uses unlimited resources, greedy selection and a
// minimum saving of one cycle.
func DefaultSelectOptions() SelectOptions {
	return SelectOptions{MinSaving: 1, ExactLimit: 24}
}

// Selection is the result of instruction selection on one basic block.
type Selection struct {
	Chosen []Estimate
	// BlockCyclesBefore and After are the block's software execution time
	// without and with the selected instructions.
	BlockCyclesBefore int
	BlockCyclesAfter  int
	// TotalArea is the summed datapath area of the chosen instructions.
	TotalArea float64
}

// Speedup returns the estimated block-level speedup factor.
func (s Selection) Speedup() float64 {
	if s.BlockCyclesAfter <= 0 {
		return 1
	}
	return float64(s.BlockCyclesBefore) / float64(s.BlockCyclesAfter)
}

// Select scores every candidate cut and picks a non-overlapping subset
// maximizing the saved cycles under the given resource constraints.
func Select(g *dfg.Graph, m Model, cuts []enum.Cut, opt SelectOptions) Selection {
	est := NewEstimator(g, m)
	// Deterministic order: by descending saving, then fewer nodes, then by
	// vertex-set signature. The keys are computed once per candidate.
	type keyed struct {
		Estimate
		nodes int
		sig   string
	}
	keys := make([]keyed, 0, len(cuts))
	for _, c := range cuts {
		s := est.Estimate(c)
		if s.Saving >= opt.MinSaving && s.Saving > 0 {
			keys = append(keys, keyed{s, c.Nodes.Count(), c.Nodes.Signature()})
		}
	}
	slices.SortFunc(keys, func(a, b keyed) int {
		return cmp.Or(cmp.Compare(b.Saving, a.Saving), cmp.Compare(a.nodes, b.nodes), strings.Compare(a.sig, b.sig))
	})
	cands := make([]Estimate, len(keys))
	for i, k := range keys {
		cands[i] = k.Estimate
	}

	// A zero ExactLimit with Exact set would silently degrade every request
	// to the greedy heuristic (len(cands) <= 0 only holds for an empty
	// list); treat zero as "unset" and apply the default limit instead.
	if opt.Exact && opt.ExactLimit == 0 {
		opt.ExactLimit = DefaultSelectOptions().ExactLimit
	}
	var chosen []Estimate
	if opt.Exact && len(cands) <= opt.ExactLimit {
		chosen = exactSelect(g.N(), cands, opt)
	} else {
		chosen = greedySelect(g.N(), cands, opt)
	}

	sel := Selection{Chosen: chosen, BlockCyclesBefore: est.BlockCycles()}
	saved := 0
	for _, c := range chosen {
		saved += c.Saving
		sel.TotalArea += c.Area
	}
	sel.BlockCyclesAfter = sel.BlockCyclesBefore - saved
	if sel.BlockCyclesAfter < 1 && sel.BlockCyclesBefore > 0 {
		sel.BlockCyclesAfter = 1
	}
	return sel
}

func greedySelect(n int, cands []Estimate, opt SelectOptions) []Estimate {
	used := bitset.New(n)
	var chosen []Estimate
	area := 0.0
	for _, c := range cands {
		if opt.MaxInstructions > 0 && len(chosen) >= opt.MaxInstructions {
			break
		}
		if opt.AreaBudget > 0 && area+c.Area > opt.AreaBudget {
			continue
		}
		if used.Intersects(c.Cut.Nodes) {
			continue
		}
		chosen = append(chosen, c)
		used.Union(c.Cut.Nodes)
		area += c.Area
	}
	return chosen
}

// exactSelect finds the saving-maximal non-overlapping subset by
// branch-and-bound over the (sorted) candidate list.
func exactSelect(n int, cands []Estimate, opt SelectOptions) []Estimate {
	// suffixSaving[i] = total saving of candidates i.. (upper bound).
	suffix := make([]int, len(cands)+1)
	for i := len(cands) - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + cands[i].Saving
	}
	var (
		best       []int
		bestSaving int
		cur        []int
		curSaving  int
		curArea    float64
		used       = bitset.New(n)
	)
	var rec func(i int)
	rec = func(i int) {
		if curSaving > bestSaving {
			bestSaving = curSaving
			best = append(best[:0], cur...)
		}
		if i == len(cands) || curSaving+suffix[i] <= bestSaving {
			return
		}
		c := cands[i]
		canTake := !(opt.MaxInstructions > 0 && len(cur) >= opt.MaxInstructions) &&
			!(opt.AreaBudget > 0 && curArea+c.Area > opt.AreaBudget) &&
			!used.Intersects(c.Cut.Nodes)
		if canTake {
			cur = append(cur, i)
			curSaving += c.Saving
			curArea += c.Area
			used.Union(c.Cut.Nodes)
			rec(i + 1)
			used.Subtract(c.Cut.Nodes)
			curArea -= c.Area
			curSaving -= c.Saving
			cur = cur[:len(cur)-1]
		}
		rec(i + 1)
	}
	rec(0)
	out := make([]Estimate, len(best))
	for i, idx := range best {
		out[i] = cands[idx]
	}
	return out
}

// Identify is the end-to-end flow: enumerate all cuts of g under the port
// constraints, then select custom instructions. It is the programmatic
// equivalent of the paper's compiler-toolchain use ([8], §7). The
// enumeration honors eopt.Parallelism (0 shards the search across
// GOMAXPROCS workers; 1 reproduces the paper's serial run); selection
// itself is deterministic either way because parallel enumeration preserves
// the serial cut order.
func Identify(g *dfg.Graph, eopt enum.Options, m Model, sopt SelectOptions) Selection {
	cuts, _ := enum.CollectAll(g, eopt)
	return Select(g, m, cuts, sopt)
}
