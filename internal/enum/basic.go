package enum

import (
	"runtime/debug"

	"polyise/internal/bitset"
	"polyise/internal/dfg"
	"polyise/internal/domtree"
	"polyise/internal/multidom"
)

// EnumerateBasic is POLY-ENUM of figure 2: for every admissible output set,
// couple every generalized dominator of each output, rebuild the cut with
// theorem 3, and keep combinations whose real outputs equal the chosen ones.
// It precomputes full generalized-dominator lists per output (the "setup
// phase" the incremental algorithm avoids), so it is the reference
// implementation: simple, clearly correct, and the baseline for the
// basic-versus-incremental ablation.
//
// The visitor may return false to stop the enumeration early.
func EnumerateBasic(g *dfg.Graph, opt Options, visit func(Cut) bool) Stats {
	e := &basicEnum{
		g:       g,
		opt:     opt,
		visit:   visit,
		md:      multidom.New(g),
		val:     NewValidator(g, opt),
		seen:    bitset.NewDigestSet(),
		gendoms: make(map[int][][]int),
		S:       bitset.New(g.N()),
		I:       bitset.New(g.N()),
		outSet:  bitset.New(g.N()),
		scratch: bitset.New(g.N()),
		outTest: bitset.New(g.N()),
	}
	e.stop = NewStopper(opt)
	pds := domtree.ReverseSolver(g)
	pds.Run(nil)
	e.pdt = pds.BuildTree()
	func() {
		// Same failure semantics as Enumerate's serial path: a panic in
		// the search or the visitor becomes Stats.Err + StopError, with
		// the cuts already visited a coherent prefix.
		defer func() {
			if v := recover(); v != nil {
				if e.stats.Err == nil {
					e.stats.Err = &PanicError{Value: v, Stack: debug.Stack()}
				}
				e.stats.RecordStop(StopError)
			}
		}()
		e.doEnum(-1, opt.MaxOutputs)
	}()
	return e.stats
}

type basicEnum struct {
	g     *dfg.Graph
	opt   Options
	visit func(Cut) bool
	md    *multidom.Enumerator
	pdt   *domtree.Tree
	val   *Validator
	stats Stats
	seen  *bitset.DigestSet // this algorithm derives a cut many times: dedup by digest

	gendoms map[int][][]int // memoized generalized dominators per output

	S       *bitset.Set
	I       *bitset.Set
	outs    []int
	outSet  *bitset.Set
	scratch *bitset.Set
	outTest *bitset.Set
	stopped bool
	stop    Stopper // shared cancel/deadline poll primitive (stop.go)
}

// checkStop polls the run's stop sources (Options.Context, Options.Deadline)
// through the shared Stopper, mirroring the incremental search's checkStop.
func (e *basicEnum) checkStop() {
	if r := e.stop.Poll(); r != StopNone {
		e.stats.RecordStop(r)
		e.stopped = true
	}
}

// domsOf returns the generalized dominators of o with ≤ MaxInputs members.
func (e *basicEnum) domsOf(o int) [][]int {
	if d, ok := e.gendoms[o]; ok {
		return d
	}
	d := e.md.Enumerate(o, e.opt.MaxInputs)
	e.gendoms[o] = d
	return d
}

// admissibleOutput applies figure 2's output rule: o may not be forbidden or
// a root, must not repeat or be postdominated by (or postdominate) a chosen
// output.
func (e *basicEnum) admissibleOutput(o int) bool {
	if e.g.IsForbidden(o) || e.outSet.Has(o) || e.I.Has(o) {
		return false
	}
	for _, prev := range e.outs {
		if e.pdt.Dominates(prev, o) || e.pdt.Dominates(o, prev) {
			return false
		}
	}
	return true
}

func (e *basicEnum) doEnum(lastOut, noutLeft int) {
	e.checkStop()
	if e.stopped {
		return
	}
	for o := lastOut + 1; o < e.g.N(); o++ {
		if !e.admissibleOutput(o) {
			continue
		}
		e.stats.OutputsTried++
		for _, D := range e.domsOf(o) {
			if e.stopped {
				return
			}
			if !e.tryDominator(D) {
				continue
			}
			// Snapshot state, extend, recurse, restore. The basic algorithm
			// recomputes the cut from scratch at every step (§5.2 contrasts
			// this with the incremental version).
			savedI := e.I.Clone()
			e.outs = append(e.outs, o)
			e.outSet.Add(o)
			for _, w := range D {
				e.I.Add(w)
			}
			e.g.CutNodesInto(e.S, e.outs, e.I)

			e.checkCandidate()
			if noutLeft > 1 {
				e.doEnum(o, noutLeft-1)
			}

			e.outs = e.outs[:len(e.outs)-1]
			e.outSet.Remove(o)
			e.I.Copy(savedI)
			e.g.CutNodesInto(e.S, e.outs, e.I)
		}
	}
}

// tryDominator pre-filters a (output, dominator) pair: the combined input
// set must fit the budget. A new input may currently lie inside the
// accumulated cut — theorem 3 subtracts the final input set, which the
// caller does after extending S.
func (e *basicEnum) tryDominator(D []int) bool {
	extra := 0
	for _, w := range D {
		if !e.I.Has(w) {
			extra++
		}
	}
	return e.I.Count()+extra <= e.opt.MaxInputs
}

// checkCandidate applies figure 2's validity test — O(S) must equal the
// chosen outputs and S must avoid F — then the full §3 validation.
func (e *basicEnum) checkCandidate() {
	e.checkStop()
	if e.stopped {
		return
	}
	e.stats.Candidates++
	e.g.OutputsInto(e.outTest, e.S)
	if e.outTest.Count() != len(e.outs) {
		return
	}
	for _, o := range e.outs {
		if !e.outTest.Has(o) {
			return
		}
	}
	if e.S.Intersects(e.g.ForbiddenSet()) {
		return
	}
	if !e.seen.Insert(e.S.Hash128()) {
		e.stats.Duplicates++
		return
	}
	var cut Cut
	if !e.val.Validate(e.S, &cut) {
		e.stats.Invalid++
		return
	}
	e.stats.Valid++
	if e.opt.KeepCuts {
		cut.Nodes = cut.Nodes.Clone()
	}
	if !e.visit(cut) {
		e.stats.RecordStop(StopVisitor)
		e.stopped = true
		return
	}
	if e.opt.MaxCuts > 0 && e.stats.Valid >= e.opt.MaxCuts {
		e.stats.RecordStop(StopBudget)
		e.stopped = true
	}
}
