package baseline

import (
	"polyise/internal/bitset"
	"polyise/internal/dfg"
	"polyise/internal/enum"
)

// AtasuSearch reimplements the earlier Atasu–Pozzi–Ienne identification
// algorithm (reference [4] of the paper, DAC 2003) at period-faithful
// pruning strength: a binary include/exclude search in reverse topological
// order (sink side first) whose only subtree-killing propagation is the
// output-port constraint — in that order an included vertex's output status
// is fixed immediately, since all its successors are already decided.
// Input counts and convexity are only verified on complete assignments.
//
// This is the algorithm the paper proves exponential, O(1.6^n), on the
// figure 4 trees, and the reason its run time "quickly deteriorates": with
// Nout ≥ 2 nearly every scattered partial assignment stays plausible. The
// stronger PrunedSearch in this package shows how far constraint
// propagation moved after 2006; figure 5 of EXPERIMENTS.md reports both.
func AtasuSearch(g *dfg.Graph, opt enum.Options, visit func(enum.Cut) bool) enum.Stats {
	s := &atasu{
		g:     g,
		opt:   opt,
		visit: visit,
		val:   enum.NewValidator(g, opt),
		stop:  enum.NewStopper(opt),
		state: make([]int8, g.N()),
		S:     bitset.New(g.N()),
	}
	s.walk(g.N() - 1)
	return s.stats
}

type atasu struct {
	g     *dfg.Graph
	opt   enum.Options
	visit func(enum.Cut) bool
	val   *enum.Validator
	stats enum.Stats

	state    []int8
	S        *bitset.Set
	inCount  int
	outCount int // fixed outputs: all successors are decided in this order
	stopped  bool
	// stop is the shared cancel/deadline primitive (enum.Stopper), the same
	// one package enum polls — cancellation semantics cannot drift between
	// poly and oracle runs.
	stop enum.Stopper
}

// walk decides vertex v, then every earlier one: ids are a topological
// order, so all of v's successors are already decided.
func (s *atasu) walk(v int) {
	if r := s.stop.Poll(); r != enum.StopNone {
		s.stats.RecordStop(r)
		s.stopped = true
	}
	if s.stopped {
		return
	}
	if v < 0 {
		s.leaf()
		return
	}

	// Inclusion branch (forbidden vertices and roots can only be excluded).
	if !s.g.IsForbidden(v) {
		isOut := s.g.IsLiveOut(v)
		for _, w := range s.g.Succs(v) {
			if s.state[w] != included {
				isOut = true
				break
			}
		}
		d := 0
		if isOut {
			d = 1
		}
		if s.outCount+d <= s.opt.MaxOutputs {
			s.state[v] = included
			s.S.Add(v)
			s.inCount++
			s.outCount += d
			s.walk(v - 1)
			s.outCount -= d
			s.inCount--
			s.S.Remove(v)
			s.state[v] = undecided
		} else {
			s.stats.SeedsPruned++
		}
	}
	if s.stopped {
		return
	}

	// Exclusion branch.
	s.state[v] = excluded
	s.walk(v - 1)
	s.state[v] = undecided
}

func (s *atasu) leaf() {
	if s.inCount == 0 {
		return
	}
	s.stats.Candidates++
	var cut enum.Cut
	if !s.val.Validate(s.S, &cut) {
		s.stats.Invalid++
		return
	}
	s.stopped = !deliver(s.opt, &s.stats, s.visit, cut)
}
