package baseline

import (
	"polyise/internal/bitset"
	"polyise/internal/dfg"
	"polyise/internal/enum"
)

// PrunedSearch reimplements the Pozzi–Atasu–Ienne exhaustive subgraph
// enumeration (reference [15] of the paper; TCAD-25(7), 2006). The search
// space is binary: walking the vertices in topological order (predecessors
// first, the direction the original algorithm grows cuts), every vertex is
// either included in the cut or excluded, giving a decision tree of up to
// 2^n leaves that constraint propagation prunes:
//
//   - Input violations are permanent. A vertex is decided only after all
//     its predecessors, so when it joins the cut every excluded predecessor
//     becomes an input forever; once more than Nin exist the subtree dies.
//
//   - Convexity violations are permanent. Excluded vertices remember
//     whether the cut reaches them through excluded territory; including a
//     vertex fed by such a path can never become convex again.
//
//   - Output violations, however, resolve late: an included vertex's output
//     status is only fixed once all its successors are decided (a future
//     successor may still absorb it into the cut). This is the documented
//     weakness of [15] — "its performance quickly deteriorates if the
//     custom instructions can have multiple outputs" (§2) — and the reason
//     the figure 4 tree family is its worst case, provably O(1.6^n) for the
//     related algorithm [4]: in a leaves-first walk of a tree almost every
//     partial cut is still plausibly within the output budget.
//
// Valid leaves are reported through visit (each distinct cut exactly once);
// the §3 technical condition and any Options restrictions are applied so
// counts are directly comparable with package enum.
func PrunedSearch(g *dfg.Graph, opt enum.Options, visit func(enum.Cut) bool) enum.Stats {
	s := &pruned{
		g:          g,
		opt:        opt,
		visit:      visit,
		val:        enum.NewValidator(g, opt),
		stop:       enum.NewStopper(opt),
		state:      make([]int8, g.N()),
		bad:        make([]bool, g.N()),
		isInput:    make([]bool, g.N()),
		remainSucc: make([]int, g.N()),
		exclSucc:   make([]bool, g.N()),
		S:          bitset.New(g.N()),
	}
	for v := 0; v < g.N(); v++ {
		s.remainSucc[v] = len(g.Succs(v))
	}
	s.walk(0)
	return s.stats
}

const (
	undecided int8 = iota
	included
	excluded
)

type pruned struct {
	g     *dfg.Graph
	opt   enum.Options
	visit func(enum.Cut) bool
	val   *enum.Validator
	stats enum.Stats

	state []int8
	// bad[v]: v is excluded and the cut reaches v through excluded
	// vertices — including any successor of v would break convexity.
	bad []bool
	// isInput[v]: v is excluded and feeds at least one included vertex.
	isInput []bool
	// remainSucc[v] counts v's undecided successors; exclSucc[v] records
	// whether any successor was excluded. An included vertex's output
	// status is fixed only when remainSucc reaches zero.
	remainSucc []int
	exclSucc   []bool

	S           *bitset.Set
	inCount     int // included vertices
	outCount    int // fixed outputs among included vertices
	fixedInputs int // excluded vertices feeding the cut
	stopped     bool
	// stop is the shared cancel/deadline primitive (enum.Stopper), the same
	// one package enum polls — cancellation semantics cannot drift between
	// poly and oracle runs.
	stop enum.Stopper
}

// walk decides vertex v, then every later one: ids are a topological
// order, so all of v's predecessors are already decided.
func (s *pruned) walk(v int) {
	if r := s.stop.Poll(); r != enum.StopNone {
		s.stats.RecordStop(r)
		s.stopped = true
	}
	if s.stopped {
		return
	}
	if v == s.g.N() {
		s.leaf()
		return
	}

	// Inclusion branch (never for forbidden vertices or roots).
	if !s.g.IsForbidden(v) {
		convex := true
		newInputs := 0
		for _, p := range s.g.Preds(v) {
			if s.state[p] == included {
				continue
			}
			if s.bad[p] {
				convex = false
				break
			}
			if !s.isInput[p] {
				newInputs++
			}
		}
		// Distinct new inputs: a predecessor listed twice must count once.
		// Predecessor lists are tiny, so a quadratic scan beats allocating
		// a set per decision.
		if convex && newInputs > 0 {
			preds := s.g.Preds(v)
			newInputs = 0
			for i, p := range preds {
				if s.state[p] == included || s.isInput[p] {
					continue
				}
				dup := false
				for _, q := range preds[:i] {
					if q == p {
						dup = true
						break
					}
				}
				if !dup {
					newInputs++
				}
			}
		}
		if convex && s.fixedInputs+newInputs <= s.opt.MaxInputs {
			s.include(v)
		} else {
			s.stats.SeedsPruned++
		}
	}

	if s.stopped {
		return
	}
	// Exclusion branch.
	s.exclude(v)
}

// include decides v ∈ S, maintaining input counts and deferred output
// accounting, then recurses and undoes.
func (s *pruned) include(v int) {
	var marked []int
	for _, p := range s.g.Preds(v) {
		if s.state[p] != included && !s.isInput[p] {
			s.isInput[p] = true
			s.fixedInputs++
			marked = append(marked, p)
		}
	}
	s.state[v] = included
	s.S.Add(v)
	s.inCount++

	// v's own output status: live-out vertices and structural sinks are
	// outputs the moment they join (their sink edge can never be absorbed).
	selfOut := s.g.IsLiveOut(v) || len(s.g.Succs(v)) == 0
	if selfOut {
		s.outCount++
	}
	undo := s.settlePreds(v, false)

	if s.outCount <= s.opt.MaxOutputs {
		s.walk(v + 1)
	} else {
		s.stats.SeedsPruned++
	}

	s.unsettle(undo)
	if selfOut {
		s.outCount--
	}
	s.inCount--
	s.S.Remove(v)
	s.state[v] = undecided
	for _, p := range marked {
		s.isInput[p] = false
		s.fixedInputs--
	}
}

// exclude decides v ∉ S, maintaining convexity propagation and settling
// the output status of v's included predecessors, then recurses and undoes.
func (s *pruned) exclude(v int) {
	// v is bad (would break convexity above it) when the cut reaches it:
	// directly from an included predecessor or through a bad excluded one.
	bad := false
	feeds := false
	for _, p := range s.g.Preds(v) {
		if s.state[p] == included {
			feeds = true
		} else if s.bad[p] {
			bad = true
		}
	}
	s.state[v] = excluded
	s.bad[v] = bad || feeds
	undo := s.settlePreds(v, true)

	if s.outCount <= s.opt.MaxOutputs {
		s.walk(v + 1)
	} else {
		s.stats.SeedsPruned++
	}

	s.unsettle(undo)
	s.bad[v] = false
	s.state[v] = undecided
}

// settlePreds records the decision of v with each included predecessor:
// its undecided-successor count drops, and when it reaches zero with any
// excluded successor the predecessor becomes a fixed output. Returns an
// undo list of (vertex, becameOutput, markedExcl) entries.
type settle struct {
	p          int
	becameOut  bool
	markedExcl bool
}

func (s *pruned) settlePreds(v int, vExcluded bool) []settle {
	var undo []settle
	for _, p := range s.g.Preds(v) {
		if s.state[p] != included {
			continue
		}
		e := settle{p: p}
		s.remainSucc[p]--
		if vExcluded && !s.exclSucc[p] {
			s.exclSucc[p] = true
			e.markedExcl = true
		}
		if s.remainSucc[p] == 0 && s.exclSucc[p] && !s.g.IsLiveOut(p) {
			// All successors decided, at least one excluded → fixed output.
			// (Live-out vertices were counted at inclusion.)
			s.outCount++
			e.becameOut = true
		}
		undo = append(undo, e)
	}
	return undo
}

func (s *pruned) unsettle(undo []settle) {
	for i := len(undo) - 1; i >= 0; i-- {
		e := undo[i]
		if e.becameOut {
			s.outCount--
		}
		if e.markedExcl {
			s.exclSucc[e.p] = false
		}
		s.remainSucc[e.p]++
	}
}

func (s *pruned) leaf() {
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

// CollectPruned runs PrunedSearch and returns all valid cuts sorted
// deterministically.
func CollectPruned(g *dfg.Graph, opt enum.Options) ([]enum.Cut, enum.Stats) {
	opt.KeepCuts = true
	return enum.Collect(func(visit func(enum.Cut) bool) enum.Stats {
		return PrunedSearch(g, opt, visit)
	})
}
