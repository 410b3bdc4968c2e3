package enum

// Budget-feasibility pruning (§5.3, exact). After choosing a set of seeds
// for the current output o, any dominator completion adds one input per
// surviving vertex-disjoint source→o path (Menger's theorem: a separator
// is at least as large as the maximum set of vertex-disjoint paths).
// Vertices no completion of the phase may take get infinite capacity. The
// canonical order rules out two sets of them (docs/ALGORITHM.md §5): every
// vertex above the phase's last seed, since seeds descend and the
// completion lies below the last seed, and every vertex the phase's
// output–input mask rejects, which neither loop ever pushes. The first set
// holds the seeds' mandatory vertices — those on every path from a seed to
// o, which §5.3 counts as uncuttable because blocking one leaves the seed
// redundant: such a vertex lies between its seed and o, and every seed of
// the phase is at least the last one.
//
// If the resulting max-flow exceeds the remaining input budget, the entire
// seed-extension subtree is fruitless and is cut. This is the piece that
// keeps the figure 4 tree family tractable for the exact enumeration: a
// seed deep inside a subtree pins everything above it as uncuttable,
// including its whole root-ward spine, and covering the remaining branches
// around that spine overflows any small Nin. A path that runs above the
// last seed or through rejected vertices can never be cut, so it counts as
// unbounded flow, and the bound fires high in the seed tree at wide
// budgets. The seed loop's cutoff at the highest on-path entry is the
// bound's infinite case, decided in O(1) before any seed is pushed.
//
// The max-flow needs at most flowCap+1 units, so completionFlowBound runs
// plain augmenting-path searches, each at word cost on the frozen graph: a
// vertex's forward arcs are its successor row masked by the region, and the
// only reverse arcs lie along the few units of flow found so far, which are
// kept as a short list of arcs. No residual edge array is built, and a call
// resets only what it recorded.

import (
	"math/bits"

	"polyise/internal/bitset"
	"polyise/internal/dfg"
)

// flowScratch holds the reusable state of the unit-vertex-capacity max-flow
// over the split graph: vertex v becomes v_in=2v and v_out=2v+1, joined by
// an arc of capacity one (infinite for uncut). v_out feeds s_in for every
// on-path successor s, the virtual source feeds v_in for every on-path
// entry, and o_in is the sink. None of these arcs is stored: the forward
// ones are the frozen graph's rows masked by the region, and the reverse
// ones are read off the flow, which is kept as the short list of arcs that
// have carried a unit.
type flowScratch struct {
	uncut *bitset.Set // vertices with infinite capacity
	// The flow: head[v] is the first arc into v that has carried flow, -1
	// none; arcs is their list, reset arc by arc after each bound.
	head []int32
	arcs []flowArc
	// One augmenting-path search: the split nodes reached, the node each
	// was reached from (-1 the source; valid only once reached) and the
	// search stack. Each node is pushed at most once.
	visIn, visOut *bitset.Set
	par           []int32
	stack         []int32
}

// flowArc is an arc u_out→v_in (u = -1: source→v_in) with the units of
// flow it carries; a unit on it makes v_in→u_out a residual arc.
type flowArc struct {
	from, to, f int32
	next        int32 // next arc into to, -1 none
}

func (e *incEnum) flow() *flowScratch {
	if e.fs == nil {
		n := e.g.N()
		e.fs = &flowScratch{
			uncut:  bitset.New(n),
			head:   make([]int32, n),
			arcs:   make([]flowArc, 0, 64),
			visIn:  bitset.New(n),
			visOut: bitset.New(n),
			par:    make([]int32, 2*n),
			stack:  make([]int32, 0, 2*n),
		}
		for v := range e.fs.head {
			e.fs.head[v] = -1
		}
	}
	return e.fs
}

// flowBoundCanExceed reports whether completionFlowBound could possibly
// exceed flowCap, using two structural caps on the max-flow that cost one
// word-parallel pass each instead of any augmenting-path search. Every
// unit of flow passes the unit-capacity split edge of a distinct on-path
// entry (all augmenting paths start source→entry) and of a distinct
// on-path predecessor of o (they end pred→o), so the flow is bounded by
// either population count — unless a counted vertex is uncuttable
// (infinite capacity), which voids that cap. When a valid cap already
// fits flowCap the expensive bound cannot fire and the caller skips it;
// the outcome, and therefore the search and its statistics, are identical
// either way.
func (e *incEnum) flowBoundCanExceed(o int, onPath *bitset.Set, flowCap int) bool {
	g := e.g
	fs := e.flow()
	ow := onPath.Words()
	uw := fs.uncut.Words()

	cnt, capped := 0, true
	for i, r := range g.PredRow(o) {
		m := r & ow[i]
		if m&uw[i] != 0 {
			capped = false
			break
		}
		cnt += bits.OnesCount64(m)
	}
	if capped && cnt <= flowCap {
		return false
	}
	cnt, capped = 0, true
	for i, r := range g.EntrySet().Words() {
		m := r & ow[i]
		if m&uw[i] != 0 {
			capped = false
			break
		}
		cnt += bits.OnesCount64(m)
	}
	return !capped || cnt > flowCap
}

// completionFlowBound returns the minimum number of additional inputs any
// dominator completion of o needs, given the current inputs and the
// surviving-path region onPath: the max-flow from the virtual source to o
// with unit capacity on ordinary vertices and infinite capacity on the
// uncuttable ones (e.fs.uncut). flowCap bounds the search —
// the returned value saturates at flowCap+1, so at most flowCap+1
// augmenting-path searches run. Any augmenting path will do: the capped
// max-flow value is unique, whichever paths carry it.
func (e *incEnum) completionFlowBound(o int, onPath *bitset.Set, flowCap int) int {
	fs := e.flow()
	flow := 0
	for flow <= flowCap && fs.augment(e.g, o, onPath) {
		flow++
	}
	for _, a := range fs.arcs {
		fs.head[a.to] = -1
	}
	fs.arcs = fs.arcs[:0]
	return flow
}

// augment searches the residual split graph for a source→o_in path and
// pushes one unit along it, reporting whether it found one. The search
// pops the most recently reached node first, and a v_out pushes its
// successors in ascending id order, so it heads for o (the region's
// highest id) along the highest successor.
func (fs *flowScratch) augment(g *dfg.Graph, o int, onPath *bitset.Set) bool {
	ow, inw := onPath.Words(), fs.visIn.Words()
	fs.visOut.Clear()
	stack := fs.stack[:0]
	sink := int32(2 * o)
	found := false
	// The source's arcs: the on-path entries' v_in. This loop writes every
	// word of visIn, so it needs no clearing.
	for i, w := range g.EntrySet().Words() {
		m := w & ow[i]
		inw[i] = m
		for m != 0 {
			x := int32(i<<6+bits.TrailingZeros64(m)) << 1
			m &= m - 1
			fs.par[x] = -1
			stack = append(stack, x)
			found = found || x == sink
		}
	}
	for !found && len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		v := int(x >> 1)
		if x&1 == 0 {
			// v_in: its own split arc, if it has room, and back along the
			// arcs whose flow enters v.
			if !fs.visOut.Has(v) && (fs.uncut.Has(v) || !fs.carries(v)) {
				fs.visOut.Add(v)
				fs.par[x+1] = x
				stack = append(stack, x+1)
			}
			for a := fs.head[v]; a >= 0; a = fs.arcs[a].next {
				if u := int(fs.arcs[a].from); u >= 0 && fs.arcs[a].f > 0 && !fs.visOut.Has(u) {
					fs.visOut.Add(u)
					fs.par[2*u+1] = x
					stack = append(stack, int32(2*u+1))
				}
			}
			continue
		}
		// v_out: back through v's split arc if it carries flow, and on to
		// every unreached on-path successor. Successors lie above v and
		// the region ends at o, so the row scan spans those words only.
		if !fs.visIn.Has(v) && fs.carries(v) {
			fs.visIn.Add(v)
			fs.par[x-1] = x
			stack = append(stack, x-1)
		}
		row := g.SuccRow(v)
		for i := v >> 6; i <= o>>6; i++ {
			m := row[i] & ow[i] &^ inw[i]
			inw[i] |= m
			for m != 0 {
				y := int32(i<<6+bits.TrailingZeros64(m)) << 1
				m &= m - 1
				fs.par[y] = x
				stack = append(stack, y)
				found = found || y == sink
			}
		}
	}
	fs.stack = stack
	if !found {
		return false
	}
	// Walk the path back from the sink. A step out→in between two vertices
	// is a forward arc and gains a unit; so does the source's step, whose
	// -1 reads as an out node of vertex -1 (arithmetic shift). A step
	// in→out between two vertices runs an arc backwards and cancels a unit.
	// A step between the two halves of one vertex changes only that
	// vertex's throughput, which the arcs into it already record. o_in is
	// never expanded, so arcs into o need no record.
	for y := sink; ; {
		x := fs.par[y]
		if y != sink && x>>1 != y>>1 {
			if x&1 == 1 {
				fs.addFlow(x>>1, y>>1, 1)
			} else {
				fs.addFlow(y>>1, x>>1, -1)
			}
		}
		if x < 0 {
			return true
		}
		y = x
	}
}

// carries reports whether flow enters v, which for a unit vertex means its
// split arc is full, and for any vertex that the arc has a reverse.
func (fs *flowScratch) carries(v int) bool {
	for a := fs.head[v]; a >= 0; a = fs.arcs[a].next {
		if fs.arcs[a].f > 0 {
			return true
		}
	}
	return false
}

// addFlow adds d units to the arc u→v (u = -1: the source), recording it
// on first use. Only an arc that carries flow is ever cancelled (d = -1).
func (fs *flowScratch) addFlow(u, v, d int32) {
	for a := fs.head[v]; a >= 0; a = fs.arcs[a].next {
		if fs.arcs[a].from == u {
			fs.arcs[a].f += d
			return
		}
	}
	fs.arcs = append(fs.arcs, flowArc{from: u, to: v, f: d, next: fs.head[v]})
	fs.head[v] = int32(len(fs.arcs) - 1)
}
