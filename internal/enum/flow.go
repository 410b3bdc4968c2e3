package enum

// Budget-feasibility pruning (§5.3, exact). After choosing a set of seeds
// for the current output o, any dominator completion adds one input per
// surviving vertex-disjoint source→o path (Menger's theorem: a separator
// is at least as large as the maximum set of vertex-disjoint paths).
// Vertices no completion of the phase may take get infinite capacity. The
// canonical order rules out two sets of them (docs/ALGORITHM.md §5): every
// vertex above the phase's last seed lastIn, since seeds descend and the
// completion lies below the last seed, and every vertex the phase's
// output–input mask rejects, which neither loop ever pushes. The first set
// holds the seeds' mandatory vertices — those on every path from a seed to
// o, which §5.3 counts as uncuttable because blocking one leaves the seed
// redundant: such a vertex lies between its seed and o, and every seed of
// the phase is at least the last one.
//
// The first set is the sink. A vertex of the reaches-o set back above
// lastIn reaches o through vertices of back above it, all uncuttable, so
// merging every such vertex into the sink leaves the max-flow value
// unchanged: an augmenting search ends at the first one it meets, nothing
// above lastIn is ever expanded, and only the rejected set is uncut. The
// region is back itself, not the surviving-path set: a search from the
// source enters back at its entries, which are on a surviving path, and
// every vertex it reaches forward inside back is on one too. So the bound
// reads nothing of the level's analysis and runs before it, right after
// the seed push derives back.
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
// The max-flow needs at most flowCap+1 units. completionFlowBound first
// runs one depth-first pass that keeps its marks (onePass), the
// blocking-flow step of Dinic's algorithm: the vertex-disjoint paths it
// finds are a valid flow, often already past flowCap. Plain
// augmenting-path searches then continue from that flow to the exact
// capped value, each at word cost on the frozen graph: a vertex's forward
// arcs are its successor row masked by the region, and the only reverse
// arcs lie along the few units of flow found so far, which are kept as a
// short list of arcs. No residual edge array is built, and a call resets
// only what it recorded.

import (
	"math/bits"

	"polyise/internal/bitset"
	"polyise/internal/dfg"
)

// flowScratch holds the reusable state of the unit-vertex-capacity max-flow
// over the split graph: vertex v becomes v_in=2v and v_out=2v+1, joined by
// an arc of capacity one (infinite for uncut). v_out feeds s_in for every
// successor s in the region, the virtual source feeds v_in for every entry
// of the region, and every region vertex above the last seed is the sink.
// None of these arcs is stored: the forward ones are the frozen graph's
// rows masked by the region, and the reverse ones are read off the flow,
// which is kept as the short list of arcs that have carried a unit.
type flowScratch struct {
	uncut *bitset.Set // the phase's rejected vertices: infinite capacity
	// The flow: head[v] is the first arc into v that has carried flow, -1
	// none; arcs is their list, reset arc by arc after each bound.
	head []int32
	arcs []flowArc
	// One search: the split nodes reached (visIn also holds the vertices
	// the one-pass phase entered), the node each was reached from (-1 the
	// source; valid only once reached) and the search stack.
	visIn, visOut *bitset.Set
	par           []int32
	stack         []int32
}

// flowArc is an arc u_out→v_in (u = -1: source→v_in) with the units of
// flow it carries; a unit on it makes v_in→u_out a residual arc. Arcs into
// the sink are never recorded.
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
// unit of flow passes the unit-capacity split edge of a distinct entry of
// back (all augmenting paths start source→entry) and, when o is the whole
// sink, of a distinct predecessor of o in back (they end pred→o), so the
// flow is bounded by either population count — unless a counted vertex is
// uncuttable, which voids that cap: a rejected one, or one above lastIn,
// which is in the sink (unbounded flow for an entry; for a predecessor, o
// is then not the whole sink). When a valid cap already fits flowCap the
// expensive bound cannot fire and the caller skips it; the outcome, and
// therefore the search and its statistics, are identical either way.
func (e *incEnum) flowBoundCanExceed(o, lastIn int, back *bitset.Set, flowCap int) bool {
	fs := e.flow()
	if c, ok := fs.unitCap(e.g.PredRow(o), back.Words(), lastIn); ok && c <= flowCap {
		return false
	}
	c, ok := fs.unitCap(e.g.EntrySet().Words(), back.Words(), lastIn)
	return !ok || c > flowCap
}

// unitCap counts the members of row inside back, reporting false when one
// of them is uncuttable: rejected, or above lastIn.
func (fs *flowScratch) unitCap(row, bw []uint64, lastIn int) (int, bool) {
	uw := fs.uncut.Words()
	cnt := 0
	for i, r := range row {
		m := r & bw[i]
		if m == 0 {
			continue
		}
		if m&uw[i] != 0 || i<<6+63-bits.LeadingZeros64(m) > lastIn {
			return 0, false
		}
		cnt += bits.OnesCount64(m)
	}
	return cnt, true
}

// completionFlowBound returns the minimum number of additional inputs any
// dominator completion of o needs, given the current inputs, the last seed
// lastIn and the reaches-o set back (which ends at o): the max-flow from
// the virtual source to the members of back above lastIn, with unit
// capacity on the other vertices and infinite capacity on the rejected
// ones (e.fs.uncut). flowCap bounds the search — the returned value
// saturates at flowCap+1. The one-pass phase finds a first flow, and at
// most flowCap+1 augmenting-path searches (work.FlowAugments) take it to
// the capped value. Any augmenting path will do: the capped max-flow value
// is unique, whichever paths carry it.
func (e *incEnum) completionFlowBound(o, lastIn int, back *bitset.Set, flowCap int) int {
	fs := e.flow()
	flow := fs.onePass(e.g, o, lastIn, back, flowCap)
	for flow <= flowCap {
		e.work.FlowAugments++
		if !fs.augment(e.g, o, lastIn, back) {
			break
		}
		flow++
	}
	fs.reset()
	return flow
}

// reset empties the flow, arc by arc.
func (fs *flowScratch) reset() {
	for _, a := range fs.arcs {
		fs.head[a.to] = -1
	}
	fs.arcs = fs.arcs[:0]
}

// onePass is the blocking-flow phase: one depth-first search from the
// source, heading along the highest successor, that keeps its marks from
// path to path. A vertex it enters stays blocked: one on a path found is
// used, and one whose search found no path has every path to the sink
// through used or dead vertices, which stays true as more are used. So the
// paths are vertex-disjoint, a valid flow (an uncut vertex carries only
// one, which is still below its capacity), and maximal: no path avoiding
// them remains. Each vertex is entered at most once. It returns the
// number of paths found, stopping past flowCap; an entry in the sink is an
// uncuttable source→sink path, and the value saturates at once.
//
// The stack holds (parent, vertex) pairs, entered when popped. The pairs
// below the entry a path starts from are the source's own, so after a
// path the search drops the rest, all pushed by the path's used vertices,
// and restarts from the source.
func (fs *flowScratch) onePass(g *dfg.Graph, o, lastIn int, back *bitset.Set, flowCap int) int {
	bw, ew := back.Words(), g.EntrySet().Words()
	if dfg.HighestMaskedBit(ew[:o>>6+1], bw[:o>>6+1]) > lastIn {
		return flowCap + 1
	}
	fs.visIn.Clear()
	stack := fs.stack[:0]
	for i := 0; i <= lastIn>>6; i++ {
		for m := ew[i] & bw[i]; m != 0; m &= m - 1 {
			stack = append(stack, -1, int32(i<<6+bits.TrailingZeros64(m)))
		}
	}
	flow, base := 0, 0
	for len(stack) > 0 {
		p, v := stack[len(stack)-2], stack[len(stack)-1]
		stack = stack[:len(stack)-2]
		if fs.visIn.Has(int(v)) {
			continue
		}
		fs.visIn.Add(int(v))
		fs.par[v] = p
		if p < 0 {
			base = len(stack)
		}
		if sinkArc(g, int(v), o, lastIn, bw) {
			for u := v; u >= 0; u = fs.par[u] {
				fs.addFlow(fs.par[u], u, 1)
			}
			if flow++; flow > flowCap {
				break
			}
			stack = stack[:base]
			continue
		}
		// No successor of v in back lies above lastIn, so the row scan
		// stops at lastIn's word.
		row, vw := g.SuccRow(int(v)), fs.visIn.Words()
		for i := int(v) >> 6; i <= lastIn>>6; i++ {
			for m := row[i] & bw[i] &^ vw[i]; m != 0; m &= m - 1 {
				stack = append(stack, v, int32(i<<6+bits.TrailingZeros64(m)))
			}
		}
	}
	fs.stack = stack
	return flow
}

// sinkArc reports whether v has a successor in the sink: a member of back
// (which ends at o) above lastIn.
func sinkArc(g *dfg.Graph, v, o, lastIn int, bw []uint64) bool {
	if g.MaxSucc(v) <= lastIn {
		return false
	}
	row := g.SuccRow(v)
	for i := o >> 6; i > lastIn>>6; i-- {
		if row[i]&bw[i] != 0 {
			return true
		}
	}
	return row[lastIn>>6]&bw[lastIn>>6]&^(2<<uint(lastIn&63)-1) != 0
}

// augment searches the residual split graph for a source→sink path and
// pushes one unit along it, reporting whether it found one. The search
// pops the most recently reached node first, and a v_out pushes its
// successors in ascending id order, so it heads for the sink along the
// highest successor. The search ends at the first v_out with an arc into
// the sink. onePass has already returned when an entry of back lies in
// the sink, so no source arc reaches it.
func (fs *flowScratch) augment(g *dfg.Graph, o, lastIn int, back *bitset.Set) bool {
	bw, inw := back.Words(), fs.visIn.Words()
	fs.visOut.Clear()
	stack := fs.stack[:0]
	end := int32(-1)
	// The source's arcs: the entries' v_in. This loop writes every word of
	// visIn, so it needs no clearing.
	for i, w := range g.EntrySet().Words() {
		m := w & bw[i]
		inw[i] = m
		for m != 0 {
			x := int32(i<<6+bits.TrailingZeros64(m)) << 1
			m &= m - 1
			fs.par[x] = -1
			stack = append(stack, x)
		}
	}
	for len(stack) > 0 {
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
		if sinkArc(g, v, o, lastIn, bw) {
			end = x
			break
		}
		// v_out: back through v's split arc if it carries flow, and on to
		// every unreached successor in back, none of them above lastIn.
		if !fs.visIn.Has(v) && fs.carries(v) {
			fs.visIn.Add(v)
			fs.par[x-1] = x
			stack = append(stack, x-1)
		}
		row := g.SuccRow(v)
		for i := v >> 6; i <= lastIn>>6; i++ {
			m := row[i] & bw[i] &^ inw[i]
			inw[i] |= m
			for m != 0 {
				y := int32(i<<6+bits.TrailingZeros64(m)) << 1
				m &= m - 1
				fs.par[y] = x
				stack = append(stack, y)
			}
		}
	}
	fs.stack = stack
	if end < 0 {
		return false
	}
	// Walk the path back from its last v_out. A step out→in between two
	// vertices is a forward arc and gains a unit; so does the source's
	// step, whose -1 reads as an out node of vertex -1 (arithmetic shift).
	// A step in→out between two vertices runs an arc backwards and cancels
	// a unit. A step between the two halves of one vertex changes only that
	// vertex's throughput, which the arcs into it already record.
	for y := end; ; {
		x := fs.par[y]
		if x>>1 != y>>1 {
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
