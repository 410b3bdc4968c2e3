package enum

// Budget-feasibility pruning (PruneInfeasibleBudget). After choosing a set
// of seeds for the current output o, any dominator completion adds one
// input per surviving vertex-disjoint source→o path (Menger's theorem: a
// separator is at least as large as the maximum set of vertex-disjoint
// paths). Moreover, a completion that produces a *new* cut may not place an
// input on any vertex that lies on every path from an existing seed to o:
// blocking such a mandatory vertex leaves the seed without a private path,
// making it redundant — the identical cut is generated on the branch that
// never chose the seed. Mandatory vertices therefore get infinite capacity.
//
// If the resulting max-flow exceeds the remaining input budget, the entire
// seed-extension subtree is fruitless and is cut. This is the piece that
// keeps the figure 4 tree family tractable for the exact enumeration: a
// seed deep inside a subtree pins its whole root-ward spine as mandatory,
// and covering the remaining branches around that spine overflows any small
// Nin.

import (
	"math/bits"

	"polyise/internal/bitset"
	"polyise/internal/dfg"
)

// flowScratch holds the reusable state of the unit-vertex-capacity max-flow
// over the split graph (vertex v becomes v_in=2v, v_out=2v+1; the virtual
// source is node 2n, o_in is the sink).
type flowScratch struct {
	uncut   *bitset.Set // vertices with infinite capacity
	mandBuf *bitset.Set // scratch for mandatory-vertex sweeps
	fwd     *bitset.Set // scratch: reachable-from-seed region
	// Edmonds–Karp state over split nodes.
	adjHead []int32 // per split node, first edge index, -1 none
	adjNext []int32 // per edge, next edge index
	adjTo   []int32 // per edge, target split node
	adjCap  []int32 // per edge, residual capacity
	queue   []int32
	parent  []int32 // BFS tree: incoming edge index per split node
}

func (e *incEnum) flow() *flowScratch {
	if e.fs == nil {
		n := e.g.N()
		e.fs = &flowScratch{
			uncut:   bitset.New(n),
			mandBuf: bitset.New(n),
			fwd:     bitset.New(n),
			adjHead: make([]int32, 2*n+1),
			parent:  make([]int32, 2*n+1),
			queue:   make([]int32, 0, 2*n+1),
		}
	}
	return e.fs
}

const infCap = int32(1 << 30)

// mandatoryInto computes into dst the vertices (excluding v and o) lying on
// every v→o path that avoids the other chosen inputs, using the same
// running-max dominator sweep as analyzePaths but rooted at v. If no such
// path survives, dst is left empty (the caller's dead-seed check handles
// that).
func (e *incEnum) mandatoryInto(dst *bitset.Set, v, o int, back *bitset.Set) {
	dst.Clear()
	g := e.g
	fs := e.flow()
	// Region: reachable from v avoiding I, intersected with back (reaches o
	// avoiding I). back already excludes every chosen input, so it is the
	// closure's allowed set as-is; v seeds the closure unconditionally.
	fwd := fs.fwd
	fwd.Clear()
	fwd.Add(v)
	e.tr.ForwardClosure(fwd, back)
	if !fwd.Has(o) {
		return
	}
	// Running-max sweep with v as the only source: x lies on every v→o
	// region path iff no region vertex before it has a region successor
	// past it. Ids being the topological order (id ≡ position), the walk is
	// one ascending pass over the region words, with each vertex's highest
	// region successor a highest-set-bit scan of its masked row; v is the
	// region's minimum and o its maximum, so they bracket the walk.
	fw := fwd.Words()
	runMax := -1
	for wi, w := range fw {
		for w != 0 {
			x := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			if x == o {
				return
			}
			if x != v && runMax <= x {
				dst.Add(x)
			}
			if g.MaxSucc(x) > runMax {
				if p := dfg.HighestMaskedBit(g.SuccRow(x), fw); p > runMax {
					runMax = p
				}
			}
		}
	}
}

// flowBoundCanExceed reports whether completionFlowBound could possibly
// exceed flowCap, using two structural caps on the max-flow that cost one
// word-parallel pass each instead of building the residual graph. Every
// unit of flow passes the unit-capacity split edge of a distinct on-path
// entry (all augmenting paths start source→entry) and of a distinct
// on-path predecessor of o (they end pred→o), so the flow is bounded by
// either population count — unless a counted vertex is mandatory
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
// accumulated mandatory vertices (e.fs.uncut). flowCap bounds the search —
// the returned value saturates at flowCap+1.
func (e *incEnum) completionFlowBound(o int, onPath *bitset.Set, flowCap int) int {
	g := e.g
	fs := e.flow()
	n := g.N()
	src := int32(2 * n)
	sink := int32(2*o) + 0 // o_in: paths must *reach* o; o itself is not cut

	// Build the residual graph over the on-path region.
	for i := range fs.adjHead {
		fs.adjHead[i] = -1
	}
	fs.adjNext = fs.adjNext[:0]
	fs.adjTo = fs.adjTo[:0]
	fs.adjCap = fs.adjCap[:0]
	addEdge := func(a, b, cap int32) {
		fs.adjTo = append(fs.adjTo, b)
		fs.adjCap = append(fs.adjCap, cap)
		fs.adjNext = append(fs.adjNext, fs.adjHead[a])
		fs.adjHead[a] = int32(len(fs.adjTo) - 1)
		// reverse edge
		fs.adjTo = append(fs.adjTo, a)
		fs.adjCap = append(fs.adjCap, 0)
		fs.adjNext = append(fs.adjNext, fs.adjHead[b])
		fs.adjHead[b] = int32(len(fs.adjTo) - 1)
	}
	ow := onPath.Words()
	ew := g.EntrySet().Words()
	onPath.ForEach(func(v int) bool {
		vin, vout := int32(2*v), int32(2*v+1)
		cap := int32(1)
		if fs.uncut.Has(v) {
			cap = infCap
		}
		if v != o {
			addEdge(vin, vout, cap)
			// On-path successors via one masked pass over v's adjacency
			// row instead of a membership test per successor edge.
			for wi, r := range g.SuccRow(v) {
				m := r & ow[wi]
				for m != 0 {
					s := wi<<6 + bits.TrailingZeros64(m)
					m &= m - 1
					addEdge(vout, int32(2*s), infCap)
				}
			}
		}
		if ew[v>>6]&(1<<uint(v&63)) != 0 { // root or user-forbidden: source-fed
			addEdge(src, vin, infCap)
		}
		return true
	})

	// Edmonds–Karp, stopping once the flow exceeds flowCap.
	flow := 0
	for flow <= flowCap {
		// BFS for an augmenting path.
		for i := range fs.parent {
			fs.parent[i] = -1
		}
		fs.queue = fs.queue[:0]
		fs.queue = append(fs.queue, src)
		fs.parent[src] = -2
		found := false
		for qi := 0; qi < len(fs.queue) && !found; qi++ {
			x := fs.queue[qi]
			for ei := fs.adjHead[x]; ei >= 0; ei = fs.adjNext[ei] {
				if fs.adjCap[ei] <= 0 {
					continue
				}
				y := fs.adjTo[ei]
				if fs.parent[y] != -1 {
					continue
				}
				fs.parent[y] = ei
				if y == sink {
					found = true
					break
				}
				fs.queue = append(fs.queue, y)
			}
		}
		if !found {
			break
		}
		// Augment by 1 (all paths carry unit flow through some unit vertex;
		// pure-infinite paths mean the bound is unbounded — treat as 1 and
		// keep going until the cap saturates).
		for y := sink; fs.parent[y] != -2; {
			ei := fs.parent[y]
			fs.adjCap[ei]--
			fs.adjCap[ei^1]++
			y = fs.adjTo[int32(ei)^1]
		}
		flow++
	}
	return flow
}
