// Package dfg implements the data-flow graph substrate of polyise.
//
// A Graph represents the data flow of one basic block as a directed acyclic
// graph (paper §3). Root vertices (no predecessors) are the external inputs
// Iext; the set Oext of externally visible outputs is a superset of the
// vertices with no successors. User code marks forbidden vertices F (for
// example memory operations) that may never belong to a cut, although they
// may still feed one as inputs.
//
// After Freeze the graph becomes immutable and exposes the precomputed
// structures the enumeration algorithm relies on (§5.4): a topological
// order, full reachability in both directions as bitset matrices, per-node
// forbidden-predecessor masks, and the augmented rooted graph obtained by
// adding a virtual source (predecessor of every root and every forbidden
// vertex) and a virtual sink (successor of every Oext vertex).
package dfg

import (
	"errors"
	"fmt"
	"sync"

	"polyise/internal/bitset"
)

// Errors returned by graph construction and freezing.
var (
	ErrFrozen      = errors.New("dfg: graph is frozen")
	ErrNotFrozen   = errors.New("dfg: graph must be frozen first")
	ErrBadPred     = errors.New("dfg: predecessor does not exist")
	ErrEmptyGraph  = errors.New("dfg: graph has no nodes")
	ErrSelfEdge    = errors.New("dfg: self edge")
	ErrInvalidNode = errors.New("dfg: invalid node id")
)

// Graph is a basic-block data-flow graph. Create one with New, add nodes in
// any topological order with AddNode, then call Freeze before handing the
// graph to analyses. The zero value is not usable.
type Graph struct {
	ops   []Op
	names []string
	value []int64 // payload for OpConst nodes
	preds [][]int
	succs [][]int

	frozen bool

	forbUser map[int]bool // user-marked forbidden
	liveOut  map[int]bool // user-marked Oext members (beyond structural sinks)

	// Everything below is computed by Freeze.
	iext     *bitset.Set // roots
	oext     *bitset.Set // structural sinks ∪ liveOut
	forb     *bitset.Set // forbUser (Iext are additionally forbidden implicitly)
	topo     []int
	topoPos  []int
	depth    []int       // longest-path depth from any root (roots = 0)
	entries  []int       // Iext ∪ user-forbidden: the virtual source's successors
	entrySet *bitset.Set // the same, as a bitset

	// Flat bitset adjacency matrices for the word-parallel traversal engine
	// (traverse.go): row v of predBits/succBits holds v's predecessor/
	// successor set, stride words per row.
	stride   int
	predBits []uint64
	succBits []uint64

	// maxSucc[v] is v's highest successor id (-1 for sinks). With the
	// identity topological order it bounds the highest position any
	// masked-row scan of v's successors can return, so the running-max
	// dominator sweeps in package enum skip the scan entirely whenever
	// maxSucc[v] cannot beat the running maximum.
	maxSucc []int32

	augOnce sync.Once
	aug     *Aug

	// The reachability closures are O(n²) bits and only the cut analyses
	// read them, so they are built on first use (closures) instead of by
	// Freeze: a graph that is only executed, rewritten or serialised — a
	// collapsed block under the semantic oracle — never pays for them.
	closOnce sync.Once
	clos     closureRows
}

// closureRows are the reachability closures of a frozen graph, one row
// per node.
type closureRows struct {
	reachFrom []*bitset.Set // reachFrom[v]: u such that v→…→u, v excluded
	reachTo   []*bitset.Set // reachTo[w]: u such that u→…→w, w excluded
	ffReach   []*bitset.Set // like reachFrom, but paths may not cross F
	forbPred  []*bitset.Set // forbidden predecessors of each node
}

// New returns an empty, mutable graph.
func New() *Graph {
	return &Graph{}
}

// newSized returns an empty, mutable graph with room for n nodes, for
// rewrites that know the size of the graph they build.
func newSized(n int) *Graph {
	return &Graph{
		ops:   make([]Op, 0, n),
		names: make([]string, 0, n),
		value: make([]int64, 0, n),
		preds: make([][]int, 0, n),
		succs: make([][]int, 0, n),
	}
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.ops) }

// AddNode appends a node computing op from the given predecessor nodes and
// returns its id. Predecessors must already exist, which forces construction
// in a topological order and keeps the graph acyclic by construction.
func (g *Graph) AddNode(op Op, name string, preds ...int) (int, error) {
	if g.frozen {
		return -1, ErrFrozen
	}
	if !op.Valid() {
		return -1, fmt.Errorf("dfg: invalid op %d", op)
	}
	id := len(g.ops)
	for _, p := range preds {
		if p < 0 || p >= id {
			return -1, fmt.Errorf("%w: %d (adding node %d)", ErrBadPred, p, id)
		}
	}
	g.ops = append(g.ops, op)
	g.names = append(g.names, name)
	g.value = append(g.value, 0)
	ps := make([]int, len(preds))
	copy(ps, preds)
	g.preds = append(g.preds, ps)
	g.succs = append(g.succs, nil)
	for _, p := range ps {
		g.succs[p] = append(g.succs[p], id)
	}
	return id, nil
}

// MustAddNode is AddNode that panics on error; intended for tests and
// generators that construct graphs programmatically.
func (g *Graph) MustAddNode(op Op, name string, preds ...int) int {
	id, err := g.AddNode(op, name, preds...)
	if err != nil {
		panic(err)
	}
	return id
}

// SetConst stores the literal value of an OpConst node.
func (g *Graph) SetConst(v int, value int64) error {
	if err := g.check(v); err != nil {
		return err
	}
	if g.frozen {
		return ErrFrozen
	}
	g.value[v] = value
	return nil
}

// ConstValue returns the literal payload of node v.
func (g *Graph) ConstValue(v int) int64 { return g.value[v] }

// MarkForbidden adds v to the user forbidden set F.
func (g *Graph) MarkForbidden(v int) error {
	if g.frozen {
		return ErrFrozen
	}
	if err := g.check(v); err != nil {
		return err
	}
	if g.forbUser == nil {
		g.forbUser = make(map[int]bool)
	}
	g.forbUser[v] = true
	return nil
}

// MarkLiveOut marks v as externally visible (a member of Oext) even if it
// has successors inside the block.
func (g *Graph) MarkLiveOut(v int) error {
	if g.frozen {
		return ErrFrozen
	}
	if err := g.check(v); err != nil {
		return err
	}
	if g.liveOut == nil {
		g.liveOut = make(map[int]bool)
	}
	g.liveOut[v] = true
	return nil
}

func (g *Graph) check(v int) error {
	if v < 0 || v >= len(g.ops) {
		return fmt.Errorf("%w: %d", ErrInvalidNode, v)
	}
	return nil
}

// Freeze finalizes the graph: it derives Iext, Oext and F, computes the
// topological order, the reachability matrices, per-node forbidden
// predecessor masks and node depths. After Freeze the graph is immutable.
func (g *Graph) Freeze() error {
	if g.frozen {
		return nil
	}
	n := len(g.ops)
	if n == 0 {
		return ErrEmptyGraph
	}

	g.iext = bitset.New(n)
	g.oext = bitset.New(n)
	g.forb = bitset.New(n)
	for v := 0; v < n; v++ {
		if len(g.preds[v]) == 0 {
			g.iext.Add(v)
		}
		if len(g.succs[v]) == 0 {
			g.oext.Add(v)
		}
		if g.forbUser[v] {
			g.forb.Add(v)
		}
		// Calls are opaque and always forbidden by convention; so are
		// already-collapsed custom instructions and their result selectors.
		if g.ops[v] == OpCall || g.ops[v] == OpCustom || g.ops[v] == OpExtract {
			g.forb.Add(v)
		}
	}
	for v := range g.liveOut {
		g.oext.Add(v)
	}

	// Node ids are a topological order by construction: AddNode only accepts
	// already-existing predecessors, so every edge goes from a smaller id to
	// a larger one and the graph is acyclic. Freeze pins topo to the
	// identity permutation rather than deriving a fresh order, because the
	// traversal engine exploits id ≡ position: bit index i of an adjacency
	// row IS topological position i, so "highest successor position inside a
	// region" reduces to a highest-set-bit scan of one masked row — the
	// operation the incremental dominator sweeps of package enum are built
	// on (see analyzePaths and mandatoryInto there).
	g.topo = make([]int, n)
	g.topoPos = make([]int, n)
	for v := 0; v < n; v++ {
		g.topo[v] = v
		g.topoPos[v] = v
	}

	g.depth = make([]int, n)
	for _, v := range g.topo {
		d := 0
		for _, p := range g.preds[v] {
			if g.depth[p]+1 > d {
				d = g.depth[p] + 1
			}
		}
		g.depth[v] = d
	}

	// Successors of the augmented graph's virtual source (§3): every root
	// and every user-forbidden vertex. Traversals of the reduced graph all
	// start here, so the list is computed once instead of scanning all
	// vertices per traversal.
	g.entrySet = bitset.New(n)
	g.entrySet.Union(g.iext)
	g.entrySet.Union(g.forb)
	g.entries = g.entrySet.Members()

	// Adjacency rows as flat bit matrices, the substrate of the
	// word-parallel traversal kernels (§5.4: set operations on flat bit
	// matrices are what make the enumeration practical).
	g.stride = (n + 63) / 64
	g.predBits = make([]uint64, n*g.stride)
	g.succBits = make([]uint64, n*g.stride)
	g.maxSucc = make([]int32, n)
	for v := 0; v < n; v++ {
		prow := g.predBits[v*g.stride : (v+1)*g.stride]
		for _, p := range g.preds[v] {
			prow[p/64] |= 1 << uint(p%64)
		}
		srow := g.succBits[v*g.stride : (v+1)*g.stride]
		g.maxSucc[v] = -1
		for _, s := range g.succs[v] {
			srow[s/64] |= 1 << uint(s%64)
			if int32(s) > g.maxSucc[v] {
				g.maxSucc[v] = int32(s)
			}
		}
	}

	g.frozen = true
	return nil
}

// closures returns the reachability closures, building them on the first
// call. It panics on a graph that is not frozen.
func (g *Graph) closures() *closureRows {
	g.closOnce.Do(g.buildClosures)
	return &g.clos
}

// buildClosures computes the closures of a frozen graph. On a graph that
// is not frozen it panics before assigning anything, so the rows stay nil
// and every later lookup panics too instead of reading empty closures.
func (g *Graph) buildClosures() {
	if !g.frozen {
		panic(ErrNotFrozen)
	}
	n := len(g.ops)
	c := &g.clos

	// Reachability by dynamic programming over the topological order.
	c.reachFrom = bitset.NewRows(n, n)
	c.reachTo = bitset.NewRows(n, n)
	for i := n - 1; i >= 0; i-- {
		v := g.topo[i]
		for _, s := range g.succs[v] {
			c.reachFrom[v].Add(s)
			c.reachFrom[v].Union(c.reachFrom[s])
		}
	}
	for i := 0; i < n; i++ {
		w := g.topo[i]
		for _, p := range g.preds[w] {
			c.reachTo[w].Add(p)
			c.reachTo[w].Union(c.reachTo[p])
		}
	}

	// Forbidden-free reachability: paths whose interior avoids F. A path may
	// START at a forbidden vertex (forbidden vertices can feed a cut as
	// inputs), so propagation stops at forbidden vertices but still records
	// them as directly reachable.
	c.ffReach = bitset.NewRows(n, n)
	for i := n - 1; i >= 0; i-- {
		v := g.topo[i]
		for _, s := range g.succs[v] {
			c.ffReach[v].Add(s)
			if !g.forb.Has(s) {
				c.ffReach[v].Union(c.ffReach[s])
			}
		}
	}

	c.forbPred = bitset.NewRows(n, n)
	for v := 0; v < n; v++ {
		for _, p := range g.preds[v] {
			if g.forb.Has(p) {
				c.forbPred[v].Add(p)
			}
		}
	}
}

// MustFreeze calls Freeze and panics on error.
func (g *Graph) MustFreeze() *Graph {
	if err := g.Freeze(); err != nil {
		panic(err)
	}
	return g
}

// Frozen reports whether Freeze has completed.
func (g *Graph) Frozen() bool { return g.frozen }

// FootprintBytes estimates the resident memory of a frozen graph — the
// derived reachability closures and flat adjacency matrices, which are
// O(n²) bits and dwarf everything else on large blocks, plus the per-node
// slices. The estimate is what a cache charges against its byte budget; it
// deliberately excludes the lazily built Augmented() structures (their
// construction is budgeted by whoever triggers it) and allocator overhead.
func (g *Graph) FootprintBytes() int64 {
	const wordB = 8
	n := int64(len(g.ops))
	b := n * (1 /*ops*/ + 16 /*names header*/ + 8 /*value*/ + 2*24 /*preds,succs headers*/ + 3*8 /*topo,topoPos,depth,maxSucc≈*/)
	for v := range g.preds {
		b += int64(len(g.preds[v])+len(g.succs[v])) * 8
		b += int64(len(g.names[v]))
	}
	perSet := func(rows []*bitset.Set) {
		for _, s := range rows {
			if s != nil {
				b += int64(len(s.Words()))*wordB + 24
			}
		}
	}
	if g.frozen {
		// The four closure families, charged whether or not they are built
		// yet: any enumeration of the graph builds them.
		b += 4 * n * (int64(g.stride)*wordB + 24)
	}
	perSet([]*bitset.Set{g.iext, g.oext, g.forb, g.entrySet})
	b += int64(len(g.predBits)+len(g.succBits)) * wordB
	b += int64(len(g.entries)) * 8
	return b
}

// Op returns the operation of node v.
func (g *Graph) Op(v int) Op { return g.ops[v] }

// Name returns the (possibly empty) name of node v.
func (g *Graph) Name(v int) string { return g.names[v] }

// Preds returns the predecessor list of v. The caller must not modify it.
func (g *Graph) Preds(v int) []int { return g.preds[v] }

// Succs returns the successor list of v. The caller must not modify it.
func (g *Graph) Succs(v int) []int { return g.succs[v] }

// NumEdges returns the total number of edges.
func (g *Graph) NumEdges() int {
	e := 0
	for _, p := range g.preds {
		e += len(p)
	}
	return e
}

// IsRoot reports whether v is an external input (no predecessors).
func (g *Graph) IsRoot(v int) bool { return g.iext.Has(v) }

// IsLiveOut reports whether v belongs to Oext.
func (g *Graph) IsLiveOut(v int) bool { return g.oext.Has(v) }

// IsForbidden reports whether v may never be part of a cut. External inputs
// are implicitly forbidden (their values are computed outside the block).
func (g *Graph) IsForbidden(v int) bool { return g.forb.Has(v) || g.iext.Has(v) }

// IsUserForbidden reports whether v is in the explicit forbidden set F
// (user-marked or an opaque call), excluding the implicit Iext members.
func (g *Graph) IsUserForbidden(v int) bool { return g.forb.Has(v) }

// Roots returns Iext in ascending order.
func (g *Graph) Roots() []int { return g.iext.Members() }

// Oext returns the external output set in ascending order.
func (g *Graph) Oext() []int { return g.oext.Members() }

// Forbidden returns the explicit forbidden set F in ascending order.
func (g *Graph) Forbidden() []int { return g.forb.Members() }

// Entries returns the successors of the augmented graph's virtual source —
// Iext ∪ the user-forbidden set — in ascending order; read-only.
func (g *Graph) Entries() []int { return g.entries }

// EntrySet returns the same set as Entries as a bitset; read-only.
func (g *Graph) EntrySet() *bitset.Set { return g.entrySet }

// PredRow returns node v's predecessor set as a raw adjacency-matrix row;
// read-only. Available after Freeze.
func (g *Graph) PredRow(v int) []uint64 {
	return g.predBits[v*g.stride : (v+1)*g.stride]
}

// SuccRow returns node v's successor set as a raw adjacency-matrix row;
// read-only. Available after Freeze.
func (g *Graph) SuccRow(v int) []uint64 {
	return g.succBits[v*g.stride : (v+1)*g.stride]
}

// MaxSucc returns v's highest successor id, or -1 when v has no successors.
// Under the identity topological order this is also the highest position a
// successor of v can occupy, which lets region sweeps skip masked row scans
// that cannot change their running maximum. Available after Freeze.
func (g *Graph) MaxSucc(v int) int { return int(g.maxSucc[v]) }

// PredsIntersect reports whether any predecessor of v belongs to s, in one
// word-parallel pass over v's adjacency row.
func (g *Graph) PredsIntersect(v int, s *bitset.Set) bool {
	sw := s.Words()
	for i, w := range g.PredRow(v) {
		if w&sw[i] != 0 {
			return true
		}
	}
	return false
}

// SuccsIntersect reports whether any successor of v belongs to s.
func (g *Graph) SuccsIntersect(v int, s *bitset.Set) bool {
	sw := s.Words()
	for i, w := range g.SuccRow(v) {
		if w&sw[i] != 0 {
			return true
		}
	}
	return false
}

// ForbiddenSet returns the explicit forbidden set as a bitset; read-only.
func (g *Graph) ForbiddenSet() *bitset.Set { return g.forb }

// RootSet returns Iext as a bitset; read-only.
func (g *Graph) RootSet() *bitset.Set { return g.iext }

// OextSet returns Oext as a bitset; read-only.
func (g *Graph) OextSet() *bitset.Set { return g.oext }

// Topo returns a topological order of the nodes; read-only.
func (g *Graph) Topo() []int { return g.topo }

// TopoPos returns the position of v in the topological order.
func (g *Graph) TopoPos(v int) int { return g.topoPos[v] }

// Depth returns the longest-path distance of v from any root.
func (g *Graph) Depth(v int) int { return g.depth[v] }

// Reaches reports whether there is a non-empty path from v to w.
func (g *Graph) Reaches(v, w int) bool { return g.closures().reachFrom[v].Has(w) }

// ReachFrom returns the set of nodes reachable from v (v excluded);
// read-only.
func (g *Graph) ReachFrom(v int) *bitset.Set { return g.closures().reachFrom[v] }

// ReachTo returns the set of nodes that reach w (w excluded); read-only.
func (g *Graph) ReachTo(w int) *bitset.Set { return g.closures().reachTo[w] }

// ForbiddenPreds returns the forbidden predecessors of v as a bitset;
// read-only.
func (g *Graph) ForbiddenPreds(v int) *bitset.Set { return g.closures().forbPred[v] }

// HasForbiddenBetween reports whether some path v→…→w passes through a
// forbidden node strictly between v and w. Such (input, output) pairs can
// never appear together in a valid cut (§5.3, output–input pruning).
func (g *Graph) HasForbiddenBetween(v, w int) bool {
	if !g.Reaches(v, w) {
		return false
	}
	// interior(v,w) = reachFrom(v) ∩ reachTo(w); test intersection with F
	// without materializing: iterate words via IntersectionCount on a scratch
	// set would allocate, so walk forbidden members instead when F is small.
	f := g.forb
	if f.Empty() {
		return false
	}
	c := g.closures()
	rf := c.reachFrom[v]
	rt := c.reachTo[w]
	found := false
	f.ForEach(func(x int) bool {
		if rf.Has(x) && rt.Has(x) {
			found = true
			return false
		}
		return true
	})
	return found
}

// BetweenInto computes B(V, w) of definition 6 into dst: every node lying on
// a path from some v ∈ V to w, excluding the start vertices and including w
// itself. dst must have capacity N(). It returns dst for convenience.
func (g *Graph) BetweenInto(dst *bitset.Set, V []int, w int) *bitset.Set {
	dst.Clear()
	c := g.closures()
	any := false
	for _, v := range V {
		if c.reachFrom[v].Has(w) {
			dst.Union(c.reachFrom[v])
			any = true
		}
	}
	if !any {
		return dst
	}
	dst.Intersect(c.reachTo[w])
	dst.Add(w)
	// Exclude start vertices (a DAG has no self paths, but a start vertex can
	// lie between another start vertex and w).
	for _, v := range V {
		dst.Remove(v)
	}
	return dst
}

// BetweenSingleInto computes B({v}, w) into dst and returns it.
func (g *Graph) BetweenSingleInto(dst *bitset.Set, v, w int) *bitset.Set {
	dst.Clear()
	c := g.closures()
	if !c.reachFrom[v].Has(w) {
		return dst
	}
	dst.Copy(c.reachFrom[v])
	dst.Intersect(c.reachTo[w])
	dst.Add(w)
	return dst
}

// ReachesForbiddenFree reports whether a path v→…→w exists whose interior
// avoids every forbidden vertex (v itself may be forbidden — forbidden
// vertices are legal cut inputs). An input of a valid cut must reach each
// output it dominates along such a path, because everything after the input
// on its private path lies inside the cut (§5.3, output–input pruning).
func (g *Graph) ReachesForbiddenFree(v, w int) bool {
	return g.closures().ffReach[v].Has(w)
}
