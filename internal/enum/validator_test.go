package enum

// Property tests keeping the word-parallel Validator honest against the
// scalar reference predicates retained on dfg.Graph, plus the allocation
// regression tests for the steady-state enumeration visit loop.

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"polyise/internal/bitset"
	"polyise/internal/dfg"
)

// randValGraph builds a random DAG with forbidden memory nodes and
// occasional extra live-outs, mirroring the external test package's randDFG
// (not importable from this internal test file).
func randValGraph(r *rand.Rand, n int) *dfg.Graph {
	g := dfg.New()
	for i := 0; i < n; i++ {
		if i == 0 || r.Intn(4) == 0 {
			g.MustAddNode(dfg.OpVar, "")
			continue
		}
		k := 1 + r.Intn(2)
		preds := make([]int, 0, k)
		for j := 0; j < k; j++ {
			preds = append(preds, r.Intn(i))
		}
		op := dfg.OpAdd
		if r.Intn(7) == 0 {
			op = dfg.OpLoad
		}
		id := g.MustAddNode(op, "", preds...)
		if op == dfg.OpLoad {
			if err := g.MarkForbidden(id); err != nil {
				panic(err)
			}
		}
		if r.Intn(10) == 0 {
			if err := g.MarkLiveOut(id); err != nil {
				panic(err)
			}
		}
	}
	g.MustFreeze()
	return g
}

// scalarValidate is the pre-engine Validate, written against the scalar
// reference predicates on dfg.Graph.
func scalarValidate(g *dfg.Graph, opt Options, S *bitset.Set, cut *Cut) bool {
	if S.Empty() {
		return false
	}
	if S.Intersects(g.ForbiddenSet()) || S.Intersects(g.RootSet()) {
		return false
	}
	ins := bitset.New(g.N())
	g.InputsInto(ins, S)
	if ins.Count() > opt.MaxInputs {
		return false
	}
	outs := bitset.New(g.N())
	g.OutputsInto(outs, S)
	if outs.Count() > opt.MaxOutputs {
		return false
	}
	if !g.IsConvex(S) {
		return false
	}
	if !g.TechnicalConditionHolds(S) {
		return false
	}
	if opt.ConnectedOnly && !g.IsConnectedCut(S) {
		return false
	}
	if opt.MaxDepth > 0 && scalarInternalDepth(g, S) > opt.MaxDepth {
		return false
	}
	if cut != nil {
		cut.Nodes = S
		cut.Inputs = ins.Members()
		cut.Outputs = outs.Members()
	}
	return true
}

func scalarInternalDepth(g *dfg.Graph, S *bitset.Set) int {
	depth := make(map[int]int, S.Count())
	max := 0
	for v := 0; v < g.N(); v++ {
		if !S.Has(v) {
			continue
		}
		d := 0
		for _, p := range g.Preds(v) {
			if S.Has(p) {
				if dp := depth[p] + 1; dp > d {
					d = dp
				}
			}
		}
		depth[v] = d
		if d > max {
			max = d
		}
	}
	return max
}

func TestValidatorMatchesScalarReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randValGraph(r, 2+r.Intn(80))
		n := g.N()
		opt := DefaultOptions()
		opt.KeepCuts = false
		opt.MaxInputs = 1 + r.Intn(5)
		opt.MaxOutputs = 1 + r.Intn(3)
		opt.ConnectedOnly = r.Intn(2) == 0
		opt.MaxDepth = r.Intn(4) // 0 disables the restriction
		val := NewValidator(g, opt)
		S := bitset.New(n)
		for trial := 0; trial < 20; trial++ {
			S.Clear()
			for v := 0; v < n; v++ {
				if r.Intn(3) == 0 {
					S.Add(v)
				}
			}
			var got, want Cut
			gotOK := val.Validate(S, &got)
			wantOK := scalarValidate(g, opt, S, &want)
			if gotOK != wantOK {
				t.Logf("seed=%d S=%v got %v want %v (opt=%+v)", seed, S, gotOK, wantOK, opt)
				return false
			}
			if gotOK {
				if !reflect.DeepEqual(got.Inputs, want.Inputs) ||
					!reflect.DeepEqual(got.Outputs, want.Outputs) {
					t.Logf("seed=%d S=%v io mismatch: %v vs %v", seed, S, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestValidatorCutsAreCutNodeSets drives the validator with the candidate
// sets the enumeration actually produces (CutNodesInto results), not just
// uniform-random subsets, so the agreement test covers the distribution the
// hot path sees.
func TestValidatorMatchesScalarOnEnumCandidates(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randValGraph(r, 2+r.Intn(60))
		n := g.N()
		opt := DefaultOptions()
		opt.KeepCuts = false
		opt.ConnectedOnly = r.Intn(2) == 0
		val := NewValidator(g, opt)
		tr := g.NewTraverser()
		S := bitset.New(n)
		avoid := bitset.New(n)
		for trial := 0; trial < 15; trial++ {
			avoid.Clear()
			for v := 0; v < n; v++ {
				if r.Intn(5) == 0 {
					avoid.Add(v)
				}
			}
			outs := []int{r.Intn(n)}
			if r.Intn(2) == 0 {
				outs = append(outs, r.Intn(n))
			}
			tr.CutNodesInto(S, outs, avoid)
			if val.Validate(S, nil) != scalarValidate(g, opt, S, nil) {
				t.Logf("seed=%d outs=%v avoid=%v S=%v", seed, outs, avoid, S)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestValidateZeroAlloc pins the allocation contract of the per-candidate
// validation: with KeepCuts off, a warmed validator must not allocate.
func TestValidateZeroAlloc(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	g := randValGraph(r, 120)
	opt := DefaultOptions()
	opt.KeepCuts = false
	opt.ConnectedOnly = true // exercise every predicate
	val := NewValidator(g, opt)
	tr := g.NewTraverser()
	n := g.N()
	S := bitset.New(n)
	avoid := bitset.New(n)
	var cut Cut
	// Warm: one pass grows the members scratch.
	tr.CutNodesInto(S, []int{n - 1}, avoid)
	val.Validate(S, &cut)
	allocs := testing.AllocsPerRun(100, func() {
		for o := n - 5; o < n; o++ {
			tr.CutNodesInto(S, []int{o}, avoid)
			val.Validate(S, &cut)
		}
	})
	if allocs != 0 {
		t.Fatalf("Validate allocated %.1f times per run, want 0", allocs)
	}
}

// TestEnumerateSteadyStateAllocs pins the steady-state behaviour of the
// whole visit loop: after a warm-up enumeration on the same worker (scratch
// buffers and per-depth snapshots all grown), re-running every top-level
// subtree — the depth-0 range [pos, pos+1) every run loop enters — must
// allocate nothing.
func TestEnumerateSteadyStateAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	g := randValGraph(r, 100)
	opt := DefaultOptions()
	opt.KeepCuts = false
	sh := newEnumShared(g, opt)
	e := sh.newWorker(func(Cut) bool { return true }, nil)
	run := func() {
		for pos := 0; pos < g.N(); pos++ {
			e.pickOutputRange(0, pos, pos+1, opt.MaxInputs, opt.MaxOutputs)
		}
	}
	run() // warm-up: grows all scratch state
	allocs := testing.AllocsPerRun(3, run)
	if allocs > 0 {
		t.Fatalf("steady-state visit loop allocated %.1f times per run, want 0", allocs)
	}
}
