package ise

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"polyise/internal/bitset"
	"polyise/internal/dfg"
	"polyise/internal/enum"
	"polyise/internal/workload"
)

// mac builds a multiply-accumulate chain: acc = a*b + c*d + e.
func mac(t testing.TB) *dfg.Graph {
	t.Helper()
	g := dfg.New()
	a := g.MustAddNode(dfg.OpVar, "a")
	b := g.MustAddNode(dfg.OpVar, "b")
	c := g.MustAddNode(dfg.OpVar, "c")
	d := g.MustAddNode(dfg.OpVar, "d")
	e := g.MustAddNode(dfg.OpVar, "e")
	m1 := g.MustAddNode(dfg.OpMul, "m1", a, b)
	m2 := g.MustAddNode(dfg.OpMul, "m2", c, d)
	s1 := g.MustAddNode(dfg.OpAdd, "s1", m1, m2)
	s2 := g.MustAddNode(dfg.OpAdd, "s2", s1, e)
	_ = s2
	g.MustFreeze()
	return g
}

func cutOf(g *dfg.Graph, nodes ...int) enum.Cut {
	S := bitset.FromMembers(g.N(), nodes...)
	return enum.Cut{
		Nodes:   S,
		Inputs:  g.Inputs(S),
		Outputs: g.Outputs(S),
	}
}

func TestEstimateMAC(t *testing.T) {
	g := mac(t)
	est := NewEstimator(g, DefaultModel())
	// Whole computation {m1,m2,s1,s2}: SW = 3+3+1+1 = 8.
	// HW critical path: mul (0.9) + add (0.3) + add (0.3) = 1.5 → ceil 2.
	// 5 inputs → 3 extra input cycles. HW = 5. Saving = 3.
	e := est.Estimate(cutOf(g, 5, 6, 7, 8))
	if e.SWCycles != 8 {
		t.Errorf("SWCycles = %d, want 8", e.SWCycles)
	}
	if e.HWCycles != 5 {
		t.Errorf("HWCycles = %d, want 5", e.HWCycles)
	}
	if e.Saving != 3 {
		t.Errorf("Saving = %d, want 3", e.Saving)
	}
	// Single add: SW 1, HW 1, saving 0.
	e = est.Estimate(cutOf(g, 8))
	if e.Saving != 0 {
		t.Errorf("single add saving = %d, want 0", e.Saving)
	}
	// The two multiplies plus first add {m1,m2,s1}: SW 7, path 0.9+0.3 → 2,
	// 4 inputs → +2, HW 4, saving 3.
	e = est.Estimate(cutOf(g, 5, 6, 7))
	if e.SWCycles != 7 || e.HWCycles != 4 || e.Saving != 3 {
		t.Errorf("mac3 estimate = %+v", e)
	}
}

func TestBlockCycles(t *testing.T) {
	g := mac(t)
	est := NewEstimator(g, DefaultModel())
	// 5 vars (0 cycles) + 2 muls (3) + 2 adds (1) = 8.
	if got := est.BlockCycles(); got != 8 {
		t.Fatalf("BlockCycles = %d, want 8", got)
	}
}

func TestEstimateEmptyAndAreaAccumulation(t *testing.T) {
	g := mac(t)
	est := NewEstimator(g, DefaultModel())
	e := est.Estimate(cutOf(g, 5, 6))
	wantArea := 16.0 // two multipliers
	if e.Area != wantArea {
		t.Errorf("area = %v, want %v", e.Area, wantArea)
	}
	if !e.Overlaps(est.Estimate(cutOf(g, 6, 7))) {
		t.Error("overlapping cuts not detected")
	}
	if e.Overlaps(est.Estimate(cutOf(g, 8))) {
		t.Error("disjoint cuts reported overlapping")
	}
}

func TestSelectGreedyNonOverlapping(t *testing.T) {
	g := mac(t)
	cuts, _ := enum.CollectAll(g, enum.DefaultOptions())
	sel := Select(g, DefaultModel(), cuts, DefaultSelectOptions())
	if len(sel.Chosen) == 0 {
		t.Fatal("nothing selected")
	}
	used := bitset.New(g.N())
	for _, c := range sel.Chosen {
		if used.Intersects(c.Cut.Nodes) {
			t.Fatal("selected instructions overlap")
		}
		used.Union(c.Cut.Nodes)
		if c.Saving <= 0 {
			t.Fatal("selected a non-saving instruction")
		}
	}
	if sel.Speedup() <= 1.0 {
		t.Fatalf("speedup = %v, want > 1", sel.Speedup())
	}
	if sel.BlockCyclesBefore != 8 {
		t.Fatalf("before = %d, want 8", sel.BlockCyclesBefore)
	}
}

func TestSelectRespectsBudgets(t *testing.T) {
	g := mac(t)
	cuts, _ := enum.CollectAll(g, enum.DefaultOptions())
	opt := DefaultSelectOptions()
	opt.MaxInstructions = 1
	sel := Select(g, DefaultModel(), cuts, opt)
	if len(sel.Chosen) > 1 {
		t.Fatalf("chose %d instructions, budget 1", len(sel.Chosen))
	}
	opt = DefaultSelectOptions()
	opt.AreaBudget = 0.5 // too small for any multiplier
	sel = Select(g, DefaultModel(), cuts, opt)
	for _, c := range sel.Chosen {
		if c.Area > 0.5 {
			t.Fatalf("area budget violated: %v", c)
		}
	}
}

func TestExactMatchesOrBeatsGreedy(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := workload.MiBenchLike(r, 12+r.Intn(20), workload.DefaultProfile())
		cuts, _ := enum.CollectAll(g, enum.DefaultOptions())
		if len(cuts) == 0 {
			return true
		}
		// Bound candidate count so exact stays fast.
		if len(cuts) > 18 {
			cuts = cuts[:18]
		}
		greedy := Select(g, DefaultModel(), cuts, DefaultSelectOptions())
		exopt := DefaultSelectOptions()
		exopt.Exact = true
		exopt.ExactLimit = 18
		exact := Select(g, DefaultModel(), cuts, exopt)
		gSave := greedy.BlockCyclesBefore - greedy.BlockCyclesAfter
		eSave := exact.BlockCyclesBefore - exact.BlockCyclesAfter
		if eSave < gSave {
			t.Logf("seed=%d exact %d < greedy %d", seed, eSave, gSave)
			return false
		}
		// Exact selection must also be non-overlapping.
		used := bitset.New(g.N())
		for _, c := range exact.Chosen {
			if used.Intersects(c.Cut.Nodes) {
				return false
			}
			used.Union(c.Cut.Nodes)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestIdentifyEndToEnd(t *testing.T) {
	g := mac(t)
	sel := Identify(g, enum.DefaultOptions(), DefaultModel(), DefaultSelectOptions())
	if sel.Speedup() < 1.5 {
		t.Fatalf("MAC speedup = %v, expected ≥ 1.5", sel.Speedup())
	}
}

func TestSpeedupDegenerate(t *testing.T) {
	s := Selection{BlockCyclesBefore: 10, BlockCyclesAfter: 0}
	if s.Speedup() != 1 {
		t.Fatal("degenerate speedup should be 1")
	}
}

// refEstimate is the map-based scorer Estimate replaced: every vertex of
// the graph visited, a fresh depth map per cut. It returns the software
// cycles, the critical path and the area.
func refEstimate(g *dfg.Graph, m Model, c enum.Cut) (sw int, path, area float64) {
	depth := map[int]float64{}
	est := NewEstimator(g, m)
	for v := 0; v < g.N(); v++ {
		if !c.Nodes.Has(v) {
			continue
		}
		sw += est.swCycles(v)
		area += m.Cost(g.Op(v)).Area
		d := 0.0
		for _, p := range g.Preds(v) {
			if c.Nodes.Has(p) && depth[p] > d {
				d = depth[p]
			}
		}
		d += m.Cost(g.Op(v)).HWDelay
		depth[v] = d
		path = max(path, d)
	}
	return sw, path, area
}

// TestEstimateMatchesReference scores every cut of two blocks with one
// Estimator, in enumeration order, so each call finds the depth entries of
// the cuts before it, and compares with the map-based reference.
func TestEstimateMatchesReference(t *testing.T) {
	m := DefaultModel()
	for _, g := range []*dfg.Graph{
		workload.MiBenchLike(rand.New(rand.NewSource(40)), 40, workload.DefaultProfile()),
		workload.Tree(4, 2),
	} {
		est := NewEstimator(g, m)
		cuts, _ := enum.CollectAll(g, enum.DefaultOptions())
		for _, c := range cuts {
			got := est.Estimate(c)
			sw, path, area := refEstimate(g, m, c)
			hw := max(int(math.Ceil(path))+max(len(c.Inputs)-2, 0)+max(len(c.Outputs)-1, 0), 1)
			if got.SWCycles != sw || got.HWCycles != hw || got.Saving != sw-hw || got.Area != area {
				t.Fatalf("cut %v: %+v, reference sw %d hw %d area %v", c.Nodes, got, sw, hw, area)
			}
		}
	}
}

// TestEstimateZeroAlloc pins that scoring a cut allocates nothing: the
// critical-path depths live in the Estimator's reused array.
func TestEstimateZeroAlloc(t *testing.T) {
	g := workload.MiBenchLike(rand.New(rand.NewSource(40)), 40, workload.DefaultProfile())
	cuts, _ := enum.CollectAll(g, enum.DefaultOptions())
	if len(cuts) == 0 {
		t.Fatal("no cuts")
	}
	est := NewEstimator(g, DefaultModel())
	sink := 0
	if allocs := testing.AllocsPerRun(20, func() {
		for _, c := range cuts {
			sink += est.Estimate(c).Saving
		}
	}); allocs != 0 {
		t.Fatalf("Estimate allocated %.1f times per pass over %d cuts, want 0", allocs, len(cuts))
	}
	_ = sink
}
