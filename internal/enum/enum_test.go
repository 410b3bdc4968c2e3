package enum_test

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"polyise/internal/baseline"
	"polyise/internal/bitset"
	"polyise/internal/dfg"
	"polyise/internal/enum"
)

// ladder is the shared reference graph:
//
//	a(0)  b(1)  c(2)    roots
//	  \   / \   /
//	   d(3)  e(4)
//	    \   / \
//	     f(5)  g(6)
//	      \   /
//	       h(7)
func ladder(t testing.TB) *dfg.Graph {
	t.Helper()
	g := dfg.New()
	a := g.MustAddNode(dfg.OpVar, "a")
	b := g.MustAddNode(dfg.OpVar, "b")
	c := g.MustAddNode(dfg.OpVar, "c")
	d := g.MustAddNode(dfg.OpAdd, "d", a, b)
	e := g.MustAddNode(dfg.OpMul, "e", b, c)
	f := g.MustAddNode(dfg.OpSub, "f", d, e)
	gg := g.MustAddNode(dfg.OpXor, "g", e)
	h := g.MustAddNode(dfg.OpOr, "h", f, gg)
	_, _ = gg, h
	g.MustFreeze()
	return g
}

func signatures(cuts []enum.Cut) []string {
	out := make([]string, len(cuts))
	for i, c := range cuts {
		out[i] = c.Nodes.Signature()
	}
	return out
}

// checkAgainstBrute compares an enumeration against the brute-force oracle.
func checkAgainstBrute(t *testing.T, g *dfg.Graph, opt enum.Options) {
	t.Helper()
	want, _ := baseline.CollectBrute(g, opt)
	got, stats := enum.CollectAll(g, opt)
	if !reflect.DeepEqual(signatures(got), signatures(want)) {
		t.Fatalf("enum/brute mismatch (opt=%+v):\n got  %d cuts %v\n want %d cuts %v\n stats %+v",
			opt, len(got), cutStrings(got), len(want), cutStrings(want), stats)
	}
}

func cutStrings(cuts []enum.Cut) []string {
	out := make([]string, len(cuts))
	for i, c := range cuts {
		out[i] = c.String()
	}
	return out
}

func TestLadderAgainstBrute(t *testing.T) {
	g := ladder(t)
	for _, opt := range []enum.Options{
		enum.DefaultOptions(),
		withIO(enum.DefaultOptions(), 2, 1),
		withIO(enum.DefaultOptions(), 3, 2),
		withIO(enum.DefaultOptions(), 4, 3),
	} {
		checkAgainstBrute(t, g, opt)
	}
}

func withIO(opt enum.Options, nin, nout int) enum.Options {
	opt.MaxInputs = nin
	opt.MaxOutputs = nout
	return opt
}

func TestLadderKnownCuts(t *testing.T) {
	g := ladder(t)
	opt := withIO(enum.DefaultOptions(), 4, 2)
	cuts, _ := enum.CollectAll(g, opt)
	bySig := map[string]enum.Cut{}
	for _, c := range cuts {
		bySig[c.Nodes.Signature()] = c
	}
	// {f, g}: inputs {d, e}, outputs {f, g}.
	fg := bitset.FromMembers(g.N(), 5, 6)
	c, ok := bySig[fg.Signature()]
	if !ok {
		t.Fatal("cut {f,g} not enumerated")
	}
	if !reflect.DeepEqual(c.Inputs, []int{3, 4}) || !reflect.DeepEqual(c.Outputs, []int{5, 6}) {
		t.Fatalf("cut {f,g} IO wrong: %v", c)
	}
	// The whole computable block {d,e,f,g,h}: 3 inputs, 1 output.
	all := bitset.FromMembers(g.N(), 3, 4, 5, 6, 7)
	if _, ok := bySig[all.Signature()]; !ok {
		t.Fatal("whole-block cut not enumerated")
	}
	// Singletons are valid 2-input cuts.
	for _, v := range []int{3, 4, 5, 6, 7} {
		if _, ok := bySig[bitset.FromMembers(g.N(), v).Signature()]; !ok {
			t.Fatalf("singleton {%d} not enumerated", v)
		}
	}
}

func TestForbiddenNodesExcluded(t *testing.T) {
	g := dfg.New()
	a := g.MustAddNode(dfg.OpVar, "a")
	ld := g.MustAddNode(dfg.OpLoad, "ld", a)
	x := g.MustAddNode(dfg.OpAdd, "x", ld, a)
	y := g.MustAddNode(dfg.OpMul, "y", x, ld)
	_ = y
	if err := g.MarkForbidden(ld); err != nil {
		t.Fatal(err)
	}
	g.MustFreeze()
	opt := enum.DefaultOptions()
	cuts, _ := enum.CollectAll(g, opt)
	for _, c := range cuts {
		if c.Nodes.Has(ld) {
			t.Fatalf("forbidden load inside cut %v", c)
		}
	}
	// The load must still appear as an input of cuts containing y.
	foundLdInput := false
	for _, c := range cuts {
		if c.Nodes.Has(y) {
			for _, in := range c.Inputs {
				if in == ld {
					foundLdInput = true
				}
			}
		}
	}
	if !foundLdInput {
		t.Fatal("forbidden node never used as an input")
	}
	checkAgainstBrute(t, g, opt)
}

func TestBasicMatchesIncremental(t *testing.T) {
	g := ladder(t)
	for _, opt := range []enum.Options{
		withIO(enum.DefaultOptions(), 2, 1),
		withIO(enum.DefaultOptions(), 4, 2),
	} {
		inc, _ := enum.CollectAll(g, opt)
		bas, _ := enum.CollectBasic(g, opt)
		if !reflect.DeepEqual(signatures(inc), signatures(bas)) {
			t.Fatalf("basic/incremental mismatch:\n inc %v\n bas %v",
				cutStrings(inc), cutStrings(bas))
		}
	}
}

func TestPrunedSearchMatchesBrute(t *testing.T) {
	g := ladder(t)
	for _, opt := range []enum.Options{
		withIO(enum.DefaultOptions(), 2, 1),
		withIO(enum.DefaultOptions(), 4, 2),
	} {
		want, _ := baseline.CollectBrute(g, opt)
		got, _ := baseline.CollectPruned(g, opt)
		if !reflect.DeepEqual(signatures(got), signatures(want)) {
			t.Fatalf("pruned/brute mismatch:\n got  %v\n want %v",
				cutStrings(got), cutStrings(want))
		}
	}
}

func TestConnectedOnly(t *testing.T) {
	// Two independent chains: x→p, y→q. {p,q} is a valid 2-output cut but
	// not connected.
	g := dfg.New()
	x := g.MustAddNode(dfg.OpVar, "x")
	y := g.MustAddNode(dfg.OpVar, "y")
	p := g.MustAddNode(dfg.OpAdd, "p", x, x)
	q := g.MustAddNode(dfg.OpMul, "q", y, y)
	g.MustFreeze()

	opt := withIO(enum.DefaultOptions(), 4, 2)
	cuts, _ := enum.CollectAll(g, opt)
	pq := bitset.FromMembers(g.N(), p, q)
	if !hasSig(cuts, pq.Signature()) {
		t.Fatal("disconnected cut missing without ConnectedOnly")
	}

	opt.ConnectedOnly = true
	cuts, _ = enum.CollectAll(g, opt)
	if hasSig(cuts, pq.Signature()) {
		t.Fatal("disconnected cut present with ConnectedOnly")
	}
	if !hasSig(cuts, bitset.FromMembers(g.N(), p).Signature()) {
		t.Fatal("singleton missing with ConnectedOnly")
	}
	checkAgainstBrute(t, g, opt)
}

func TestMaxDepth(t *testing.T) {
	// Chain a→b→c→d→e: with MaxDepth 1 only cuts of ≤ 2 chained nodes
	// survive.
	g := dfg.New()
	a := g.MustAddNode(dfg.OpVar, "a")
	b := g.MustAddNode(dfg.OpNot, "b", a)
	c := g.MustAddNode(dfg.OpNeg, "c", b)
	d := g.MustAddNode(dfg.OpAbs, "d", c)
	e := g.MustAddNode(dfg.OpNot, "e", d)
	_ = e
	g.MustFreeze()
	opt := withIO(enum.DefaultOptions(), 4, 2)
	opt.MaxDepth = 1
	cuts, _ := enum.CollectAll(g, opt)
	for _, cut := range cuts {
		if cut.Nodes.Count() > 2 {
			t.Fatalf("cut %v too deep for MaxDepth=1", cut)
		}
	}
	checkAgainstBrute(t, g, opt)
}

func TestEarlyStop(t *testing.T) {
	g := ladder(t)
	n := 0
	enum.Enumerate(g, enum.DefaultOptions(), func(enum.Cut) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("visitor called %d times, want 3", n)
	}
}

func TestStatsSanity(t *testing.T) {
	g := ladder(t)
	_, stats := enum.CollectAll(g, enum.DefaultOptions())
	if stats.Valid == 0 || stats.Candidates < stats.Valid {
		t.Fatalf("implausible stats %+v", stats)
	}
	if stats.LTRuns == 0 {
		t.Fatal("no Lengauer–Tarjan runs recorded")
	}
}

// randDFG builds a random DAG with forbidden memory nodes and occasional
// extra live-outs — the adversarial instance family for cross-validation.
func randDFG(r *rand.Rand, n int) *dfg.Graph {
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

func TestQuickIncrementalMatchesBrute(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randDFG(r, 4+r.Intn(11))
		opt := enum.DefaultOptions()
		opt.MaxInputs = 1 + r.Intn(4)
		opt.MaxOutputs = 1 + r.Intn(3)
		if r.Intn(4) == 0 {
			opt.ConnectedOnly = true
		}
		want, _ := baseline.CollectBrute(g, opt)
		got, _ := enum.CollectAll(g, opt)
		if !reflect.DeepEqual(signatures(got), signatures(want)) {
			t.Logf("seed=%d opt=%+v\n got  %v\n want %v",
				seed, opt, cutStrings(got), cutStrings(want))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPrunedMatchesBrute(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randDFG(r, 4+r.Intn(11))
		opt := enum.DefaultOptions()
		opt.MaxInputs = 1 + r.Intn(4)
		opt.MaxOutputs = 1 + r.Intn(3)
		want, _ := baseline.CollectBrute(g, opt)
		got, _ := baseline.CollectPruned(g, opt)
		if !reflect.DeepEqual(signatures(got), signatures(want)) {
			t.Logf("seed=%d opt=%+v\n got  %v\n want %v",
				seed, opt, cutStrings(got), cutStrings(want))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBasicMatchesBrute(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randDFG(r, 4+r.Intn(8))
		opt := enum.DefaultOptions()
		opt.MaxInputs = 1 + r.Intn(3)
		opt.MaxOutputs = 1 + r.Intn(2)
		want, _ := baseline.CollectBrute(g, opt)
		got, _ := enum.CollectBasic(g, opt)
		if !reflect.DeepEqual(signatures(got), signatures(want)) {
			t.Logf("seed=%d opt=%+v\n got  %v\n want %v",
				seed, opt, cutStrings(got), cutStrings(want))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestDominatorInputPruningIsSubset documents the deliberate deviation from
// §5.3: the paper's "simplified" dominator–input test, implemented
// literally, can lose cuts (which is why it is off by default). It must
// still never invent cuts.
func TestDominatorInputPruningIsSubset(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randDFG(r, 4+r.Intn(10))
		base := enum.DefaultOptions()
		base.MaxInputs = 1 + r.Intn(4)
		base.MaxOutputs = 1 + r.Intn(2)
		exact, _ := enum.CollectAll(g, base)
		pruned := base
		pruned.PruneDominatorInput = true
		approx, _ := enum.CollectAll(g, pruned)
		want := map[string]bool{}
		for _, c := range exact {
			want[c.Nodes.Signature()] = true
		}
		for _, c := range approx {
			if !want[c.Nodes.Signature()] {
				t.Logf("seed=%d invented cut %v", seed, c)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestDominatorInputPruningLosesKnownCut pins the concrete counterexample:
// in the ladder, seed g(6) for output h(7) succeeds first; seed f(5) is not
// an ancestor of g, so the literal rule skips it and the cut {g,h} with
// inputs {e,f} is lost.
func TestDominatorInputPruningLosesKnownCut(t *testing.T) {
	g := ladder(t)
	opt := withIO(enum.DefaultOptions(), 4, 2)
	opt.PruneDominatorInput = true
	cuts, _ := enum.CollectAll(g, opt)
	gh := bitset.FromMembers(g.N(), 6, 7)
	if hasSig(cuts, gh.Signature()) {
		t.Skip("pruned search found {g,h} after all; counterexample no longer applies")
	}
	exact, _ := enum.CollectAll(g, withIO(enum.DefaultOptions(), 4, 2))
	if !hasSig(exact, gh.Signature()) {
		t.Fatal("exact enumeration must contain {g,h}")
	}
}

// TestPaperModeIsSubsetWithHighRecall: the paper-mode approximate prunings
// (forbidden-ancestor exclusion + simplified dominator–input) may only drop
// cuts, never invent them, and on random blocks the loss stays small.
func TestPaperModeIsSubsetWithHighRecall(t *testing.T) {
	totalExact, totalApprox := 0, 0
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := randDFG(r, 8+r.Intn(12))
		exact, _ := enum.CollectAll(g, enum.DefaultOptions())
		approx, _ := enum.CollectAll(g, enum.PaperOptions())
		want := map[string]bool{}
		for _, c := range exact {
			want[c.Nodes.Signature()] = true
		}
		for _, c := range approx {
			if !want[c.Nodes.Signature()] {
				t.Fatalf("seed=%d: paper mode invented cut %v", seed, c)
			}
		}
		totalExact += len(exact)
		totalApprox += len(approx)
	}
	if totalExact == 0 {
		t.Fatal("no cuts at all")
	}
	recall := float64(totalApprox) / float64(totalExact)
	t.Logf("paper-mode recall over 40 random blocks: %d/%d = %.3f",
		totalApprox, totalExact, recall)
	if recall < 0.85 {
		t.Fatalf("paper-mode recall %.3f implausibly low", recall)
	}
}

func hasSig(cuts []enum.Cut, sig string) bool {
	for _, c := range cuts {
		if c.Nodes.Signature() == sig {
			return true
		}
	}
	return false
}
