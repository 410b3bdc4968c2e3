package semoracle

import (
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"polyise/internal/bitset"
	"polyise/internal/dfg"
	"polyise/internal/enum"
	"polyise/internal/ise"
	"polyise/internal/workload"
)

// oracleBudget is the wall-clock budget of one cut-semantics sweep on the
// mid-size gap instances. The default keeps plain `go test` fast and makes
// a budget overrun an explicit skip (inconclusive), never a hidden pass;
// `make semoracle` raises it via POLYISE_ORACLE_BUDGET so the full corpus
// completes with a verdict.
func oracleBudget(t *testing.T) time.Duration {
	if s := os.Getenv("POLYISE_ORACLE_BUDGET"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil {
			t.Fatalf("POLYISE_ORACLE_BUDGET: %v", err)
		}
		return d
	}
	return 3 * time.Second
}

// checkCuts runs one sweep and fails on any verdict-carrying disagreement;
// a budgeted early stop is an explicit skip.
func checkCuts(t *testing.T, name string, g *dfg.Graph, cfg CutConfig) CutReport {
	t.Helper()
	rep := CheckCuts(name, g, cfg)
	t.Log(rep.String())
	if rep.Err != nil {
		t.Fatalf("%s: %v", name, rep.Err)
	}
	if rep.Stopped() {
		t.Skipf("%s: stopped early (%v) after %d cuts — inconclusive (raise POLYISE_ORACLE_BUDGET or use `make semoracle`)",
			name, rep.Stop, rep.Cuts)
	}
	if !rep.Agree() {
		t.Fatalf("%s: semantics diverged:\n%s", name, rep.String())
	}
	return rep
}

// TestCutOracleOnSelectionCorpus certifies every cut of every selection-
// corpus instance, including the memory-edge instances where collapsing
// must preserve load/store ordering against a seeded memory image. These
// instances are small; the sweep always completes.
func TestCutOracleOnSelectionCorpus(t *testing.T) {
	sawMemory := false
	for _, b := range workload.SelectionCorpus() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			rep := checkCuts(t, b.Name, b.G, CutConfig{Seed: 0x5e1ec7})
			if rep.Cuts == 0 {
				t.Fatalf("%s: no cuts enumerated — vacuous", b.Name)
			}
		})
		if b.HasMemory {
			sawMemory = true
			stores := 0
			for v := 0; v < b.G.N(); v++ {
				if b.G.Op(v) == dfg.OpStore {
					stores++
				}
			}
			if stores == 0 {
				t.Fatalf("%s: marked HasMemory but has no stores", b.Name)
			}
		}
	}
	if !sawMemory {
		t.Fatal("selection corpus has no memory-edge instance")
	}
}

// TestCutOracleOnGapRegressionCorpus sweeps the pinned mid-size gap
// instances (4 565 and 7 891 cuts) under the wall-clock budget: every cut
// visited within the budget is certified, and a complete run additionally
// pins the cut count.
func TestCutOracleOnGapRegressionCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("mid-size oracle sweep skipped in -short")
	}
	for _, gi := range workload.GapRegressionInstances() {
		gi := gi
		t.Run(gi.Name, func(t *testing.T) {
			rep := checkCuts(t, gi.Name, gi.Graph(), CutConfig{
				Seed:   gi.Seed,
				Budget: oracleBudget(t),
			})
			if rep.Cuts != gi.WantCuts {
				t.Fatalf("%s: certified %d cuts, want %d", gi.Name, rep.Cuts, gi.WantCuts)
			}
		})
	}
}

// TestCutOracleCoversForbiddenOpVariants runs the cut oracle on restricted-
// ISA variants: forbidding multiply/divide (no multiplier block) and the
// shifters changes the cut population, and every cut of the variant graphs
// must still collapse faithfully.
func TestCutOracleCoversForbiddenOpVariants(t *testing.T) {
	base := workload.SelectionCorpus()[0] // fir4
	variants := []struct {
		name string
		ops  []dfg.Op
	}{
		{"no-mul-div", []dfg.Op{dfg.OpMul, dfg.OpDiv, dfg.OpRem}},
		{"no-shift", []dfg.Op{dfg.OpShl, dfg.OpShr, dfg.OpSar}},
	}
	for _, v := range variants {
		g := workload.WithForbiddenOps(base.G, v.ops...)
		for _, op := range v.ops {
			for n := 0; n < g.N(); n++ {
				if g.Op(n) == op && !g.IsForbidden(n) {
					t.Fatalf("%s: node %d (%v) not forbidden", v.name, n, op)
				}
			}
		}
		checkCuts(t, base.Name+"/"+v.name, g, CutConfig{Seed: 7})
	}
}

// TestCutOracleSeedAddressable pins that coverage is a pure function of
// the seed: two sweeps with the same seed produce identical reports, and
// the MaxCuts prefix is a prefix of the full sweep.
func TestCutOracleSeedAddressable(t *testing.T) {
	g := workload.SelectionCorpus()[1].G // hash-round
	a := CheckCuts("a", g, CutConfig{Seed: 42})
	b := CheckCuts("b", g, CutConfig{Seed: 42})
	if a.Cuts != b.Cuts || a.MismatchTotal != b.MismatchTotal || a.Stop != b.Stop {
		t.Fatalf("same seed, different reports: %v vs %v", a, b)
	}
	pre := CheckCuts("prefix", g, CutConfig{Seed: 42, MaxCuts: 5})
	if pre.Cuts != 5 {
		t.Fatalf("MaxCuts prefix checked %d cuts, want 5", pre.Cuts)
	}
	if pre.Stop != enum.StopBudget {
		t.Fatalf("MaxCuts prefix stop = %v, want StopBudget", pre.Stop)
	}
	if pre.Agree() {
		t.Fatal("a stopped sweep must not claim a verdict")
	}
}

// TestSelectionOracleOnSmallCorpus enforces the acceptance bar: on every
// n ≤ 16 corpus instance, ise.Select's exact mode must achieve the
// exhaustive reference optimum and the greedy mode must stay feasible.
func TestSelectionOracleOnSmallCorpus(t *testing.T) {
	m := ise.DefaultModel()
	eopt := enum.DefaultOptions()
	small := 0
	for _, b := range workload.SelectionCorpus() {
		if !b.Small {
			continue
		}
		small++
		if b.G.N() > 16 {
			t.Fatalf("%s: marked Small but has %d vertices", b.Name, b.G.N())
		}
		rep := CheckSelection(b.Name, b.G, m, eopt, ise.DefaultSelectOptions())
		t.Log(rep.String())
		if !rep.Agree() {
			t.Fatalf("%s: %s", b.Name, rep.String())
		}
	}
	if small == 0 {
		t.Fatal("selection corpus has no n ≤ 16 instance")
	}
}

// TestSelectionOracleUnderBudgets re-checks the small instances under
// binding resource constraints, where greedy and optimal genuinely
// diverge in general: instruction-count caps and area budgets.
func TestSelectionOracleUnderBudgets(t *testing.T) {
	m := ise.DefaultModel()
	eopt := enum.DefaultOptions()
	opts := []ise.SelectOptions{
		{MinSaving: 1, MaxInstructions: 1},
		{MinSaving: 1, MaxInstructions: 2},
		{MinSaving: 1, AreaBudget: 5},
		{MinSaving: 2},
	}
	for _, b := range workload.SelectionCorpus() {
		if !b.Small {
			continue
		}
		for _, opt := range opts {
			rep := CheckSelection(b.Name, b.G, m, eopt, opt)
			if !rep.Agree() {
				t.Fatalf("%s under %+v: %s", b.Name, opt, rep.String())
			}
		}
	}
}

// TestReferenceSelectBeatsGreedyWhenItShould builds the classic greedy
// trap — the single highest-saving candidate blocks two disjoint ones
// whose sum is higher — and checks that the reference and the exact mode
// find the optimum while greedy provably takes the bait. This is the
// oracle's teeth test: if ReferenceSelect were wrong the production
// branch-and-bound could drift toward it unnoticed.
func TestReferenceSelectBeatsGreedyWhenItShould(t *testing.T) {
	g := mustCompileTrap(t)
	m := ise.DefaultModel()
	eopt := enum.DefaultOptions()
	cuts, stats := enum.CollectAll(g, eopt)
	if stats.StopReason != enum.StopNone {
		t.Fatalf("enumeration stopped: %v", stats.StopReason)
	}
	ref, err := ReferenceSelect(g, m, cuts, ise.SelectOptions{MinSaving: 1})
	if err != nil {
		t.Fatal(err)
	}
	exact := ise.Select(g, m, cuts, ise.SelectOptions{MinSaving: 1, Exact: true, ExactLimit: RefLimit})
	if got := totalSaving(exact); got != ref {
		t.Fatalf("exact saves %d, reference optimum %d", got, ref)
	}
	greedy := ise.Select(g, m, cuts, ise.SelectOptions{MinSaving: 1})
	if got := totalSaving(greedy); got >= ref {
		t.Fatalf("greedy saves %d, optimum %d: the trap no longer bites, so this test proves nothing", got, ref)
	}
}

func mustCompileTrap(t *testing.T) *dfg.Graph {
	t.Helper()
	// Built by hand so the structure is exact regardless of the expression
	// compiler's CSE decisions: d1 = a/b; p1 = d1 + c; d2 = p1/e. The
	// serialized whole-chain cut pays the full critical path (saving 26)
	// yet sorts above the two division cuts it blocks (14 + 14 = 28).
	g := dfg.New()
	in := func(name string) int { return g.MustAddNode(dfg.OpVar, name) }
	a, b, c, e := in("a"), in("b"), in("c"), in("e")
	d1 := g.MustAddNode(dfg.OpDiv, "", a, b)
	p1 := g.MustAddNode(dfg.OpAdd, "", d1, c)
	d2 := g.MustAddNode(dfg.OpDiv, "", p1, e)
	if err := g.MarkLiveOut(d2); err != nil {
		t.Fatal(err)
	}
	return g.MustFreeze()
}

// TestReferenceSelectRefusesLargeInstances pins the refusal contract: the
// exhaustive reference must error, not degrade, above RefLimit.
func TestReferenceSelectRefusesLargeInstances(t *testing.T) {
	g := workload.MiBenchLike(rand.New(rand.NewSource(9)), 60, workload.DefaultProfile())
	cuts, _ := enum.CollectAll(g, enum.DefaultOptions())
	if len(cuts) <= RefLimit {
		t.Skipf("instance yields only %d cuts", len(cuts))
	}
	_, err := ReferenceSelect(g, ise.DefaultModel(), cuts, ise.SelectOptions{MinSaving: 1})
	var tooMany *TooManyCandidatesError
	if err == nil {
		t.Fatal("reference accepted an instance beyond RefLimit")
	}
	if !asTooMany(err, &tooMany) {
		t.Fatalf("error type = %T, want *TooManyCandidatesError", err)
	}
}

func asTooMany(err error, target **TooManyCandidatesError) bool {
	e, ok := err.(*TooManyCandidatesError)
	if ok {
		*target = e
	}
	return ok
}

// TestInvariantsCatchViolations gives the invariant checker its teeth: a
// hand-corrupted selection must be flagged on every axis.
func TestInvariantsCatchViolations(t *testing.T) {
	b := workload.SelectionCorpus()[0] // fir4
	m := ise.DefaultModel()
	eopt := enum.DefaultOptions()
	cuts, _ := enum.CollectAll(b.G, eopt)
	sel := ise.Select(b.G, m, cuts, ise.DefaultSelectOptions())
	if len(sel.Chosen) == 0 {
		t.Fatal("fir4 selected nothing")
	}
	if bad := Invariants(b.G, sel, eopt, ise.DefaultSelectOptions()); len(bad) != 0 {
		t.Fatalf("well-formed selection flagged: %v", bad)
	}

	dup := sel
	dup.Chosen = append(append([]ise.Estimate(nil), sel.Chosen...), sel.Chosen[0])
	bad := Invariants(b.G, dup, eopt, ise.DefaultSelectOptions())
	if !containsSubstring(bad, "overlaps") {
		t.Fatalf("duplicated instruction not flagged: %v", bad)
	}

	skew := sel
	skew.BlockCyclesAfter += 3
	bad = Invariants(b.G, skew, eopt, ise.DefaultSelectOptions())
	if !containsSubstring(bad, "cycle accounting") {
		t.Fatalf("accounting skew not flagged: %v", bad)
	}

	tight := ise.SelectOptions{MinSaving: 1, MaxInstructions: len(sel.Chosen)}
	over := sel
	over.Chosen = dup.Chosen
	bad = Invariants(b.G, over, eopt, tight)
	if !containsSubstring(bad, "budget") {
		t.Fatalf("instruction-count overrun not flagged: %v", bad)
	}
}

func containsSubstring(list []string, sub string) bool {
	for _, s := range list {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}

// TestIterativeSelectorPicksRoundOptimum pins the iterative flow against
// the per-round definition: each round's instruction is the maximum-saving
// single estimate among that round's cuts.
func TestIterativeSelectorPicksRoundOptimum(t *testing.T) {
	m := ise.DefaultModel()
	eopt := enum.DefaultOptions()
	for _, b := range workload.SelectionCorpus() {
		if !b.Small {
			continue
		}
		res, err := ise.IterativeIdentify(b.G, eopt, m, 4)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		cur := b.G
		for i, round := range res.Rounds {
			est := ise.NewEstimator(cur, m)
			best := 0
			cuts, _ := enum.CollectAll(cur, eopt)
			for _, c := range cuts {
				if s := est.Estimate(c).Saving; s > best {
					best = s
				}
			}
			if round.Instruction.Saving != best {
				t.Fatalf("%s round %d: picked saving %d, best available %d",
					b.Name, i, round.Instruction.Saving, best)
			}
			cur = round.Graph
		}
	}
}

// TestCheckCutCatchesWrongCuts shows the cut oracle has teeth: on
// z = ((a+b) − (a−b)) ^ a, the two-output cut {s, d} and the one-output
// cut {s} check clean, but {s, d} with its Outputs swapped, and {s}'s
// inputs and outputs over the node set {s, m}, must each report a
// mismatch. (The oracle compares the nodes that survive the collapse, so
// each wrong value here reaches one: m or z.)
func TestCheckCutCatchesWrongCuts(t *testing.T) {
	g := dfg.New()
	a := g.MustAddNode(dfg.OpVar, "a")
	b := g.MustAddNode(dfg.OpVar, "b")
	s := g.MustAddNode(dfg.OpAdd, "s", a, b)
	d := g.MustAddNode(dfg.OpSub, "d", a, b)
	m := g.MustAddNode(dfg.OpSub, "m", s, d)
	z := g.MustAddNode(dfg.OpXor, "z", m, a)
	if err := g.MarkLiveOut(z); err != nil {
		t.Fatal(err)
	}
	g.MustFreeze()
	n := g.N()
	pair := enum.Cut{Nodes: bitset.FromMembers(n, s, d), Inputs: []int{a, b}, Outputs: []int{s, d}}
	single := enum.Cut{Nodes: bitset.FromMembers(n, s), Inputs: []int{a, b}, Outputs: []int{s}}
	for _, tc := range []struct {
		name  string
		cut   enum.Cut
		wrong bool
	}{
		{"pair", pair, false},
		{"single", single, false},
		{"pair with outputs swapped", enum.Cut{Nodes: pair.Nodes, Inputs: pair.Inputs, Outputs: []int{d, s}}, true},
		{"single over the wrong nodes", enum.Cut{Nodes: bitset.FromMembers(n, s, m), Inputs: single.Inputs, Outputs: single.Outputs}, true},
	} {
		bad, err := CheckCut(g, tc.cut, DefaultEnvs, 0x5eed)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := len(bad) > 0; got != tc.wrong {
			t.Errorf("%s: %d mismatches %v, want mismatches %v", tc.name, len(bad), bad, tc.wrong)
		}
	}
}
