package baseline_test

import (
	"errors"
	"testing"
	"time"

	"polyise/internal/baseline"
	"polyise/internal/enum"
	"polyise/internal/workload"
)

func TestBruteForceRefusesLargeGraphs(t *testing.T) {
	g := workload.Chain(40)
	called := false
	stats := baseline.BruteForce(g, enum.DefaultOptions(), func(enum.Cut) bool {
		called = true
		return true
	})
	var tle *baseline.TooLargeError
	if !errors.As(stats.Err, &tle) {
		t.Fatalf("Stats.Err = %v, want *TooLargeError for >30 eligible vertices", stats.Err)
	}
	if tle.Eligible <= tle.Max {
		t.Fatalf("TooLargeError reports Eligible=%d <= Max=%d", tle.Eligible, tle.Max)
	}
	if stats.StopReason != enum.StopError {
		t.Fatalf("StopReason = %v, want %v", stats.StopReason, enum.StopError)
	}
	if called {
		t.Fatal("visitor was called despite the refusal")
	}
}

func TestBruteForceEarlyStop(t *testing.T) {
	g := workload.Chain(12)
	n := 0
	baseline.BruteForce(g, enum.DefaultOptions(), func(enum.Cut) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Fatalf("visitor called %d times, want 2", n)
	}
}

func TestPrunedSearchEarlyStop(t *testing.T) {
	g := workload.Chain(12)
	n := 0
	baseline.PrunedSearch(g, enum.DefaultOptions(), func(enum.Cut) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Fatalf("visitor called %d times, want 2", n)
	}
}

func TestPrunedSearchDeadline(t *testing.T) {
	// 1023-node tree: the exhaustive search takes about 100x the deadline
	// (Tree(7, 2) finished inside it on a fast host, so the test skipped).
	g := workload.Tree(9, 2)
	opt := enum.DefaultOptions()
	opt.KeepCuts = false
	opt.Deadline = time.Now().Add(20 * time.Millisecond)
	start := time.Now()
	stats := baseline.PrunedSearch(g, opt, func(enum.Cut) bool { return true })
	if stats.StopReason != enum.StopDeadline {
		t.Skip("exhaustive tree search finished within 20ms on this machine")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("deadline ignored: ran %v", time.Since(start))
	}
}

// TestChainCounts checks both algorithms on a family with a closed-form
// answer: on a unary chain of n operations with Nin=1... every cut is a
// contiguous run, so under any Nin≥1/Nout≥1 there are n(n+1)/2 runs, all
// with exactly 1 input and 1 output (the run starting at the root's child
// has the root as input).
func TestChainCounts(t *testing.T) {
	for _, n := range []int{3, 6, 10} {
		g := workload.Chain(n)
		ops := n - 1 // non-root nodes
		want := ops * (ops + 1) / 2
		opt := enum.DefaultOptions()
		opt.MaxInputs, opt.MaxOutputs = 1, 1
		cuts, _ := baseline.CollectPruned(g, opt)
		if len(cuts) != want {
			t.Fatalf("chain %d: pruned found %d cuts, want %d", n, len(cuts), want)
		}
		cuts2, _ := enum.CollectAll(g, opt)
		if len(cuts2) != want {
			t.Fatalf("chain %d: poly found %d cuts, want %d", n, len(cuts2), want)
		}
	}
}

// TestTreeExplosion demonstrates the figure 4/figure 5 asymmetry on a small
// scale: going one tree depth deeper multiplies the exhaustive search's
// explored leaves far faster than the polynomial algorithm's analyses. The
// step is depth 6→7 because the §5.3 flow bound the polynomial side rests
// on runs only where a surviving-path region exceeds 64 vertices, and
// Tree(d, 2) has 2^d - 1 vertices: at depth 5 and below the bound never
// runs, and the two algorithms grow alike.
func TestTreeExplosion(t *testing.T) {
	opt := enum.DefaultOptions()
	opt.KeepCuts = false
	grow := func(alg func(*testing.T, int) int) float64 {
		a := alg(t, 6)
		b := alg(t, 7)
		return float64(b) / float64(a)
	}
	pruned := grow(func(t *testing.T, d int) int {
		s := baseline.PrunedSearch(workload.Tree(d, 2), opt, func(enum.Cut) bool { return true })
		return s.Candidates + s.SeedsPruned // explored leaves + killed branches
	})
	poly := grow(func(t *testing.T, d int) int {
		s := enum.Enumerate(workload.Tree(d, 2), opt, func(enum.Cut) bool { return true })
		return s.LTRuns + s.Candidates
	})
	t.Logf("depth 6→7 growth: pruned-exhaustive %.1fx, polynomial %.1fx", pruned, poly)
	if pruned <= poly {
		t.Fatalf("exhaustive search grew slower (%.1fx) than polynomial (%.1fx)", pruned, poly)
	}
}

func TestStatsArepopulated(t *testing.T) {
	g := workload.Tree(4, 2)
	var stats enum.Stats
	stats = baseline.PrunedSearch(g, enum.DefaultOptions(), func(enum.Cut) bool { return true })
	if stats.Valid == 0 || stats.Candidates == 0 {
		t.Fatalf("stats empty: %+v", stats)
	}
	if stats.Invalid+stats.Valid != stats.Candidates {
		t.Fatalf("candidate accounting off: %+v", stats)
	}
}
