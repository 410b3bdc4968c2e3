package enum_test

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"polyise/internal/baseline"
	"polyise/internal/dfg"
	"polyise/internal/enum"
	"polyise/internal/workload"
)

// The differential harness behind the parallel enumeration: sharding the
// search may never change WHAT is enumerated (the cut set must match the
// serial algorithm and, on small graphs, the brute-force oracle) nor the
// ORDER it is reported in (the parallel merge promises the serial visit
// sequence exactly). Every case runs over random MiBench-like DFGs across
// several sizes, seeds and (Nin, Nout) constraints, so a state-ownership
// bug in the clone-per-shard refactor has nowhere to hide.

// visitSequence records the exact visitor-facing enumeration: cut vertex
// signatures with derived inputs/outputs, in visit order.
func visitSequence(g *dfg.Graph, opt enum.Options) []string {
	opt.KeepCuts = true
	var seq []string
	enum.Enumerate(g, opt, func(c enum.Cut) bool {
		seq = append(seq, c.String())
		return true
	})
	return seq
}

// diffConstraints are the (Nin, Nout) pairs every differential case runs
// under, spanning the paper's standard constraint and tighter ones.
var diffConstraints = [][2]int{{2, 1}, {3, 2}, {4, 2}}

func optVariants(nin, nout int) map[string]enum.Options {
	std := enum.DefaultOptions()
	std.MaxInputs, std.MaxOutputs = nin, nout
	conn := std
	conn.ConnectedOnly = true
	return map[string]enum.Options{"default": std, "connected": conn}
}

// TestParallelMatchesSerialOnRandomCorpus is the core differential test:
// on a corpus of random DFGs (several sizes × seeds × constraints ×
// pruning configurations), the parallel enumeration must yield exactly the
// serial visit sequence.
func TestParallelMatchesSerialOnRandomCorpus(t *testing.T) {
	sizes := []int{12, 20, 35, 60, 90}
	for _, n := range sizes {
		for seed := int64(1); seed <= 3; seed++ {
			g := workload.MiBenchLike(rand.New(rand.NewSource(seed)), n, workload.DefaultProfile())
			for _, io := range diffConstraints {
				for name, opt := range optVariants(io[0], io[1]) {
					sopt := opt
					sopt.Parallelism = 1
					serial := visitSequence(g, sopt)
					// 2 and 5 exercise the skewed-shard regime; n forces all
					// balancing through interior work-stealing.
					for _, workers := range []int{2, 5, n} {
						popt := opt
						popt.Parallelism = workers
						par := visitSequence(g, popt)
						if !reflect.DeepEqual(serial, par) {
							t.Fatalf("n=%d seed=%d io=%v opt=%s workers=%d: parallel sequence diverges\nserial   (%d cuts): %v\nparallel (%d cuts): %v",
								n, seed, io, name, workers, len(serial), serial, len(par), par)
						}
					}
				}
			}
		}
	}
}

// TestParallelMatchesBruteForce closes the loop with the oracle: on small
// graphs, serial enumeration, parallel enumeration and the exhaustive
// brute force must agree on the cut set.
func TestParallelMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := workload.MiBenchLike(r, 10+int(seed), workload.DefaultProfile())
		for _, io := range diffConstraints {
			opt := enum.DefaultOptions()
			opt.MaxInputs, opt.MaxOutputs = io[0], io[1]

			brute, _ := baseline.CollectBrute(g, opt)
			sopt := opt
			sopt.Parallelism = 1
			serial, _ := enum.CollectAll(g, sopt)
			popt := opt
			popt.Parallelism = 4
			par, _ := enum.CollectAll(g, popt)

			want := signatures(brute)
			if got := signatures(serial); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed=%d io=%v: serial (%d cuts) vs brute (%d cuts) mismatch",
					seed, io, len(got), len(want))
			}
			if got := signatures(par); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed=%d io=%v: parallel (%d cuts) vs brute (%d cuts) mismatch",
					seed, io, len(got), len(want))
			}
		}
	}
}

// oracleBudget is the per-run wall-clock budget of the mid-size oracle
// tests. The default keeps plain `go test ./...` (and the race-detector
// sweep, where every run is 10–20× slower but still deadline-capped) fast:
// runs that exceed it report inconclusive and are skipped, not failed.
// `make diff-oracle` raises it via POLYISE_ORACLE_BUDGET so every pinned
// and fresh instance is verified to completion; `make ci` uses an
// intermediate budget that covers all pinned instances on the CI machine.
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

// runOracle runs one budgeted poly-versus-pruned-exhaustive comparison and
// fails the test on any disagreement, with the oracle's own triage (the
// basic-algorithm cross-check) in the failure message.
func runOracle(t *testing.T, name string, g *dfg.Graph, nin, nout int, budget time.Duration) baseline.OracleReport {
	t.Helper()
	opt := enum.DefaultOptions()
	opt.MaxInputs, opt.MaxOutputs, opt.Parallelism = nin, nout, 1
	rep := baseline.DiffOracle(name, g, opt, budget)
	if rep.Stopped() {
		t.Skipf("%s: budget %v exceeded — inconclusive (raise POLYISE_ORACLE_BUDGET or use `make diff-oracle`)", name, budget)
	}
	if !rep.Agree() {
		t.Fatalf("completeness violation:\n%s", rep)
	}
	t.Logf("%s", rep)
	return rep
}

// TestMidSizeOracleOnPinnedGapInstances re-verifies the instances on which
// the pre-fix dedup digest dropped valid cuts (the n ≥ 140 completeness
// gap): the polynomial enumeration must now match the pruned-exhaustive
// oracle exactly, at the exact pinned counts (4 565 and 7 891). This is
// the regression anchor — these instances sat in the measured gap for two
// engine revisions.
func TestMidSizeOracleOnPinnedGapInstances(t *testing.T) {
	for _, gi := range workload.GapRegressionInstances() {
		t.Run(gi.Name, func(t *testing.T) {
			rep := runOracle(t, gi.Name, gi.Graph(), 4, 2, oracleBudget(t))
			if rep.PolyCuts != gi.WantCuts {
				t.Fatalf("%s: %d cuts, pinned corpus expects %d", gi.Name, rep.PolyCuts, gi.WantCuts)
			}
		})
	}
}

// TestMidSizeOracleFreshRandom sweeps fresh MiBench-like instances at
// sizes straddling the bitset word boundaries (128, 192) up to the n ≈ 240
// oracle coverage bound. Unlike the pinned test it has no expected counts;
// agreement with the pruned-exhaustive search is the whole assertion.
func TestMidSizeOracleFreshRandom(t *testing.T) {
	budget := oracleBudget(t)
	for _, c := range []struct {
		n    int
		seed int64
	}{{130, 2}, {150, 3}, {190, 7}, {210, 11}, {240, 13}} {
		name, g := workload.FreshOracleInstance(c.n, c.seed)
		t.Run(name, func(t *testing.T) {
			runOracle(t, name, g, 4, 2, budget)
		})
	}
}

// TestMidSizeOracleAlongNin extends the oracle along the port budgets, the
// axis the seed-loop cutoff and the flow bound prune: the n=140 and n=220
// gap instances and the figure 4 trees of depth 6 and 7 at (Nin, Nout) =
// (6, 2), (8, 2) and (6, 3), and the butterflies, each at its pinned count.
// The tree of depth 6 at 6/2 is sub-second and runs in every `go test`;
// the other rows take up to about 20 s a side and run under `make
// diff-oracle` (POLYISE_ORACLE_BUDGET set).
func TestMidSizeOracleAlongNin(t *testing.T) {
	full := os.Getenv("POLYISE_ORACLE_BUDGET") != ""
	gap := workload.GapRegressionInstances()
	for _, c := range []struct {
		name      string
		g         *dfg.Graph
		nin, nout int
		want      int
		tier1     bool
	}{
		{"tree-depth6", workload.Tree(6, 2), 6, 2, 11181, true},
		{"tree-depth6", workload.Tree(6, 2), 8, 2, 41223, false},
		{"tree-depth6", workload.Tree(6, 2), 6, 3, 38859, false},
		{gap[0].Name, gap[0].Graph(), 6, 2, 7668, false},
		{gap[0].Name, gap[0].Graph(), 8, 2, 8418, false},
		{gap[0].Name, gap[0].Graph(), 6, 3, 134514, false},
		{gap[1].Name, gap[1].Graph(), 6, 2, 11469, false},
		{gap[1].Name, gap[1].Graph(), 8, 2, 12061, false},
		{gap[1].Name, gap[1].Graph(), 6, 3, 272877, false},
		{"tree-depth7", workload.Tree(7, 2), 6, 2, 49517, false},
		{"tree-depth7", workload.Tree(7, 2), 8, 2, 201255, false},
		{"tree-depth7", workload.Tree(7, 2), 6, 3, 318443, false},
		{"butterfly-4", workload.Butterfly(4), 6, 2, 1800, false},
		{"butterfly-4", workload.Butterfly(4), 8, 2, 1800, false},
		{"butterfly-4", workload.Butterfly(4), 6, 3, 29112, false},
		{"butterfly-5", workload.Butterfly(5), 6, 2, 11408, false},
	} {
		name := fmt.Sprintf("%s-nin%d-nout%d", c.name, c.nin, c.nout)
		t.Run(name, func(t *testing.T) {
			if !c.tier1 && !full {
				t.Skip("a `make diff-oracle` row (POLYISE_ORACLE_BUDGET unset)")
			}
			rep := runOracle(t, name, c.g, c.nin, c.nout, oracleBudget(t))
			if rep.PolyCuts != c.want {
				t.Fatalf("%s: %d cuts, pinned %d", name, rep.PolyCuts, c.want)
			}
		})
	}
}

// TestParallelStatsConsistency pins down which Stats counters are exactly
// preserved by sharding (see the contract in parallel.go): for runs that
// complete, every counter except Steals is identical — including under
// forced work-stealing, where search levels are executed piecewise by
// different workers — because each candidate's verdict (Duplicates for a
// non-canonical derivation, Invalid, or delivered) depends on its own
// search node alone. After an early visitor stop the work counters are
// explicitly NOT preserved (workers past the stopped prefix report extra
// work); the invariants that remain are Valid ≡ visited cuts and the
// parallel work counters dominating the serial-stop baseline's.
func TestParallelStatsConsistency(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := workload.MiBenchLike(rand.New(rand.NewSource(seed)), 50, workload.DefaultProfile())
		sopt := enum.DefaultOptions()
		sopt.Parallelism = 1
		_, ss := enum.CollectAll(g, sopt)
		// workers=3 is the skew-sharding regime; workers=n forces all
		// balancing through interior steals.
		for _, workers := range []int{3, g.N()} {
			popt := enum.DefaultOptions()
			popt.Parallelism = workers
			_, ps := enum.CollectAll(g, popt)

			pcmp := ps
			pcmp.Steals = 0
			if pcmp != ss {
				t.Fatalf("seed=%d workers=%d: counters diverge\nserial   %+v\nparallel %+v",
					seed, workers, ss, ps)
			}
		}

		// Early-stop invariants: Valid counts exactly the visited cuts, and
		// the parallel run can only have done MORE exploratory work than a
		// serial run stopped at the same cut, never less (the merge visiting
		// cut k proves every earlier scope fully drained).
		if ss.Valid < 4 {
			continue
		}
		k := ss.Valid / 2
		stopAfter := func(opt enum.Options) enum.Stats {
			seen := 0
			return enum.Enumerate(g, opt, func(enum.Cut) bool {
				seen++
				return seen < k
			})
		}
		sstop := stopAfter(sopt)
		popt := enum.DefaultOptions()
		popt.Parallelism = g.N()
		pstop := stopAfter(popt)
		if sstop.Valid != k || pstop.Valid != k {
			t.Fatalf("seed=%d: early-stop Valid = %d serial / %d parallel, want %d",
				seed, sstop.Valid, pstop.Valid, k)
		}
		if pstop.Candidates < sstop.Candidates || pstop.OutputsTried < sstop.OutputsTried ||
			pstop.LTRuns < sstop.LTRuns {
			t.Fatalf("seed=%d: stopped parallel run reports less work than the stopped serial run\nserial   %+v\nparallel %+v",
				seed, sstop, pstop)
		}
	}
}

// TestParallelTreeWorstCase runs the differential check on the figure 4
// family, whose deep identical subtrees let many search paths reach one
// cut.
func TestParallelTreeWorstCase(t *testing.T) {
	for depth := 2; depth <= 4; depth++ {
		g := workload.Tree(depth, 2)
		for _, io := range diffConstraints {
			opt := enum.DefaultOptions()
			opt.MaxInputs, opt.MaxOutputs = io[0], io[1]
			sopt := opt
			sopt.Parallelism = 1
			popt := opt
			popt.Parallelism = 6
			serial := visitSequence(g, sopt)
			par := visitSequence(g, popt)
			if !reflect.DeepEqual(serial, par) {
				t.Fatalf("tree depth=%d io=%v: %d serial vs %d parallel cuts",
					depth, io, len(serial), len(par))
			}
		}
	}
}

// TestParallelIterativeIdentifyDeterministic is exercised through the enum
// package's own surface: repeated full runs at growing worker counts on the
// same graph must keep producing the identical sequence (guards against
// scheduling-order leaks into the merge).
func TestParallelRepeatable(t *testing.T) {
	g := workload.MiBenchLike(rand.New(rand.NewSource(11)), 70, workload.DefaultProfile())
	opt := enum.DefaultOptions()
	opt.Parallelism = 4
	first := visitSequence(g, opt)
	if len(first) == 0 {
		t.Fatal("expected cuts on the reference graph")
	}
	for run := 1; run <= 4; run++ {
		opt.Parallelism = 1 + run*2
		if got := visitSequence(g, opt); !reflect.DeepEqual(first, got) {
			t.Fatalf("run %d (workers=%d): sequence changed:\nfirst %v\ngot   %v",
				run, opt.Parallelism, first, got)
		}
	}
}

// ExampleEnumerate_parallelism documents the reproduction switch: the
// paper's serial numbers come from Parallelism=1, and any other worker
// count enumerates the same cuts in the same order.
func ExampleEnumerate_parallelism() {
	g := workload.Tree(2, 2)
	opt := enum.DefaultOptions()
	opt.MaxInputs, opt.MaxOutputs = 2, 1

	opt.Parallelism = 1
	serial, _ := enum.CollectAll(g, opt)
	opt.Parallelism = 8
	parallel, _ := enum.CollectAll(g, opt)
	fmt.Println(len(serial) == len(parallel) && serial[0].String() == parallel[0].String())
	// Output: true
}
