// Benchmarks regenerating the paper's evaluation (§6). Each benchmark maps
// to a figure or claim; EXPERIMENTS.md records the measured numbers next to
// the paper's. The full corpus comparison (250 blocks) lives in
// cmd/compare; the benchmarks here use fixed representative instances so
// `go test -bench=.` stays minutes, not hours.
package polyise_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"polyise"
	"polyise/internal/bench"
	"polyise/internal/enum"
	"polyise/internal/graphio"
	"polyise/internal/ise"
	"polyise/internal/semoracle"
	"polyise/internal/workload"
)

func countCuts(b *testing.B, run func(func(polyise.Cut) bool) polyise.Stats) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := 0
		run(func(polyise.Cut) bool { n++; return true })
		b.ReportMetric(float64(n), "cuts")
	}
}

func opts() polyise.Options {
	o := polyise.DefaultOptions()
	o.KeepCuts = false
	// The figure benchmarks reproduce the paper's serial measurements;
	// BenchmarkParallelEnumerate covers the sharded configuration.
	o.Parallelism = 1
	return o
}

// BenchmarkParallelEnumerate measures intra-block sharding on a single
// large block: the same enumeration at Parallelism=1 (the paper's serial
// algorithm) versus Parallelism=GOMAXPROCS. The two produce identical cut
// sequences; on a machine with GOMAXPROCS ≥ 4 the sharded run is expected
// to be at least 2× faster (top-level subtrees dominate the work and
// shard evenly at this size).
func BenchmarkParallelEnumerate(b *testing.B) {
	g := workload.MiBenchLike(rand.New(rand.NewSource(17)), 220, workload.DefaultProfile())
	for _, cfg := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		opt := opts()
		opt.Parallelism = cfg.workers
		b.Run(cfg.name, func(b *testing.B) {
			countCuts(b, func(v func(polyise.Cut) bool) polyise.Stats {
				return polyise.Enumerate(g, opt, v)
			})
		})
	}
}

// BenchmarkFigure5 reproduces the figure 5 run-time comparison on one
// representative block per size cluster: the polynomial algorithm (X axis)
// versus the pruned exhaustive search of [15] (Y axis). The paper's figure
// has the polynomial algorithm ahead on most blocks. Measured here
// (GOMAXPROCS=1, best of three 2 s runs, 2-vCPU Xeon), with identical cut
// counts from both, the pruned search is 1.6× faster on the small block
// (350 µs against 553 µs) and the two are within run-to-run noise on the
// medium one (12.0 ms poly, 12.7 ms pruned). EXPERIMENTS.md "Figure 5
// shape" has the corpus-wide comparison; ROADMAP.md item 4 the curve.
func BenchmarkFigure5(b *testing.B) {
	sizes := []struct {
		cluster string
		n       int
	}{
		{"small", 40},
		{"medium", 120},
	}
	for _, s := range sizes {
		g := workload.MiBenchLike(rand.New(rand.NewSource(5)), s.n, workload.DefaultProfile())
		b.Run(fmt.Sprintf("poly/%s-n%d", s.cluster, s.n), func(b *testing.B) {
			countCuts(b, func(v func(polyise.Cut) bool) polyise.Stats {
				return polyise.Enumerate(g, opts(), v)
			})
		})
		b.Run(fmt.Sprintf("pruned/%s-n%d", s.cluster, s.n), func(b *testing.B) {
			countCuts(b, func(v func(polyise.Cut) bool) polyise.Stats {
				return polyise.PrunedExhaustiveSearch(g, opts(), v)
			})
		})
	}
}

// BenchmarkTreeWorstCase is the figure 4 family: complete binary trees,
// provably exponential (O(1.6^n)) for [4]-style searches. Depth 5 is 63
// nodes. The [15]-style pruned search is not [4]'s. Measured serially
// (best of three 2 s runs, 2-vCPU Xeon), with the same cut counts from
// both algorithms, it is faster at depths 4 and 5 (2.4× and 1.3×), the
// two are within run-to-run noise at depth 6, and the polynomial
// algorithm is 1.7× faster at depth 7 (13.2 ms against 22.0 ms). ROADMAP.md
// item 4 tracks the crossover.
func BenchmarkTreeWorstCase(b *testing.B) {
	for depth := 4; depth <= 7; depth++ {
		g := polyise.TreeWorstCase(depth)
		b.Run(fmt.Sprintf("poly/depth%d-n%d", depth, g.N()), func(b *testing.B) {
			countCuts(b, func(v func(polyise.Cut) bool) polyise.Stats {
				return polyise.Enumerate(g, opts(), v)
			})
		})
		b.Run(fmt.Sprintf("pruned/depth%d-n%d", depth, g.N()), func(b *testing.B) {
			countCuts(b, func(v func(polyise.Cut) bool) polyise.Stats {
				return polyise.PrunedExhaustiveSearch(g, opts(), v)
			})
		})
	}
}

// deepBlock is one block of the perfbench `deep` workload.
type deepBlock struct {
	name string
	g    *polyise.Graph
	cuts int
}

// deepBlocks returns the four blocks of the perfbench `deep` workload, in
// their canonical numbering: the n=140 gap-regression instance, a 160-node
// MiBench-like block (seed 2), the depth-6 figure 4 tree and the 4-stage
// butterfly.
func deepBlocks(b *testing.B) []deepBlock {
	gap := workload.GapRegressionInstances()[0]
	if gap.Name != "mibench-n140-seed5" {
		b.Fatalf("gap instance 0 is %s", gap.Name)
	}
	return []deepBlock{
		{gap.Name, gap.Graph(), gap.WantCuts},
		{"mibench-n160-seed2", workload.MiBenchLike(rand.New(rand.NewSource(2)), 160, workload.DefaultProfile()), 4497},
		{"tree-depth6", workload.Tree(6, 2), 1911},
		{"butterfly-4", workload.Butterfly(4), 1800},
	}
}

// BenchmarkDeepBlocks runs the enumeration of the four blocks of the
// perfbench `deep` workload serially at Nin=4/Nout=2. Next to the time it
// reports the last-level ledger of one enumeration: its analyses
// (lt_runs/op), the seed loops with a served child (tables/op) and the
// children served from them (lookups/op).
func BenchmarkDeepBlocks(b *testing.B) {
	for _, blk := range deepBlocks(b) {
		b.Run(blk.name, func(b *testing.B) {
			b.ReportAllocs()
			var st polyise.Stats
			for i := 0; i < b.N; i++ {
				n := 0
				st = polyise.Enumerate(blk.g, opts(), func(polyise.Cut) bool { n++; return true })
				if n != blk.cuts {
					b.Fatalf("%d cuts, want %d", n, blk.cuts)
				}
			}
			b.ReportMetric(float64(st.LTRuns), "lt_runs/op")
			b.ReportMetric(float64(st.LastLevelTables), "tables/op")
			b.ReportMetric(float64(st.LastLevelLookups), "lookups/op")
		})
	}
}

// BenchmarkDeepOp runs the whole op of the perfbench `deep` workload on
// its four blocks, serially at Nin=4/Nout=2: parse the block's text,
// enumerate and collect the cuts, select instructions, write their
// Verilog and re-check each under the interpreter. `make profile` runs it
// under the CPU profiler, so the layers around the search show in the
// same profile as the search itself.
func BenchmarkDeepOp(b *testing.B) {
	for _, blk := range deepBlocks(b) {
		var text bytes.Buffer
		if err := graphio.Write(&text, blk.g); err != nil {
			b.Fatal(err)
		}
		b.Run(blk.name, func(b *testing.B) {
			b.ReportAllocs()
			eopt := enum.DefaultOptions()
			eopt.Parallelism = 1
			for i := 0; i < b.N; i++ {
				g, err := graphio.Read(bytes.NewReader(text.Bytes()))
				if err != nil {
					b.Fatal(err)
				}
				var cuts []enum.Cut
				enum.Enumerate(g, eopt, func(c enum.Cut) bool { cuts = append(cuts, c); return true })
				if len(cuts) != blk.cuts {
					b.Fatalf("%d cuts, want %d", len(cuts), blk.cuts)
				}
				sel := ise.Select(g, ise.DefaultModel(), cuts, ise.DefaultSelectOptions())
				var rtl bytes.Buffer
				for k, c := range sel.Chosen {
					if err := ise.WriteVerilog(&rtl, g, c.Cut, fmt.Sprintf("ise%d", k)); err != nil {
						b.Fatal(err)
					}
					if bad, err := semoracle.CheckCut(g, c.Cut, 4, int64(k)+0x5ce); err != nil || len(bad) != 0 {
						b.Fatalf("re-check of instruction %d: %v, %d mismatches", k, err, len(bad))
					}
				}
			}
		})
	}
}

// BenchmarkScaling backs the polynomial-complexity claim (§5): run time of
// the enumeration across a size sweep at the paper's Nin=4/Nout=2. The
// fitted exponent (see cmd/compare -mode scaling and EXPERIMENTS.md) must
// stay below the theoretical Nin+Nout+1.
func BenchmarkScaling(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	for _, n := range []int{25, 50, 100, 150} {
		g := workload.MiBenchLike(r, n, workload.DefaultProfile())
		b.Run(fmt.Sprintf("poly/n%d", n), func(b *testing.B) {
			countCuts(b, func(v func(polyise.Cut) bool) polyise.Stats {
				return polyise.Enumerate(g, opts(), v)
			})
		})
	}
}

// BenchmarkIOConstraints sweeps the port constraint at fixed size,
// exercising the O(n^(Nin+Nout+1)) dependence on the constraint itself.
func BenchmarkIOConstraints(b *testing.B) {
	g := workload.MiBenchLike(rand.New(rand.NewSource(11)), 80, workload.DefaultProfile())
	for _, c := range []struct{ nin, nout int }{{2, 1}, {3, 1}, {4, 2}, {5, 2}} {
		opt := opts()
		opt.MaxInputs, opt.MaxOutputs = c.nin, c.nout
		b.Run(fmt.Sprintf("nin%d-nout%d", c.nin, c.nout), func(b *testing.B) {
			countCuts(b, func(v func(polyise.Cut) bool) polyise.Stats {
				return polyise.Enumerate(g, opt, v)
			})
		})
	}
}

// BenchmarkBasicVsIncremental compares figure 2's basic algorithm with
// figure 3's incremental one (§5.2).
func BenchmarkBasicVsIncremental(b *testing.B) {
	g := workload.MiBenchLike(rand.New(rand.NewSource(17)), 40, workload.DefaultProfile())
	b.Run("incremental", func(b *testing.B) {
		countCuts(b, func(v func(polyise.Cut) bool) polyise.Stats {
			return polyise.Enumerate(g, opts(), v)
		})
	})
	b.Run("basic", func(b *testing.B) {
		countCuts(b, func(v func(polyise.Cut) bool) polyise.Stats {
			return polyise.EnumerateBasic(g, opts(), v)
		})
	})
}

// BenchmarkISESelection measures the end-to-end identification flow that
// backs the §7 speedup claim: enumerate, score, select.
func BenchmarkISESelection(b *testing.B) {
	g := workload.MiBenchLike(rand.New(rand.NewSource(19)), 100, workload.DefaultProfile())
	model := polyise.DefaultModel()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sel := polyise.IdentifyISE(g, polyise.DefaultOptions(), model, polyise.DefaultSelectOptions())
		b.ReportMetric(sel.Speedup(), "speedup")
	}
}

// BenchmarkConnectedOnly measures the Yu–Mitra style restriction (§2): the
// connected-cut search the algorithm "can be adapted to run faster under".
func BenchmarkConnectedOnly(b *testing.B) {
	g := workload.MiBenchLike(rand.New(rand.NewSource(23)), 120, workload.DefaultProfile())
	for _, connected := range []bool{false, true} {
		opt := opts()
		opt.ConnectedOnly = connected
		name := "all-cuts"
		if connected {
			name = "connected-only"
		}
		b.Run(name, func(b *testing.B) {
			countCuts(b, func(v func(polyise.Cut) bool) polyise.Stats {
				return polyise.Enumerate(g, opt, v)
			})
		})
	}
}

// TestBenchHarnessSmoke keeps the bench package itself under test: a tiny
// figure 5 comparison must produce sane, winner-consistent data.
func TestBenchHarnessSmoke(t *testing.T) {
	blocks := workload.Corpus(3, workload.CorpusSpec{
		Small: 4, TreeDepths: []int{4}, Profile: workload.DefaultProfile(),
	})
	points := bench.CompareCorpus(blocks, enum.DefaultOptions(), 0)
	if len(points) != 5 {
		t.Fatalf("points = %d, want 5", len(points))
	}
	for _, p := range points {
		if p.Poly.Cuts != p.Pruned.Cuts {
			t.Fatalf("%s: algorithms disagree on cut count: %d vs %d",
				p.Block, p.Poly.Cuts, p.Pruned.Cuts)
		}
	}
	sums := bench.Summarize(points)
	if len(sums) != 2 {
		t.Fatalf("clusters = %d, want 2", len(sums))
	}
}
