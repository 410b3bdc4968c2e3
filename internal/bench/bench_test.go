package bench

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"polyise/internal/enum"
	"polyise/internal/workload"
)

func TestFitPowerLaw(t *testing.T) {
	// Perfect y = 3 x^2.5.
	xs := []float64{1, 2, 4, 8, 16}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * math.Pow(x, 2.5)
	}
	k, c := FitPowerLaw(xs, ys)
	if math.Abs(k-2.5) > 1e-9 || math.Abs(c-3) > 1e-9 {
		t.Fatalf("fit = (%v, %v), want (2.5, 3)", k, c)
	}
	// Non-positive points ignored; degenerate input yields zeros.
	k, c = FitPowerLaw([]float64{1, -1}, []float64{2, 3})
	if k != 0 || c != 0 {
		t.Fatalf("degenerate fit = (%v, %v)", k, c)
	}
}

func TestRunCountsMatchAcrossAlgorithms(t *testing.T) {
	blocks := workload.Corpus(11, workload.CorpusSpec{
		Small: 3, TreeDepths: []int{4}, Profile: workload.DefaultProfile(),
	})
	opt := enum.DefaultOptions()
	for _, b := range blocks {
		poly := Run(AlgPoly, b.G, opt, 0)
		pruned := Run(AlgPruned, b.G, opt, 0)
		basic := Run(AlgBasicPoly, b.G, opt, 0)
		atasu := Run(AlgAtasu, b.G, opt, 0)
		if poly.Cuts != pruned.Cuts || poly.Cuts != basic.Cuts || poly.Cuts != atasu.Cuts {
			t.Fatalf("%s: cut counts diverge: poly=%d pruned=%d basic=%d atasu=%d",
				b.Name, poly.Cuts, pruned.Cuts, basic.Cuts, atasu.Cuts)
		}
		if poly.Duration <= 0 {
			t.Fatalf("%s: non-positive duration", b.Name)
		}
	}
}

func TestBudgetTimesOut(t *testing.T) {
	g := workload.Tree(9, 2) // 1023-node tree: exhaustive search cannot finish fast
	opt := enum.DefaultOptions()
	m := Run(AlgPruned, g, opt, 30*time.Millisecond)
	if !m.Stopped() {
		t.Skip("machine finished the exhaustive tree search within 30ms; nothing to assert")
	}
	if !m.DeadlineHit() {
		t.Fatalf("budget stop reported as %v, want %v", m.StopReason, enum.StopDeadline)
	}
	if m.Duration > 5*time.Second {
		t.Fatalf("timeout not respected: ran %v", m.Duration)
	}
}

func TestSummarizeAndWriters(t *testing.T) {
	points := []ComparePoint{
		{Block: "a", Cluster: "10-79", N: 20,
			Poly:   Measurement{Duration: time.Millisecond},
			Atasu:  Measurement{Duration: 10 * time.Millisecond},
			Pruned: Measurement{Duration: 5 * time.Millisecond}},
		{Block: "b", Cluster: "10-79", N: 30,
			Poly:   Measurement{Duration: 4 * time.Millisecond},
			Atasu:  Measurement{Duration: 2 * time.Millisecond},
			Pruned: Measurement{Duration: time.Millisecond}},
		{Block: "t", Cluster: "tree", N: 31,
			Poly:   Measurement{Duration: time.Millisecond},
			Atasu:  Measurement{Duration: time.Second, StopReason: enum.StopDeadline},
			Pruned: Measurement{Duration: time.Second, StopReason: enum.StopCanceled}},
	}
	sums := Summarize(points)
	if len(sums) != 2 {
		t.Fatalf("clusters = %d", len(sums))
	}
	if sums[0].Cluster != "10-79" || sums[0].PolyWins != 1 || sums[0].Points != 2 {
		t.Fatalf("summary[0] = %+v", sums[0])
	}
	// The deadline hit counts as a timeout; the canceled run is partial but
	// NOT a timeout — that distinction is the point of the StopReason field.
	if sums[1].AtasuTimeouts != 1 || sums[1].PrunedTimeouts != 0 || sums[1].Partial != 1 {
		t.Fatalf("summary[1] = %+v", sums[1])
	}
	if sums[0].Partial != 0 {
		t.Fatalf("summary[0] reports %d partial points, want 0", sums[0].Partial)
	}

	var buf bytes.Buffer
	WriteScatter(&buf, points)
	out := buf.String()
	if !strings.Contains(out, "atasu-deadline") || !strings.Contains(out, "modern-canceled") ||
		!strings.Contains(out, "figure 5") {
		t.Fatalf("scatter output:\n%s", out)
	}
	buf.Reset()
	WriteSummary(&buf, sums)
	if !strings.Contains(buf.String(), "10-79") {
		t.Fatalf("summary output:\n%s", buf.String())
	}
}

func TestGrowthExponentSmoke(t *testing.T) {
	opt := enum.DefaultOptions()
	k, points := GrowthExponent(AlgPoly, []int{20, 40, 60}, 5, opt, 10*time.Second)
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	// The exponent must be positive and bounded by the theoretical 7.
	if k <= 0 || k > 7.5 {
		t.Fatalf("implausible growth exponent %v", k)
	}
}

// speedupCorpus is the multi-block corpus behind the block-level sharding
// tests and benchmarks: enough small blocks that a serial sweep leaves
// other cores idle for a measurable stretch, while any single block stays
// cheap enough for CI.
func speedupCorpus() []workload.Block {
	spec := workload.CorpusSpec{Small: 24, Profile: workload.DefaultProfile()}
	return workload.Corpus(7, spec)
}

// TestCorpusCutsParallelMatchesSerial is the block-level differential
// check: sharding a corpus across workers must reproduce the serial
// per-block counts exactly, in the serial order.
func TestCorpusCutsParallelMatchesSerial(t *testing.T) {
	blocks := speedupCorpus()
	serialOpt := enum.DefaultOptions()
	serialOpt.Parallelism = 1
	serial := CorpusCuts(blocks, serialOpt, 0)
	parOpt := enum.DefaultOptions()
	parOpt.Parallelism = 6
	par := CorpusCuts(blocks, parOpt, 0)
	if len(serial) != len(par) {
		t.Fatalf("result lengths differ: %d vs %d", len(serial), len(par))
	}
	total := 0
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("block %d (%s): %d cuts serial, %d sharded",
				i, blocks[i].Name, serial[i], par[i])
		}
		total += serial[i]
	}
	if total == 0 {
		t.Fatal("corpus produced no cuts; the comparison is vacuous")
	}
}

// TestCompareCorpusParallelDeterministic checks CompareCorpus's sharded
// result placement: block names and cut counts must land at the same
// indices as a serial run (durations of course differ).
func TestCompareCorpusParallelDeterministic(t *testing.T) {
	// Hand-sized blocks: small enough that the two exhaustive baselines
	// finish well inside the budget, so every cut count is exact and
	// run-to-run comparable.
	var blocks []workload.Block
	for i, n := range []int{14, 18, 22, 26, 30, 34} {
		blocks = append(blocks, workload.Block{
			Name:    fmt.Sprintf("diff-%02d", i),
			Cluster: workload.ClusterSmall,
			G:       workload.MiBenchLike(rand.New(rand.NewSource(int64(i+1))), n, workload.DefaultProfile()),
		})
	}
	serialOpt := enum.DefaultOptions()
	serialOpt.Parallelism = 1
	parOpt := enum.DefaultOptions()
	parOpt.Parallelism = 5
	a := CompareCorpus(blocks, serialOpt, time.Minute)
	b := CompareCorpus(blocks, parOpt, time.Minute)
	for i := range a {
		if a[i].Block != b[i].Block || a[i].Poly.Cuts != b[i].Poly.Cuts ||
			a[i].Atasu.Cuts != b[i].Atasu.Cuts || a[i].Pruned.Cuts != b[i].Pruned.Cuts {
			t.Fatalf("index %d diverges: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// BenchmarkCorpusCuts measures the block-level worker pool on a multi-block
// corpus: `serial` is the paper-faithful single-goroutine sweep, `parallel`
// shards blocks across GOMAXPROCS. On a machine with GOMAXPROCS ≥ 4 the
// parallel sweep is expected to finish the corpus at least 2× faster
// (blocks are independent; the only serial residue is the final block tail).
func BenchmarkCorpusCuts(b *testing.B) {
	blocks := speedupCorpus()
	for _, cfg := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(cfg.name, func(b *testing.B) {
			opt := enum.DefaultOptions()
			opt.Parallelism = cfg.workers
			opt.KeepCuts = false
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				CorpusCuts(blocks, opt, 0)
			}
		})
	}
}

// BenchmarkIntraBlockScaling is the single-block complement of
// BenchmarkCorpusCuts: one large block enumerated with INTRA-block sharding
// plus interior work-stealing, the regime where block-level pooling cannot
// help because there is only one block. `serial` is the paper algorithm,
// `parallel` uses GOMAXPROCS workers, and `steal-forced` uses one worker
// per first-output position so every balancing decision is an interior
// steal — the steals/op metric shows whether dynamic re-balancing was
// active (it is scheduling-dependent, so the metric is informative, not
// asserted). The per-run cut count is asserted instead: any worker count
// must enumerate the identical set.
func BenchmarkIntraBlockScaling(b *testing.B) {
	g := workload.MiBenchLike(rand.New(rand.NewSource(17)), 160, workload.DefaultProfile())
	ref := -1
	for _, cfg := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}, {"steal-forced", g.N()}} {
		b.Run(cfg.name, func(b *testing.B) {
			opt := enum.DefaultOptions()
			opt.Parallelism = cfg.workers
			opt.KeepCuts = false
			b.ReportAllocs()
			steals, cuts := 0, 0
			for i := 0; i < b.N; i++ {
				cuts = 0
				stats := enum.Enumerate(g, opt, func(enum.Cut) bool { cuts++; return true })
				steals += stats.Steals
			}
			b.ReportMetric(float64(steals)/float64(b.N), "steals/op")
			if ref < 0 {
				ref = cuts
			} else if cuts != ref {
				b.Fatalf("workers=%d enumerated %d cuts, serial found %d", cfg.workers, cuts, ref)
			}
		})
	}
}
