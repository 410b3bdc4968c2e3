// Package bench measures the enumeration algorithms on workload corpora and
// post-processes the results into the paper's figures: the figure 5 run-time
// comparison and the polynomial-scaling fits backing the complexity claim.
package bench

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"time"

	"polyise/internal/baseline"
	"polyise/internal/dfg"
	"polyise/internal/enum"
	"polyise/internal/parallel"
	"polyise/internal/workload"
)

// Algorithm selects which enumerator a measurement runs.
type Algorithm int

// The measurable algorithms.
const (
	AlgPoly      Algorithm = iota // the paper's incremental polynomial algorithm
	AlgPruned                     // modernized [15]-style pruned exhaustive search
	AlgBasicPoly                  // figure 2's basic polynomial algorithm
	AlgAtasu                      // period-faithful [4]-style exhaustive search
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case AlgPoly:
		return "poly"
	case AlgPruned:
		return "pruned-exhaustive"
	case AlgBasicPoly:
		return "poly-basic"
	case AlgAtasu:
		return "atasu-2003"
	}
	return "unknown"
}

// Measurement is one (algorithm, block) data point.
type Measurement struct {
	Block     string
	Cluster   string
	N         int
	Algorithm Algorithm
	Cuts      int
	Duration  time.Duration
	// StopReason records how the measured run ended: StopNone for a
	// complete measurement, StopDeadline for a genuine wall-clock timeout,
	// StopCanceled for the SIGINT path of cmd/compare, and so on. Any
	// non-none reason means the point is partial — a lower bound on both
	// Cuts and Duration, excluded from fits.
	StopReason enum.StopReason
}

// Stopped reports whether the run ended early for any reason, leaving the
// measurement partial.
func (m Measurement) Stopped() bool { return m.StopReason != enum.StopNone }

// DeadlineHit reports specifically a wall-clock budget timeout, as opposed
// to cancellation or any other early stop.
func (m Measurement) DeadlineHit() bool { return m.StopReason == enum.StopDeadline }

// Run measures one algorithm on one graph with a wall-clock budget (zero
// means unbounded). The measured run is always serial regardless of
// opt.Parallelism: every figure compares single-threaded algorithm cost,
// and sharding a timed run across the cores that time its peers would make
// the numbers incomparable. Parallelism belongs one level up, where
// CompareCorpus and CorpusCuts shard whole blocks.
func Run(alg Algorithm, g *dfg.Graph, opt enum.Options, budget time.Duration) Measurement {
	opt.KeepCuts = false
	opt.Parallelism = 1
	if budget > 0 {
		opt.Deadline = time.Now().Add(budget)
	}
	cuts := 0
	count := func(enum.Cut) bool { cuts++; return true }
	start := time.Now()
	var stats enum.Stats
	switch alg {
	case AlgPoly:
		stats = enum.Enumerate(g, opt, count)
	case AlgPruned:
		stats = baseline.PrunedSearch(g, opt, count)
	case AlgBasicPoly:
		stats = enum.EnumerateBasic(g, opt, count)
	case AlgAtasu:
		stats = baseline.AtasuSearch(g, opt, count)
	}
	return Measurement{
		N:         g.N(),
		Algorithm: alg,
		Cuts:      cuts,
		Duration:  time.Since(start),
		// The full stop reason, not a collapsed boolean: deadline,
		// opt.Context cancellation (the SIGINT path of cmd/compare) and
		// budget stops all leave the point partial, but the tables should
		// say which one happened.
		StopReason: stats.StopReason,
	}
}

// ComparePoint is one figure 5 scatter point: the polynomial algorithm and
// both exhaustive baselines on one block.
type ComparePoint struct {
	Block   string
	Cluster string
	N       int
	Poly    Measurement
	Pruned  Measurement // modernized [15]-style propagation
	Atasu   Measurement // period-faithful [4]-style pruning
}

// SpeedupOfPoly returns how many times faster the polynomial algorithm was
// than the period-faithful exhaustive search (>1 means the paper's
// algorithm wins, matching points above figure 5's diagonal).
func (p ComparePoint) SpeedupOfPoly() float64 {
	if p.Poly.Duration <= 0 {
		return math.Inf(1)
	}
	return float64(p.Atasu.Duration) / float64(p.Poly.Duration)
}

// CompareCorpus runs the three algorithms over a corpus with a per-run
// budget. Blocks are sharded across opt.Parallelism workers (0 = auto); the
// result slice is indexed like blocks, so the output is deterministic
// regardless of completion order. Each individual measurement runs the
// enumeration serially — sharding one timed run across the same cores that
// time the others would make the figure 5 durations incomparable — so the
// knob buys corpus throughput, not single-block latency. Blocks are claimed
// one at a time rather than in batches: a figure 5 corpus mixes
// 10-node and 1000-node blocks, so batching would regularly strand several
// large blocks on one worker.
func CompareCorpus(blocks []workload.Block, opt enum.Options, budget time.Duration) []ComparePoint {
	workers := parallel.Workers(opt.Parallelism)
	out := make([]ComparePoint, len(blocks))
	parallel.ForEach(workers, len(blocks), 1, func(i int) {
		b := blocks[i]
		poly := Run(AlgPoly, b.G, opt, budget)
		pruned := Run(AlgPruned, b.G, opt, budget)
		atasu := Run(AlgAtasu, b.G, opt, budget)
		out[i] = ComparePoint{
			Block: b.Name, Cluster: b.Cluster, N: b.G.N(),
			Poly: poly, Pruned: pruned, Atasu: atasu,
		}
	})
	return out
}

// CorpusCuts enumerates every block of a corpus with the polynomial
// algorithm and returns the per-block valid-cut counts, indexed like
// blocks. This is the throughput-oriented sibling of CompareCorpus: no
// per-block timing is taken, so blocks are sharded across opt.Parallelism
// workers in small batches (cheap small blocks amortize the claim; the few
// large ones still migrate freely). The per-block enumeration itself runs
// serially (Run enforces this) — for a multi-block corpus, block-level
// sharding alone already saturates the cores without oversubscribing them.
func CorpusCuts(blocks []workload.Block, opt enum.Options, budget time.Duration) []int {
	workers := parallel.Workers(opt.Parallelism)
	out := make([]int, len(blocks))
	parallel.ForEach(workers, len(blocks), 2, func(i int) {
		out[i] = Run(AlgPoly, blocks[i].G, opt, budget).Cuts
	})
	return out
}

// ClusterSummary aggregates figure 5 points per cluster. The *Timeouts
// counters tally genuine deadline hits only; Partial counts points where
// any of the three runs stopped early for ANY reason (cancel, budget,
// deadline) — the set a fit or a wins-count should treat as incomplete.
type ClusterSummary struct {
	Cluster        string
	Points         int
	PolyWins       int // points above the diagonal (vs the [4]-style search)
	MedianSpeedup  float64
	PolyTimeouts   int
	AtasuTimeouts  int
	PrunedTimeouts int
	Partial        int
}

// Summarize aggregates comparison points by cluster, in a stable order.
func Summarize(points []ComparePoint) []ClusterSummary {
	byCluster := map[string][]ComparePoint{}
	var order []string
	for _, p := range points {
		if _, ok := byCluster[p.Cluster]; !ok {
			order = append(order, p.Cluster)
		}
		byCluster[p.Cluster] = append(byCluster[p.Cluster], p)
	}
	var out []ClusterSummary
	for _, c := range order {
		ps := byCluster[c]
		s := ClusterSummary{Cluster: c, Points: len(ps)}
		speedups := make([]float64, 0, len(ps))
		for _, p := range ps {
			if p.SpeedupOfPoly() > 1 {
				s.PolyWins++
			}
			speedups = append(speedups, p.SpeedupOfPoly())
			if p.Poly.DeadlineHit() {
				s.PolyTimeouts++
			}
			if p.Atasu.DeadlineHit() {
				s.AtasuTimeouts++
			}
			if p.Pruned.DeadlineHit() {
				s.PrunedTimeouts++
			}
			if p.Poly.Stopped() || p.Atasu.Stopped() || p.Pruned.Stopped() {
				s.Partial++
			}
		}
		sort.Float64s(speedups)
		s.MedianSpeedup = speedups[len(speedups)/2]
		out = append(out, s)
	}
	return out
}

// WriteScatter prints the figure 5 data series: one line per block with the
// run times of the polynomial algorithm (X axis), the period-faithful
// exhaustive search (Y axis, the paper's comparison) and the modernized
// propagation baseline.
func WriteScatter(w io.Writer, points []ComparePoint) {
	fmt.Fprintf(w, "# figure 5: run-time comparison, X=poly seconds, Y=atasu2003 seconds\n")
	fmt.Fprintf(w, "%-22s %-10s %6s %12s %12s %12s %8s %s\n",
		"block", "cluster", "n", "poly_s", "atasu03_s", "modern15_s", "speedup", "flags")
	for _, p := range points {
		// Flags carry the concrete stop reason per run, not a collapsed
		// "timeout": a canceled point and a deadline point are both partial
		// but mean different things when reading the scatter.
		flags := ""
		if p.Poly.Stopped() {
			flags += fmt.Sprintf("poly-%v ", p.Poly.StopReason)
		}
		if p.Atasu.Stopped() {
			flags += fmt.Sprintf("atasu-%v ", p.Atasu.StopReason)
		}
		if p.Pruned.Stopped() {
			flags += fmt.Sprintf("modern-%v", p.Pruned.StopReason)
		}
		fmt.Fprintf(w, "%-22s %-10s %6d %12.6f %12.6f %12.6f %8.2f %s\n",
			p.Block, p.Cluster, p.N,
			p.Poly.Duration.Seconds(), p.Atasu.Duration.Seconds(),
			p.Pruned.Duration.Seconds(), p.SpeedupOfPoly(), flags)
	}
}

// WriteSummary prints per-cluster aggregates.
func WriteSummary(w io.Writer, summaries []ClusterSummary) {
	fmt.Fprintf(w, "%-10s %7s %9s %15s %13s %14s %15s %8s\n",
		"cluster", "points", "poly-wins", "median-speedup",
		"poly-timeout", "atasu-timeout", "modern-timeout", "partial")
	for _, s := range summaries {
		fmt.Fprintf(w, "%-10s %7d %9d %15.2f %13d %14d %15d %8d\n",
			s.Cluster, s.Points, s.PolyWins, s.MedianSpeedup,
			s.PolyTimeouts, s.AtasuTimeouts, s.PrunedTimeouts, s.Partial)
	}
}

// FitPowerLaw fits y = c·x^k by least squares in log space and returns the
// exponent k and coefficient c. Points with non-positive coordinates are
// ignored. It backs the polynomial-complexity claim: measured exponents for
// the enumeration must stay bounded by Nin+Nout+1.
func FitPowerLaw(xs, ys []float64) (k, c float64) {
	var sx, sy, sxx, sxy float64
	n := 0.0
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			continue
		}
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
		n++
	}
	if n < 2 {
		return 0, 0
	}
	k = (n*sxy - sx*sy) / (n*sxx - sx*sx)
	c = math.Exp((sy - k*sx) / n)
	return k, c
}

// GrowthExponent measures the scaling of one algorithm over a size sweep by
// fitting run time against graph size.
func GrowthExponent(alg Algorithm, sizes []int, seed int64, opt enum.Options, budget time.Duration) (k float64, points []Measurement) {
	r := newRand(seed)
	xs := make([]float64, 0, len(sizes))
	ys := make([]float64, 0, len(sizes))
	for _, n := range sizes {
		g := workload.MiBenchLike(r, n, workload.DefaultProfile())
		m := Run(alg, g, opt, budget)
		points = append(points, m)
		// Any early stop — not just a deadline — leaves Duration a lower
		// bound, which would silently flatten the fitted exponent.
		if !m.Stopped() {
			xs = append(xs, float64(n))
			ys = append(ys, m.Duration.Seconds())
		}
	}
	k, _ = FitPowerLaw(xs, ys)
	return k, points
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
