// Command compare regenerates the paper's evaluation (§6):
//
//	compare -mode figure5    run-time scatter, poly vs pruned exhaustive,
//	                         over the synthetic MiBench-like corpus + trees
//	compare -mode trees      the figure 4 worst case in isolation
//	compare -mode scaling    polynomial growth-exponent fit for the
//	                         enumeration algorithm
//	compare -mode ablation   approximate §5.3 prunings enabled one at a time
//
// All modes print plain-text tables; -budget bounds each individual run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"polyise/internal/bench"
	"polyise/internal/enum"
	"polyise/internal/workload"
)

func main() {
	var (
		mode   = flag.String("mode", "figure5", "figure5 | trees | scaling | ablation")
		seed   = flag.Int64("seed", 1, "corpus seed")
		nin    = flag.Int("nin", 4, "maximum inputs")
		nout   = flag.Int("nout", 2, "maximum outputs")
		budget = flag.Duration("budget", 30*time.Second, "wall-clock budget per run")
		small  = flag.Int("small", 150, "figure5: blocks in the 10-79 cluster")
		medium = flag.Int("medium", 80, "figure5: blocks in the 80-799 cluster")
		large  = flag.Int("large", 20, "figure5: blocks in the 800-1196 cluster")
		paper  = flag.Bool("paper", false,
			"use the paper-mode approximate prunings for the polynomial algorithm")
		par = flag.Int("parallel", 1,
			"worker count for sharding blocks across cores (0 = GOMAXPROCS); individual timed runs stay serial")
	)
	flag.Parse()

	// The first SIGINT cancels every in-flight measurement through the
	// context path: each run drains cleanly and reports itself
	// stopped-early, the tables computed so far still print, and the
	// process exits nonzero. A second SIGINT exits immediately — the escape
	// hatch when the drain itself takes too long.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "compare: interrupt: draining (interrupt again to exit immediately)")
		cancel()
		<-sigc
		os.Exit(130)
	}()

	opt := enum.DefaultOptions()
	if *paper {
		opt = enum.PaperOptions()
	}
	opt.MaxInputs = *nin
	opt.MaxOutputs = *nout
	opt.KeepCuts = false
	opt.Parallelism = *par
	opt.Context = ctx

	switch *mode {
	case "figure5":
		spec := workload.DefaultCorpusSpec()
		spec.Small, spec.Medium, spec.Large = *small, *medium, *large
		blocks := workload.Corpus(*seed, spec)
		points := bench.CompareCorpus(blocks, opt, *budget)
		bench.WriteScatter(os.Stdout, points)
		fmt.Println()
		bench.WriteSummary(os.Stdout, bench.Summarize(points))

	case "trees":
		var blocks []workload.Block
		for _, d := range []int{4, 5, 6, 7} {
			blocks = append(blocks, workload.Block{
				Name:    fmt.Sprintf("tree-depth%d", d),
				Cluster: workload.ClusterTree,
				G:       workload.Tree(d, 2),
			})
		}
		points := bench.CompareCorpus(blocks, opt, *budget)
		bench.WriteScatter(os.Stdout, points)

	case "scaling":
		sizes := []int{25, 50, 75, 100, 150, 200, 300}
		k, points := bench.GrowthExponent(bench.AlgPoly, sizes, *seed, opt, *budget)
		fmt.Printf("# polynomial algorithm scaling, Nin=%d Nout=%d\n", *nin, *nout)
		fmt.Printf("%8s %12s %10s %14s\n", "n", "seconds", "cuts", "stop")
		for _, m := range points {
			fmt.Printf("%8d %12.6f %10d %14v\n", m.N, m.Duration.Seconds(), m.Cuts, m.StopReason)
		}
		fmt.Printf("fitted exponent k = %.2f (theory bound: Nin+Nout+1 = %d)\n",
			k, *nin+*nout+1)

	case "ablation":
		runAblation(*seed, opt, *budget)

	default:
		fmt.Fprintf(os.Stderr, "compare: unknown mode %q\n", *mode)
		os.Exit(2)
	}

	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "compare: interrupted; measurements after the signal are partial (flagged canceled)")
		os.Exit(130)
	}
}

// runAblation measures what the approximate §5.3 prunings save by enabling
// each alone, and both (paper mode), on a mid-size workload slice. The
// exact prunings are always on, so the first row is the exact search.
func runAblation(seed int64, base enum.Options, budget time.Duration) {
	spec := workload.CorpusSpec{Small: 12, Medium: 2, Profile: workload.DefaultProfile()}
	blocks := workload.Corpus(seed, spec)

	type variant struct {
		name   string
		mutate func(*enum.Options)
	}
	variants := []variant{
		{"all-prunings", func(*enum.Options) {}},
		{"+dominator-input(approx)", func(o *enum.Options) { o.PruneDominatorInput = true }},
		{"+forbidden-anc(approx)", func(o *enum.Options) { o.PruneForbiddenAncestors = true }},
		{"paper-mode(all approx)", func(o *enum.Options) {
			o.PruneDominatorInput = true
			o.PruneForbiddenAncestors = true
		}},
	}

	fmt.Printf("# §5.3 pruning ablation over %d blocks\n", len(blocks))
	fmt.Printf("%-26s %12s %10s %10s\n", "variant", "seconds", "cuts", "stopped")
	for _, v := range variants {
		opt := base
		v.mutate(&opt)
		total := time.Duration(0)
		cuts, stopped := 0, 0
		for _, b := range blocks {
			m := bench.Run(bench.AlgPoly, b.G, opt, budget)
			total += m.Duration
			cuts += m.Cuts
			if m.Stopped() {
				stopped++
			}
		}
		fmt.Printf("%-26s %12.4f %10d %10d\n", v.name, total.Seconds(), cuts, stopped)
	}
}
