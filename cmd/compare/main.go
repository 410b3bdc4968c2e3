// Command compare regenerates the paper's evaluation (§6):
//
//	compare -mode figure5    run-time scatter, poly vs pruned exhaustive,
//	                         over the synthetic MiBench-like corpus + trees
//	compare -mode trees      the figure 4 worst case in isolation
//	compare -mode scaling    polynomial growth-exponent fit for the
//	                         enumeration algorithm
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
		mode   = flag.String("mode", "figure5", "figure5 | trees | scaling")
		seed   = flag.Int64("seed", 1, "corpus seed")
		nin    = flag.Int("nin", 4, "maximum inputs")
		nout   = flag.Int("nout", 2, "maximum outputs")
		budget = flag.Duration("budget", 30*time.Second, "wall-clock budget per run")
		small  = flag.Int("small", 150, "figure5: blocks in the 10-79 cluster")
		medium = flag.Int("medium", 80, "figure5: blocks in the 80-799 cluster")
		large  = flag.Int("large", 20, "figure5: blocks in the 800-1196 cluster")
		par    = flag.Int("parallel", 1,
			"worker count for sharding blocks across cores (0 = GOMAXPROCS); individual timed runs stay serial")
	)
	flag.Parse()
	// A zero port budget admits no cut, and its empty tables would read as
	// complete measurements.
	if *nin < 1 || *nout < 1 {
		fmt.Fprintf(os.Stderr, "compare: -nin and -nout must be at least 1 (got %d and %d)\n", *nin, *nout)
		os.Exit(2)
	}

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

	default:
		fmt.Fprintf(os.Stderr, "compare: unknown mode %q\n", *mode)
		os.Exit(2)
	}

	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "compare: interrupted; measurements after the signal are partial (flagged canceled)")
		os.Exit(130)
	}
}
