// Command isex enumerates the convex cuts of a data-flow graph under
// input/output port constraints and, optionally, selects an instruction set
// extension and reports the estimated speedup.
//
// Usage:
//
//	isex -nin 4 -nout 2 block.dfg          enumerate, print a summary
//	isex -list block.dfg                   additionally print every cut
//	isex -select -max-instr 4 block.dfg    pick an ISE and report speedup
//	isex -expr kernel.x                    input is exprc source, not a DFG
//	isex -dot-best out.dot block.dfg       write the best cut as DOT
//	isex -checkpoint run.ckpt block.dfg    crash-tolerant run; SIGINT drains,
//	                                       snapshots and exits 130
//	isex -checkpoint run.ckpt -resume ...  continue where the snapshot stopped
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"time"

	"polyise/internal/checkpoint"
	"polyise/internal/dfg"
	"polyise/internal/enum"
	"polyise/internal/exprc"
	"polyise/internal/graphio"
	"polyise/internal/ise"
)

func main() {
	var (
		nin       = flag.Int("nin", 4, "maximum inputs (register read ports)")
		nout      = flag.Int("nout", 2, "maximum outputs (register write ports)")
		connected = flag.Bool("connected", false, "restrict to connected cuts")
		maxDepth  = flag.Int("max-depth", 0, "restrict cut depth (0 = unlimited)")
		list      = flag.Bool("list", false, "print every enumerated cut")
		doSelect  = flag.Bool("select", false, "select an ISE and report speedup")
		maxInstr  = flag.Int("max-instr", 0, "instruction budget for -select (0 = unlimited)")
		area      = flag.Float64("area", 0, "area budget for -select (0 = unlimited)")
		expr      = flag.Bool("expr", false, "input file is exprc source")
		dotBest   = flag.String("dot-best", "", "write DOT with the best cut highlighted")
		rtlBest   = flag.String("rtl-best", "", "write a Verilog module for the best cut")
		iterate   = flag.Int("iterate", 0, "run N rounds of iterative identify+collapse")
		timeout   = flag.Duration("timeout", 0, "abort enumeration after this long")
		par       = flag.Int("parallel", 0,
			"enumeration shard workers (0 = GOMAXPROCS, 1 = the paper's serial algorithm)")
		ckptPath = flag.String("checkpoint", "",
			"write crash-tolerant snapshots to this file (SIGINT drains and checkpoints before exiting)")
		ckptEvery = flag.Int("checkpoint-every", 10000,
			"with -checkpoint: also snapshot every N delivered cuts (0 = only on stop)")
		resume = flag.Bool("resume", false,
			"resume the enumeration from the -checkpoint file instead of starting over")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: isex [flags] <block.dfg | kernel.x>")
		flag.PrintDefaults()
		os.Exit(2)
	}

	// A zero port budget admits no cut, and its empty result would read as
	// a complete enumeration.
	if *nin < 1 || *nout < 1 {
		fmt.Fprintf(os.Stderr, "isex: -nin and -nout must be at least 1 (got %d and %d)\n", *nin, *nout)
		os.Exit(2)
	}

	// A negative limit or count would run as if it were unset.
	for _, f := range []struct {
		name string
		neg  bool
	}{
		{"timeout", *timeout < 0},
		{"area", *area < 0},
		{"max-depth", *maxDepth < 0},
		{"iterate", *iterate < 0},
		{"max-instr", *maxInstr < 0},
		{"checkpoint-every", *ckptEvery < 0},
		{"parallel", *par < 0},
	} {
		if f.neg {
			fmt.Fprintf(os.Stderr, "isex: -%s must not be negative (got %s)\n", f.name, flag.Lookup(f.name).Value)
			os.Exit(2)
		}
	}

	if *resume && *ckptPath == "" {
		fmt.Fprintln(os.Stderr, "isex: -resume requires -checkpoint <file>")
		os.Exit(2)
	}

	g, err := loadGraph(flag.Arg(0), *expr)
	if err != nil {
		fatal(err)
	}

	// The first SIGINT stops the run cleanly: with -checkpoint it trips the
	// preemption hook, so the enumeration drains to a visit point and writes
	// a final resumable snapshot; without it the context path cancels the
	// run and the partial stats still print. A second SIGINT exits
	// immediately with the conventional status — the escape hatch when the
	// drain itself is what the user wants to kill.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ckptStop := make(chan struct{})
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt)
	go func() {
		<-sigc
		if *ckptPath != "" {
			fmt.Fprintln(os.Stderr, "isex: interrupt: checkpointing (interrupt again to exit immediately)")
			close(ckptStop)
		} else {
			cancel()
		}
		<-sigc
		os.Exit(130)
	}()

	opt := enum.DefaultOptions()
	opt.MaxInputs = *nin
	opt.MaxOutputs = *nout
	opt.ConnectedOnly = *connected
	opt.MaxDepth = *maxDepth
	opt.Parallelism = *par
	opt.Context = ctx
	if *timeout > 0 {
		opt.Deadline = time.Now().Add(*timeout)
	}
	if *ckptPath != "" {
		opt.CheckpointPath = *ckptPath
		opt.CheckpointEvery = *ckptEvery
		opt.CheckpointStop = ckptStop
	}

	start := time.Now()
	var cuts []enum.Cut
	var stats enum.Stats
	if *resume {
		snap, err := checkpoint.ReadFile(*ckptPath)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("resuming from %s: %d cuts already visited, frontier at node %d\n",
			*ckptPath, snap.Visited, snap.CurTop)
		opt.KeepCuts = true
		var rerr error
		stats, rerr = enum.ResumeEnumerate(g, opt, snap, func(c enum.Cut) bool {
			cuts = append(cuts, c)
			return true
		})
		if errors.Is(rerr, enum.ErrCompleted) {
			fmt.Println("checkpoint records a completed run; nothing to resume")
			return
		}
		if rerr != nil && stats.Err == nil {
			// Validation refusals (graph/options mismatch) happen before the
			// run starts and are not carried in Stats.
			fatal(rerr)
		}
		// CollectAll sorts by vertex set; present the resumed cuts the same way.
		sort.Slice(cuts, func(i, j int) bool {
			return cuts[i].Nodes.Compare(cuts[j].Nodes) < 0
		})
	} else {
		cuts, stats = enum.CollectAll(g, opt)
	}
	dur := time.Since(start)

	fmt.Printf("graph: %d nodes, %d edges, %d roots, %d forbidden\n",
		g.N(), g.NumEdges(), len(g.Roots()), len(g.Forbidden()))
	fmt.Printf("constraint: Nin=%d Nout=%d connected=%v\n", *nin, *nout, *connected)
	fmt.Printf("valid cuts: %d   (candidates %d, duplicates %d, analyses %d) in %v\n",
		stats.Valid, stats.Candidates, stats.Duplicates, stats.LTRuns, dur)
	if stats.Err != nil {
		fatal(stats.Err)
	}
	if stats.StopReason != enum.StopNone {
		fmt.Printf("WARNING: enumeration stopped early (%v); results are partial\n", stats.StopReason)
	}

	if *list {
		for _, c := range cuts {
			fmt.Println(" ", c)
		}
	}

	if stats.StopReason == enum.StopCheckpoint {
		// First SIGINT with -checkpoint: the run drained to a visit point
		// and the final snapshot is on disk; rerun with -resume to continue.
		fmt.Printf("checkpoint written to %s (%d cuts visited); resume with -resume\n",
			*ckptPath, stats.Valid)
		os.Exit(130)
	}
	if stats.StopReason == enum.StopCanceled {
		// Interrupted: the partial stats (and cut list, if requested) are
		// printed; selection and reports over a truncated cut set would be
		// misleading, so stop here with the conventional SIGINT status.
		os.Exit(130)
	}

	est := ise.NewEstimator(g, ise.DefaultModel())
	var best ise.Estimate
	for _, c := range cuts {
		if e := est.Estimate(c); e.Saving > best.Saving {
			best = e
		}
	}
	if best.Cut.Nodes != nil {
		fmt.Printf("best single instruction: %v\n", best)
	}

	if *doSelect {
		sopt := ise.DefaultSelectOptions()
		sopt.MaxInstructions = *maxInstr
		sopt.AreaBudget = *area
		sel := ise.Select(g, ise.DefaultModel(), cuts, sopt)
		fmt.Printf("selected %d instructions, area %.1f\n", len(sel.Chosen), sel.TotalArea)
		for _, c := range sel.Chosen {
			fmt.Println(" ", c)
		}
		fmt.Printf("block cycles: %d -> %d   speedup %.2fx\n",
			sel.BlockCyclesBefore, sel.BlockCyclesAfter, sel.Speedup())
	}

	if *dotBest != "" && best.Cut.Nodes != nil {
		f, err := os.Create(*dotBest)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := graphio.WriteDOT(f, g, graphio.DOTOptions{Highlight: best.Cut.Nodes, Name: "best"}); err != nil {
			fatal(err)
		}
	}

	if *rtlBest != "" && best.Cut.Nodes != nil {
		f, err := os.Create(*rtlBest)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := ise.WriteVerilog(f, g, best.Cut, "ise_best"); err != nil {
			fatal(err)
		}
	}

	if *iterate > 0 {
		res, err := ise.IterativeIdentify(g, opt, ise.DefaultModel(), *iterate)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("iterative flow: %d rounds, block cycles %d -> %d, speedup %.2fx\n",
			len(res.Rounds), res.CyclesBefore, res.CyclesAfter, res.Speedup())
		for i, r := range res.Rounds {
			fmt.Printf("  round %d: %v\n", i, r.Instruction)
		}
	}
}

func loadGraph(path string, isExpr bool) (*dfg.Graph, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if isExpr {
		return exprc.Compile(string(data))
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graphio.Read(f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "isex:", err)
	os.Exit(1)
}
