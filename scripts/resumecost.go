//go:build ignore

// resumecost measures what a checkpoint resume costs. A resume replays the
// top-level subtree that was in progress at the snapshot, and the restored
// dedup table suppresses the cuts already delivered (docs/ALGORITHM.md
// §12); the replay re-runs dominator analyses the interrupted run had
// already done. For budget stops at 10 %, 20 %, …, 90 % of one block's cuts
// the tool takes the final snapshot, resumes from it serially, checks that
// the resumed suffix is the uninterrupted run's, and prints one markdown
// row per stop point:
//
//   - remaining: LTRuns of the uninterrupted run after the stop point;
//   - resumed: LTRuns the resumed run did itself;
//   - the replay overhead, resumed − remaining, absolute and in percent.
//
// Run from the repository root:
//
//	go run scripts/resumecost.go [-n 140] [-seed 5]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"

	"polyise/internal/checkpoint"
	"polyise/internal/enum"
	"polyise/internal/workload"
)

func main() {
	n := flag.Int("n", 140, "MiBench-like block size")
	seed := flag.Int64("seed", 5, "block generator seed")
	flag.Parse()

	g := workload.MiBenchLike(rand.New(rand.NewSource(*seed)), *n, workload.DefaultProfile())
	opt := enum.DefaultOptions()
	opt.Parallelism = 1

	var serial []string
	total := enum.Enumerate(g, opt, func(c enum.Cut) bool {
		serial = append(serial, c.String())
		return true
	})
	fmt.Printf("mibench-n%d-seed%d: %d cuts, %d LTRuns uninterrupted\n\n", *n, *seed, total.Valid, total.LTRuns)
	fmt.Println("| stop point | Visited | CurTop | remaining LTRuns | resumed LTRuns | replay overhead |")
	fmt.Println("|---:|---:|---:|---:|---:|---:|")

	dir, err := os.MkdirTemp("", "resumecost")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "run.ckpt")

	for pct := 10; pct <= 90; pct += 10 {
		stopOpt := opt
		stopOpt.CheckpointPath = path
		stopOpt.MaxCuts = total.Valid * pct / 100
		enum.Enumerate(g, stopOpt, func(enum.Cut) bool { return true })
		snap, err := checkpoint.ReadFile(path)
		if err != nil {
			fail(err)
		}

		var suffix []string
		resumed, err := enum.ResumeEnumerate(g, opt, snap, func(c enum.Cut) bool {
			suffix = append(suffix, c.String())
			return true
		})
		if err != nil {
			fail(err)
		}
		if !slices.Equal(suffix, serial[snap.Visited:]) {
			fail(fmt.Errorf("%d %%: resumed suffix diverges from the uninterrupted run", pct))
		}

		before := int(snap.Stats.LTRuns)
		remaining := total.LTRuns - before
		own := resumed.LTRuns - before
		extra := own - remaining
		fmt.Printf("| %d %% | %d | %d | %d | %d | %d (%.1f %%) |\n",
			pct, snap.Visited, snap.CurTop, remaining, own, extra, 100*float64(extra)/float64(remaining))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "resumecost:", err)
	os.Exit(1)
}
