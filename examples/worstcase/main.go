// worstcase runs the paper's figure 5 comparison on the figure 4 family:
// tree-shaped data-flow graphs, where a [4]-style exhaustive enumeration
// is provably O(1.6^n) and the paper expects the polynomial algorithm to
// win.
//
// For each tree depth the program runs both algorithms under the same
// Nin=4/Nout=2 constraint and prints their run times side by side. The
// ratio column is exhaustive time over polynomial time. Measured serially,
// the [15]-style pruned search used here is faster at every depth
// (ratio below 1), with identical cut counts.
package main

import (
	"fmt"
	"time"

	"polyise"
)

func main() {
	opt := polyise.DefaultOptions()
	opt.KeepCuts = false

	fmt.Printf("%-8s %6s %12s %16s %14s %8s\n",
		"tree", "nodes", "cuts", "poly", "exhaustive", "ratio")
	for depth := 3; depth <= 7; depth++ {
		g := polyise.TreeWorstCase(depth)

		polyCuts, polyTime := run(func(v func(polyise.Cut) bool) {
			polyise.Enumerate(g, opt, v)
		})
		exCuts, exTime := run(func(v func(polyise.Cut) bool) {
			polyise.PrunedExhaustiveSearch(g, opt, v)
		})
		if polyCuts != exCuts {
			panic(fmt.Sprintf("algorithms disagree: %d vs %d cuts", polyCuts, exCuts))
		}
		fmt.Printf("depth-%d %6d %12d %16v %14v %7.1fx\n",
			depth, g.N(), polyCuts, polyTime.Round(time.Microsecond),
			exTime.Round(time.Microsecond),
			float64(exTime)/float64(polyTime))
	}
}

func run(enumerate func(func(polyise.Cut) bool)) (int, time.Duration) {
	n := 0
	start := time.Now()
	enumerate(func(polyise.Cut) bool { n++; return true })
	return n, time.Since(start)
}
