package enum_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"polyise/internal/baseline"
	"polyise/internal/dfg"
	"polyise/internal/enum"
	"polyise/internal/workload"
)

// TestEachCutDerivedOnce pins the canonical-derivation theorem
// (docs/ALGORITHM.md §5) that lets Enumerate run without any record of the
// cuts it delivered: on random brute-force-size graphs, under port
// constraints up to 6/2 and 2/4 and under every option variant that
// changes the search but not the definition of a cut, the serial and the
// parallel visit sequences never repeat a vertex set and equal the
// brute-force cut set. A repeat would mean a cut with two canonical
// derivations; a missing cut, one with none.
func TestEachCutDerivedOnce(t *testing.T) {
	variants := func(nin, nout int) map[string]enum.Options {
		std := enum.DefaultOptions()
		std.MaxInputs, std.MaxOutputs = nin, nout
		conn := std
		conn.ConnectedOnly = true
		depth := std
		depth.MaxDepth = 2
		return map[string]enum.Options{
			"default": std, "connected": conn, "max-depth": depth,
		}
	}
	ports := [][2]int{{1, 1}, {2, 1}, {3, 2}, {4, 2}, {6, 2}, {2, 4}}
	type graphCase struct {
		name string
		g    *dfg.Graph
	}
	var graphs []graphCase
	for seed := int64(1); seed <= 12; seed++ {
		n := 10 + int(seed)%7
		graphs = append(graphs, graphCase{fmt.Sprintf("mibench-n%d-seed%d", n, seed),
			workload.MiBenchLike(rand.New(rand.NewSource(seed)), n, workload.DefaultProfile())})
	}
	graphs = append(graphs, graphCase{"tree-d4", workload.Tree(4, 2)}, graphCase{"butterfly-2", workload.Butterfly(2)})

	for _, gc := range graphs {
		for _, io := range ports {
			for name, opt := range variants(io[0], io[1]) {
				want, _ := baseline.CollectBrute(gc.g, opt)
				wantSigs := append([]string{}, signatures(want)...)
				sort.Strings(wantSigs)
				for _, workers := range []int{1, 4} {
					popt := opt
					popt.Parallelism = workers
					popt.KeepCuts = true
					got := []string{}
					seen := make(map[string]bool)
					enum.Enumerate(gc.g, popt, func(c enum.Cut) bool {
						sig := c.Nodes.Signature()
						if seen[sig] {
							t.Errorf("%s io=%v opt=%s workers=%d: cut %v delivered twice", gc.name, io, name, workers, c)
						}
						seen[sig] = true
						got = append(got, sig)
						return true
					})
					sort.Strings(got)
					if !reflect.DeepEqual(got, wantSigs) {
						t.Fatalf("%s io=%v opt=%s workers=%d: %d cuts, brute force %d",
							gc.name, io, name, workers, len(got), len(wantSigs))
					}
				}
			}
		}
	}
}
