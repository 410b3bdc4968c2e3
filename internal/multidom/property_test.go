package multidom

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"polyise/internal/workload"
)

// TestEnumerateMatchesCheckExhaustively pins Enumerate against its own
// definition: on small random graphs, for every vertex o, the enumerated
// dominator sets of size ≤ maxSize must be exactly the subsets of o's
// candidate pool (its augmented-graph ancestors, ReachTo) that Check
// accepts. The Dubrova seed-set generation, the redundant-superset
// filtering and the once-rule (each set derived only from its largest
// member) all sit between those two functions, so any pruning bug shows up
// as a missing or extra set here.
func TestEnumerateMatchesCheckExhaustively(t *testing.T) {
	const maxSize = 3
	for seed := int64(0); seed < 12; seed++ {
		n := 8 + int(seed)
		g := workload.MiBenchLike(rand.New(rand.NewSource(seed)), n, workload.DefaultProfile())
		e := New(g)
		for o := 0; o < g.N(); o++ {
			if g.IsRoot(o) {
				continue
			}
			cand := g.ReachTo(o).Members()
			want := bruteForceDominators(e, cand, o, maxSize)
			got := e.Enumerate(o, maxSize)
			for _, s := range got {
				sort.Ints(s)
			}
			sortSets(got)
			sortSets(want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, n %d, o %d:\nEnumerate = %v\nbrute     = %v",
					seed, n, o, got, want)
			}
		}
	}
}

// bruteForceDominators returns every subset of cand with 1..maxSize
// members that Check accepts, each sorted ascending.
func bruteForceDominators(e *Enumerator, cand []int, o, maxSize int) [][]int {
	var out [][]int
	var cur []int
	var rec func(start int)
	rec = func(start int) {
		if len(cur) > 0 && len(cur) <= maxSize {
			if e.Check(cur, o) {
				out = append(out, append([]int(nil), cur...))
			}
		}
		if len(cur) == maxSize {
			return
		}
		for i := start; i < len(cand); i++ {
			cur = append(cur, cand[i])
			rec(i + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	return out
}
