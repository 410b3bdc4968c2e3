package enum

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"polyise/internal/checkpoint"
	"polyise/internal/workload"
)

// TestKeptCutsOwnTheirStorage checks the contract of Options.KeepCuts
// against the slabs behind it: every kept cut owns its node set, inputs and
// outputs, so writing into one cut changes no other, and no window can
// grow into its neighbour. The runs span several node-set chunks and cover
// the serial search, 4 workers, and resumes at 1 and 4 workers from a
// snapshot of a run capped halfway. Each cut is first compared with the
// serial reference, then stamped with its own index in every word and
// entry; every stamp must read back intact once all cuts are stamped.
func TestKeptCutsOwnTheirStorage(t *testing.T) {
	g := workload.MiBenchLike(rand.New(rand.NewSource(3)), 60, workload.DefaultProfile())
	opt := DefaultOptions()
	opt.Parallelism = 1
	var serial []string
	Enumerate(g, opt, func(c Cut) bool { serial = append(serial, c.String()); return true })
	if len(serial) <= 2*cutChunk {
		t.Fatalf("%d cuts fill fewer than three chunks of %d", len(serial), cutChunk)
	}
	collect := func(cuts *[]Cut) func(Cut) bool {
		return func(c Cut) bool { *cuts = append(*cuts, c); return true }
	}
	runs := map[string][]Cut{}
	for _, workers := range []int{1, 4} {
		o := opt
		o.Parallelism = workers
		var cuts []Cut
		Enumerate(g, o, collect(&cuts))
		runs[fmt.Sprintf("%d workers", workers)] = cuts

		// The resumed run's cuts follow its own capped prefix's, so that
		// stamping one run never writes into another's.
		path := filepath.Join(t.TempDir(), "half.ckpt")
		capped := opt
		capped.MaxCuts, capped.CheckpointPath = len(serial)/2, path
		cuts = nil
		Enumerate(g, capped, collect(&cuts))
		snap, err := checkpoint.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ResumeEnumerate(g, o, snap, collect(&cuts)); err != nil {
			t.Fatal(err)
		}
		runs[fmt.Sprintf("resumed at %d workers", workers)] = cuts
	}

	for name, cuts := range runs {
		if len(cuts) != len(serial) {
			t.Fatalf("%s: %d cuts, serial %d", name, len(cuts), len(serial))
		}
		for i, c := range cuts {
			if c.String() != serial[i] {
				t.Fatalf("%s: cut %d is %v, serial %s", name, i, c, serial[i])
			}
			if w := c.Nodes.Words(); cap(w) != len(w) || cap(c.Inputs) != len(c.Inputs) || cap(c.Outputs) != len(c.Outputs) {
				t.Fatalf("%s: cut %d can grow into its neighbour: cap %d/%d/%d, len %d/%d/%d", name, i,
					cap(w), cap(c.Inputs), cap(c.Outputs), len(w), len(c.Inputs), len(c.Outputs))
			}
		}
		for i, c := range cuts {
			stamp(c, i)
		}
		for i, c := range cuts {
			if j := stampOf(c, i); j != i {
				t.Fatalf("%s: cut %d shares storage with cut %d", name, i, j)
			}
		}
	}
}

// stamp writes i into every word of c's node set and every entry of its
// inputs and outputs.
func stamp(c Cut, i int) {
	w := c.Nodes.Words()
	for k := range w {
		w[k] = uint64(i)
	}
	for _, s := range [][]int{c.Inputs, c.Outputs} {
		for k := range s {
			s[k] = i
		}
	}
}

// stampOf returns the first stamp in c that is not i, or i.
func stampOf(c Cut, i int) int {
	for _, w := range c.Nodes.Words() {
		if int(w) != i {
			return int(w)
		}
	}
	for _, s := range [][]int{c.Inputs, c.Outputs} {
		for _, v := range s {
			if v != i {
				return v
			}
		}
	}
	return i
}

// TestKeptCutsAllocationFree bounds what keeping cuts costs: a warm serial
// run on the n=140 gap instance with KeepCuts on, its cuts collected into
// a slice sized beforehand, allocates fewer than one object per 8 kept
// cuts (one-time setup plus a share of each slab chunk; a copy per cut
// would be at least one each). Skipped under -race, whose instrumentation
// allocates.
func TestKeptCutsAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates")
	}
	gap := workload.GapRegressionInstances()[0]
	g := gap.Graph()
	opt := DefaultOptions()
	opt.Parallelism = 1
	kept := make([]Cut, 0, gap.WantCuts)
	allocs := testing.AllocsPerRun(1, func() {
		kept = kept[:0]
		Enumerate(g, opt, func(c Cut) bool { kept = append(kept, c); return true })
	})
	if len(kept) != gap.WantCuts {
		t.Fatalf("%d cuts, want %d", len(kept), gap.WantCuts)
	}
	if allocs*8 >= float64(len(kept)) {
		t.Fatalf("%.0f allocations for %d kept cuts, want fewer than one per 8", allocs, len(kept))
	}
	t.Logf("%.0f allocations for %d kept cuts", allocs, len(kept))
}
