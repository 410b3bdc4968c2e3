package enum_test

import (
	"os"
	"reflect"
	"testing"

	"polyise/internal/enum"
	"polyise/internal/workload"
)

// The gap-regression corpus test: on the instances where the pre-fix dedup
// digest dropped valid cuts for two engine revisions (EXPERIMENTS.md
// "Resolved: the n ≥ 140 completeness gap"), the merged cut sequence is
// pinned bit-for-bit. PR 2 and PR 3 reported 7 668 versus 7 669 cuts on
// the n=220 instance — the same missing-cut set surfacing differently
// because the collision victim is whichever cut of a colliding pair is
// visited second — so counting cuts is not enough: any engine revision
// must reproduce the identical sequence, or update these pins consciously
// with an EXPERIMENTS.md entry explaining why the enumeration changed.

// seqDigest is a byte-FNV-1a over the visit-ordered cut signatures,
// newline-separated. Deterministic in the graph and the canonical
// exploration order only — no machine or scheduling dependence (the
// parallel merge promises the serial order).
func seqDigest(seq []string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, s := range seq {
		for _, b := range []byte(s) {
			h = (h ^ uint64(b)) * 0x100000001b3
		}
		h = (h ^ '\n') * 0x100000001b3
	}
	return h
}

// pinnedSeq carries the expected enumeration sequence per gap instance.
var pinnedSeq = map[string]uint64{
	"mibench-n140-seed5":  0x77d366e5c552ee72,
	"mibench-n220-seed17": 0x19ee000363be6589,
}

// TestGapRegressionSequenceIdentity asserts, for every pinned gap
// instance, that (a) the serial visit sequence matches the pinned count
// and digest, (b) parallel runs at several worker counts reproduce it
// exactly, and (c) the basic figure 2 algorithm enumerates the same cut
// set (order differs by construction, so sets are compared sorted).
//
// Tiering keeps the cost sane: short mode (the race-detector sweep) runs
// only the n=140 instance without the basic cross-check; the basic
// algorithm at n=220 (~25 s) runs only under `make diff-oracle`
// (POLYISE_ORACLE_BUDGET set).
func TestGapRegressionSequenceIdentity(t *testing.T) {
	full := os.Getenv("POLYISE_ORACLE_BUDGET") != ""
	for _, gi := range workload.GapRegressionInstances() {
		gi := gi
		t.Run(gi.Name, func(t *testing.T) {
			if testing.Short() && gi.N > 150 {
				t.Skip("short mode: large instance covered by the non-race run")
			}
			g := gi.Graph()
			opt := enum.DefaultOptions()
			opt.Parallelism = 1
			serial := visitSequence(g, opt)
			if len(serial) != gi.WantCuts {
				t.Fatalf("%s: %d cuts, pinned %d", gi.Name, len(serial), gi.WantCuts)
			}
			if got := seqDigest(serial); got != pinnedSeq[gi.Name] {
				t.Fatalf("%s: sequence digest %#016x, pinned %#016x — the enumeration changed; "+
					"if intentional, update the pin and record why in EXPERIMENTS.md", gi.Name, got, pinnedSeq[gi.Name])
			}
			// workers=g.N() is the steal-forced schedule: one worker per
			// first-output position, so every load-balancing decision is an
			// interior steal — the digest must still match bit-for-bit.
			for _, workers := range []int{2, 5, g.N()} {
				popt := opt
				popt.Parallelism = workers
				if par := visitSequence(g, popt); !reflect.DeepEqual(serial, par) {
					t.Fatalf("%s: parallel w=%d sequence diverges from serial (%d vs %d cuts)",
						gi.Name, workers, len(par), len(serial))
				}
			}
			if testing.Short() || (gi.N > 150 && !full) {
				return
			}
			basic, _ := enum.CollectBasic(g, opt)
			incr, _ := enum.CollectAll(g, opt)
			if !reflect.DeepEqual(signatures(basic), signatures(incr)) {
				t.Fatalf("%s: basic algorithm cut set diverges (%d vs %d cuts)", gi.Name, len(basic), len(incr))
			}
		})
	}
}

// TestSequenceIdentityAtNin8 pins the enumeration at a wide input budget,
// where the seed loops run deepest: the figure 4 tree of depth 6 at
// Nin=8/Nout=2 must give its pinned count and digest serially, and the
// steal-forced parallel run (one worker per node) the identical sequence.
// The race run skips it for its budget.
func TestSequenceIdentityAtNin8(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: covered by the non-race run")
	}
	g := workload.Tree(6, 2)
	opt := enum.DefaultOptions()
	opt.MaxInputs, opt.MaxOutputs, opt.Parallelism = 8, 2, 1
	serial := visitSequence(g, opt)
	const wantCuts, wantDigest = 41223, 0xbff9c24664f1fbc1
	if got := seqDigest(serial); len(serial) != wantCuts || got != wantDigest {
		t.Fatalf("%d cuts with digest %#016x, pinned %d with %#016x", len(serial), got, wantCuts, uint64(wantDigest))
	}
	opt.Parallelism = g.N()
	if par := visitSequence(g, opt); !reflect.DeepEqual(serial, par) {
		t.Fatalf("steal-forced parallel sequence diverges from serial (%d vs %d cuts)", len(par), len(serial))
	}
}
