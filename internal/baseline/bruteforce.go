// Package baseline provides the comparison algorithms of §6 and the
// completeness oracles built on them: an exhaustive brute force over all
// vertex subsets, a faithful reimplementation of the Pozzi–Atasu–Ienne
// pruned exhaustive search (reference [15], the state-of-the-art
// exponential algorithm the paper races against in figure 5), the earlier
// Atasu–Pozzi–Ienne search (reference [4]), and the budgeted mid-size
// differential oracle (DiffOracle) that diffs package enum's output
// against the pruned search cut-for-cut.
//
// # Oracle scope
//
// Completeness of the polynomial enumeration is verified at two tiers,
// both driven from this package. BruteForce validates all 2^n vertex
// subsets and is ground truth for any Options, but only to n ≈ 16.
// PrunedSearch explores the same complete space with exact constraint
// propagation and stays tractable well past 200 vertices on MiBench-like
// blocks — the regime where the historical n ≥ 140 dedup-digest gap hid
// (EXPERIMENTS.md "PR 4 — resolved") — so DiffOracle extends the measured
// completeness bound to n ≈ 240 on the default corpus (`make
// diff-oracle`; the polynomial run's own cost, not the oracle's, bounds
// the sweep). Both tiers compare cuts by full vertex-set signature, never
// by the dedup digest, so the digest itself stays under audit.
package baseline

import (
	"fmt"

	"polyise/internal/bitset"
	"polyise/internal/dfg"
	"polyise/internal/enum"
)

// TooLargeError reports a graph BruteForce refuses to enumerate: the 2^n
// subset sweep is only ground truth while it terminates. It is a typed
// error (carried in Stats.Err, StopReason = StopError) rather than a panic,
// so oracle drivers can report the refusal instead of crashing.
type TooLargeError struct {
	Eligible int // eligible (non-forbidden) vertices in the graph
	Max      int // the sweep's eligible-vertex ceiling
}

func (e *TooLargeError) Error() string {
	return fmt.Sprintf("baseline: BruteForce limited to %d eligible vertices (graph has %d)", e.Max, e.Eligible)
}

// bruteForceMaxEligible caps the subset sweep at 2^30 candidates.
const bruteForceMaxEligible = 30

// BruteForce enumerates every subset of the eligible vertices (at most 2^n
// candidates) and validates each against the §3 problem statement. It is
// the ground truth used by the test suite; usable only for small graphs —
// beyond 30 eligible vertices it refuses with a *TooLargeError in
// Stats.Err. The visitor may return false to stop early.
func BruteForce(g *dfg.Graph, opt enum.Options, visit func(enum.Cut) bool) enum.Stats {
	var stats enum.Stats
	val := enum.NewValidator(g, opt)
	stop := enum.NewStopper(opt)
	n := g.N()
	// Eligible vertices: anything not forbidden and not a root.
	var elig []int
	for v := 0; v < n; v++ {
		if !g.IsForbidden(v) {
			elig = append(elig, v)
		}
	}
	if len(elig) > bruteForceMaxEligible {
		stats.Err = &TooLargeError{Eligible: len(elig), Max: bruteForceMaxEligible}
		stats.RecordStop(enum.StopError)
		return stats
	}
	S := bitset.New(n)
	for mask := uint64(1); mask < 1<<uint(len(elig)); mask++ {
		if r := stop.Poll(); r != enum.StopNone {
			stats.RecordStop(r)
			return stats
		}
		S.Clear()
		for i, v := range elig {
			if mask&(1<<uint(i)) != 0 {
				S.Add(v)
			}
		}
		stats.Candidates++
		var cut enum.Cut
		if !val.Validate(S, &cut) {
			stats.Invalid++
			continue
		}
		if !deliver(opt, &stats, visit, cut) {
			return stats
		}
	}
	return stats
}

// deliver counts c as valid and hands it to visit, reporting whether the
// search goes on. It stops, as package enum's searches do, when the
// visitor returns false (StopVisitor) or once MaxCuts cuts are delivered
// (StopBudget).
func deliver(opt enum.Options, st *enum.Stats, visit func(enum.Cut) bool, c enum.Cut) bool {
	st.Valid++
	if opt.KeepCuts {
		c.Nodes = c.Nodes.Clone()
	}
	if !visit(c) {
		st.RecordStop(enum.StopVisitor)
		return false
	}
	if opt.MaxCuts > 0 && st.Valid >= opt.MaxCuts {
		st.RecordStop(enum.StopBudget)
		return false
	}
	return true
}

// CollectBrute runs BruteForce and returns all valid cuts sorted
// deterministically.
func CollectBrute(g *dfg.Graph, opt enum.Options) ([]enum.Cut, enum.Stats) {
	opt.KeepCuts = true
	return enum.Collect(func(visit func(enum.Cut) bool) enum.Stats {
		return BruteForce(g, opt, visit)
	})
}
