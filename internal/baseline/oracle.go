package baseline

import (
	"fmt"
	"sort"
	"time"

	"polyise/internal/dfg"
	"polyise/internal/enum"
)

// This file promotes the pruned-exhaustive search into a first-class
// differential oracle for the polynomial enumeration at mid sizes. The
// brute-force oracle (bruteforce.go) is exact but only feasible to n ≈ 16;
// PrunedSearch explores the same complete space with constraint
// propagation and stays tractable well past 200 vertices on memory-heavy
// MiBench-like blocks, which is exactly the regime where the n ≥ 140
// completeness gap hid. DiffOracle runs both algorithms under a wall-clock
// budget and diffs the exact cut sets, so "the enumeration is complete"
// is a measured statement up to the oracle coverage bound (n ≈ 240 on
// the default corpus) instead of an n ≤ 16 one.

// OracleReport is the outcome of one DiffOracle comparison.
type OracleReport struct {
	Name       string
	N          int // vertex count of the instance
	PolyCuts   int // valid cuts reported by enum.Enumerate
	PrunedCuts int // valid cuts reported by PrunedSearch

	// PolyStop and PrunedStop record how each run ended (StopNone for a
	// complete enumeration). Any other reason — deadline, cancel, budget —
	// leaves the counts partial and the comparison without a verdict; the
	// report says which run stopped and why instead of collapsing every
	// early stop into one "timed out" bit.
	PolyStop, PrunedStop enum.StopReason

	// Err carries the first error of either run — a contained panic, a
	// handoff stall, or a baseline refusal such as *TooLargeError — making
	// the comparison inconclusive for a reportable reason instead of a
	// crash.
	Err error

	// Missing and Extra hold example cut signatures present in exactly one
	// of the two enumerations (each capped at OracleMaxExamples);
	// MissingTotal/ExtraTotal are the uncapped tallies.
	Missing, Extra           []string
	MissingTotal, ExtraTotal int

	// BasicDisagrees notes missing cuts that EnumerateBasic (the
	// reference figure 2 algorithm, run only when cuts are missing and
	// the budget allows) also fails to produce — localizing a loss to the
	// shared layers (validation) rather than the incremental search
	// order.
	BasicDisagrees []string
}

// OracleMaxExamples caps the example lists carried in an OracleReport.
const OracleMaxExamples = 10

// Stopped reports whether either run ended early for any reason, leaving
// the counts partial.
func (r OracleReport) Stopped() bool {
	return r.PolyStop != enum.StopNone || r.PrunedStop != enum.StopNone
}

// Agree reports whether the comparison ran to completion with identical
// cut sets.
func (r OracleReport) Agree() bool {
	return !r.Stopped() && r.Err == nil && r.MissingTotal == 0 && r.ExtraTotal == 0
}

// String renders the report in one line for logs, with diagnostic detail
// only on disagreement.
func (r OracleReport) String() string {
	s := fmt.Sprintf("%s: poly=%d pruned=%d", r.Name, r.PolyCuts, r.PrunedCuts)
	if r.Err != nil {
		return s + fmt.Sprintf(" (error: %v: inconclusive)", r.Err)
	}
	if r.Stopped() {
		return s + fmt.Sprintf(" (stopped early: poly=%v pruned=%v: inconclusive)", r.PolyStop, r.PrunedStop)
	}
	if r.Agree() {
		return s + " (agree)"
	}
	s += fmt.Sprintf(" missing=%d extra=%d", r.MissingTotal, r.ExtraTotal)
	for _, m := range r.Missing {
		s += "\n  missing " + m
	}
	for _, x := range r.Extra {
		s += "\n  extra   " + x
	}
	for _, b := range r.BasicDisagrees {
		s += "\n  basic also misses: " + b
	}
	return s
}

// DiffOracle enumerates g twice — with the polynomial algorithm under opt
// and with the pruned-exhaustive search under the same constraints — and
// returns the exact set difference. budget bounds the wall clock of each
// run separately (zero = no bound); a run that exceeds it yields a report
// whose PolyStop/PrunedStop say so, whose counts are partial and which
// carries no verdict.
//
// Cut identity is the full vertex-set signature (Cut.String). On
// disagreement a re-check against EnumerateBasic separates
// incremental-search losses from losses in the layers both algorithms
// share.
func DiffOracle(name string, g *dfg.Graph, opt enum.Options, budget time.Duration) OracleReport {
	rep := OracleReport{Name: name, N: g.N()}
	if budget > 0 {
		opt.Deadline = time.Now().Add(budget)
	}
	poly, ps := enum.CollectAll(g, opt)
	if budget > 0 {
		opt.Deadline = time.Now().Add(budget)
	}
	pruned, rs := CollectPruned(g, opt)
	rep.PolyCuts, rep.PrunedCuts = len(poly), len(pruned)
	if ps.Err != nil {
		rep.Err = ps.Err
	} else if rs.Err != nil {
		rep.Err = rs.Err
	}
	// Any early stop — deadline, cancellation, budget, error — leaves the
	// counts partial: no verdict.
	rep.PolyStop, rep.PrunedStop = ps.StopReason, rs.StopReason
	if rep.Stopped() {
		return rep
	}

	have := make(map[string]bool, len(poly))
	for _, c := range poly {
		have[c.String()] = true
	}
	prunedHave := make(map[string]bool, len(pruned))
	var missing []enum.Cut
	for _, c := range pruned {
		s := c.String()
		prunedHave[s] = true
		if !have[s] {
			missing = append(missing, c)
			rep.MissingTotal++
			if len(rep.Missing) < OracleMaxExamples {
				rep.Missing = append(rep.Missing, s)
			}
		}
	}
	for _, c := range poly {
		if !prunedHave[c.String()] {
			rep.ExtraTotal++
			if len(rep.Extra) < OracleMaxExamples {
				rep.Extra = append(rep.Extra, c.String())
			}
		}
	}
	if rep.MissingTotal > 0 {
		rep.triage(g, opt, missing, budget)
	}
	return rep
}

// triage explains missing cuts by a cross-check against the basic
// algorithm, budget permitting. The example list is capped at
// OracleMaxExamples.
func (r *OracleReport) triage(g *dfg.Graph, opt enum.Options, missing []enum.Cut, budget time.Duration) {
	if budget > 0 {
		opt.Deadline = time.Now().Add(budget)
	}
	basic, bs := enum.CollectBasic(g, opt)
	if bs.StopReason != enum.StopNone {
		return
	}
	basicHave := make(map[string]bool, len(basic))
	for _, c := range basic {
		basicHave[c.String()] = true
	}
	for _, m := range missing {
		if len(r.BasicDisagrees) >= OracleMaxExamples {
			break
		}
		if !basicHave[m.String()] {
			r.BasicDisagrees = append(r.BasicDisagrees, m.String())
		}
	}
	sort.Strings(r.BasicDisagrees)
}
