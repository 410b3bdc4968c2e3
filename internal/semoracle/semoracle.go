// Package semoracle is the semantic differential-testing layer for the ISE
// pipeline. Where internal/baseline certifies the *enumeration* (the set of
// cuts is complete), semoracle certifies the *meaning* of what the pipeline
// does with those cuts: collapsing a cut into a custom instruction must
// preserve the block's observable behaviour under the interpreter
// (CheckCuts), and instruction selection must be optimal against an
// exhaustive reference on instances small enough to brute-force
// (CheckSelection, selection.go). Reports follow the baseline.OracleReport
// contract: typed stop reasons, no verdict on a budgeted early stop, and
// capped example lists for triage.
package semoracle

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"polyise/internal/dfg"
	"polyise/internal/enum"
	"polyise/internal/interp"
)

// MaxExamples caps the example lists carried in a report.
const MaxExamples = 10

// CutConfig configures a CheckCuts sweep.
type CutConfig struct {
	// Envs is the number of randomized environments each cut is executed
	// under; 0 means DefaultEnvs.
	Envs int
	// Seed addresses the randomized coverage: the environments for cut k
	// are a pure function of (Seed, k), so a failure report names a
	// reproducible configuration.
	Seed int64
	// MaxCuts, when positive, bounds the sweep to the first MaxCuts cuts
	// of the serial enumeration order (a bit-exact prefix at any worker
	// count); the report is then inconclusive-on-stop, not a verdict.
	MaxCuts int
	// Budget, when positive, bounds the wall clock of the whole sweep.
	Budget time.Duration
	// Options are the enumeration constraints; a zero MaxInputs selects
	// enum.DefaultOptions (Nin=4, Nout=2).
	Options enum.Options
}

// DefaultEnvs is the per-cut environment count the acceptance bar asks for.
const DefaultEnvs = 8

// CutReport is the outcome of one CheckCuts sweep: every enumerated cut of
// one instance executed collapsed-vs-original under randomized
// environments.
type CutReport struct {
	Name string
	N    int // vertex count of the instance
	Cuts int // cuts checked
	Envs int // environments per cut

	// Stop records how the enumeration ended (StopNone for a complete
	// sweep). Any other reason — deadline, budget, cancellation — leaves
	// the sweep partial and the report without a verdict.
	Stop enum.StopReason

	// Err carries the first pipeline error (extraction, collapse, or an
	// interpreter refusal), making the sweep inconclusive for a
	// reportable reason instead of a crash.
	Err error

	// Mismatches holds example divergences "cut… env=… node…" (capped at
	// MaxExamples); MismatchTotal is the uncapped tally.
	Mismatches    []string
	MismatchTotal int
}

// Stopped reports whether the sweep ended early, leaving coverage partial.
func (r CutReport) Stopped() bool { return r.Stop != enum.StopNone }

// Agree reports whether the sweep ran to completion with every cut
// semantics-preserving under every environment.
func (r CutReport) Agree() bool {
	return !r.Stopped() && r.Err == nil && r.MismatchTotal == 0
}

// String renders the report in one line for logs, with diagnostic detail
// only on disagreement.
func (r CutReport) String() string {
	s := fmt.Sprintf("%s: n=%d cuts=%d envs=%d", r.Name, r.N, r.Cuts, r.Envs)
	if r.Err != nil {
		return s + fmt.Sprintf(" (error: %v: inconclusive)", r.Err)
	}
	if r.Stopped() {
		return s + fmt.Sprintf(" (stopped early: %v: inconclusive)", r.Stop)
	}
	if r.Agree() {
		return s + " (agree)"
	}
	s += fmt.Sprintf(" mismatches=%d", r.MismatchTotal)
	for _, m := range r.Mismatches {
		s += "\n  " + m
	}
	return s
}

// CheckCuts enumerates every cut of g under cfg.Options and, for each,
// asserts that collapsing the cut — with the extracted datapath as the
// custom instruction's implementation — leaves the block's observable
// behaviour unchanged: every surviving node's value and the full memory
// state (initialized from a seeded pseudorandom image so load/store
// reordering is visible, the PR 1 memory-dependence edge class) must match
// the original's on cfg.Envs randomized environments per cut.
//
// Coverage is seed-addressable: environments for cut k derive from
// (cfg.Seed, k) only, so any reported divergence replays exactly under the
// same config regardless of worker count (enumeration order is the serial
// order at any parallelism).
//
// The checks of different cuts are independent, so they run on
// GOMAXPROCS goroutines fed in enumeration order, and the outcomes are
// folded in cut order afterwards: the report is the one a serial sweep
// produces. Under a Budget, every cut visited before the deadline is
// certified, so the sweep overruns it by the checks still queued then (at
// most two per checker).
func CheckCuts(name string, g *dfg.Graph, cfg CutConfig) CutReport {
	rep := CutReport{Name: name, N: g.N(), Envs: cfg.Envs}
	if rep.Envs <= 0 {
		rep.Envs = DefaultEnvs
	}
	opt := cfg.Options
	if opt.MaxInputs == 0 {
		opt = enum.DefaultOptions()
	}
	opt.MaxCuts = cfg.MaxCuts
	if cfg.Budget > 0 {
		opt.Deadline = time.Now().Add(cfg.Budget)
	}
	// Each visited cut is cloned for its checker, so the enumerator need
	// not retain node sets itself.
	opt.KeepCuts = false

	type job struct {
		k int
		c enum.Cut
	}
	type outcome struct {
		examples []string // "cut k … env=…" per diverging environment
		err      error
	}
	var (
		mu       sync.Mutex
		outcomes []outcome // indexed by cut; appended by the visitor
		failed   atomic.Bool
		wg       sync.WaitGroup
	)
	workers := runtime.GOMAXPROCS(0)
	jobs := make(chan job, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				var o outcome
				mismatches, err := CheckCut(g, j.c, rep.Envs, cfg.Seed^(int64(j.k)+1)*0x9e3779b9)
				if err != nil {
					o.err = fmt.Errorf("cut %d %v: %w", j.k, j.c, err)
					failed.Store(true)
				}
				for _, m := range mismatches {
					o.examples = append(o.examples, fmt.Sprintf("cut %d %v %s", j.k, j.c, m))
				}
				mu.Lock()
				outcomes[j.k] = o
				mu.Unlock()
			}
		}()
	}
	stats := enum.Enumerate(g, opt, func(c enum.Cut) bool {
		if failed.Load() {
			return false
		}
		mu.Lock()
		k := len(outcomes)
		outcomes = append(outcomes, outcome{})
		mu.Unlock()
		jobs <- job{k: k, c: c.Clone()}
		return true
	})
	close(jobs)
	wg.Wait()

	for k, o := range outcomes {
		rep.Cuts = k + 1
		if o.err != nil {
			rep.Err = o.err // a serial sweep stops at its first pipeline error
			break
		}
		for _, m := range o.examples {
			rep.record(m)
		}
	}
	rep.Stop = stats.StopReason
	if rep.Err == nil && stats.Err != nil {
		rep.Err = stats.Err
	}
	return rep
}

// CheckCut certifies one cut of g: the collapsed graph, with the extracted
// datapath as the custom instruction's implementation, is executed against
// the original on envs randomized environments derived from seed. It
// returns one description per diverging environment (nil means the cut is
// semantics-preserving on this coverage) and an error when the pipeline
// itself fails (extraction, collapse, or an interpreter refusal).
func CheckCut(g *dfg.Graph, c enum.Cut, envs int, seed int64) ([]string, error) {
	fn, err := interp.CutFn(g, c.Nodes, c.Outputs)
	if err != nil {
		return nil, fmt.Errorf("extract: %w", err)
	}
	collapsed, cmap, err := g.CollapseCut(c.Nodes, "oracle", 1)
	if err != nil {
		return nil, fmt.Errorf("collapse: %w", err)
	}
	// The survivors in ascending original id, so every environment compares
	// them in the same order and reports the lowest diverging node.
	survivors := make([][2]int, 0, len(cmap))
	for orig := 0; orig < g.N(); orig++ {
		if nid, ok := cmap[orig]; ok {
			survivors = append(survivors, [2]int{orig, nid})
		}
	}
	customs := map[string]interp.CustomFn{"oracle": fn}
	var mismatches []string
	// One splitmix64 stream per call: seeding it is free, unlike a
	// math/rand source. Both runs finish with an environment before the
	// next one overwrites vals.
	rng := interp.NewSplitMix64(uint64(seed))
	vals := make([]int32, len(g.Roots()))
	for e := 0; e < envs; e++ {
		for i := range vals {
			vals[i] = int32(rng.Next())
		}
		memSeed := rng.Next()
		memA := interp.NewSeededMemory(memSeed)
		memB := interp.NewSeededMemory(memSeed)
		resA, err := interp.Run(g, interp.Env{RootValues: vals, Mem: memA})
		if err != nil {
			return nil, fmt.Errorf("env %d: original: %w", e, err)
		}
		resB, err := interp.Run(collapsed, interp.Env{
			RootValues: vals, // root order is preserved by CollapseCut
			Mem:        memB,
			Customs:    customs,
		})
		if err != nil {
			return nil, fmt.Errorf("env %d: collapsed: %w", e, err)
		}
		for _, sv := range survivors {
			orig, nid := sv[0], sv[1]
			if resA.Values[orig] != resB.Values[nid] {
				mismatches = append(mismatches, fmt.Sprintf("env=%d node %d: %d vs %d",
					e, orig, resA.Values[orig], resB.Values[nid]))
				break
			}
		}
		if !memA.Equal(memB) {
			mismatches = append(mismatches, fmt.Sprintf("env=%d: memory diverged", e))
		}
	}
	return mismatches, nil
}

func (r *CutReport) record(example string) {
	r.MismatchTotal++
	if len(r.Mismatches) < MaxExamples {
		r.Mismatches = append(r.Mismatches, example)
	}
}
