// Command benchjson times the tier-1 enumeration benchmarks and emits a
// machine-readable JSON record (ns/op, allocs/op, cuts and cuts/sec per
// benchmark), so the performance trajectory of the repository is committed
// alongside the code instead of living in transient CI logs.
//
// The benchmark instances mirror bench_test.go: the 220-node workload is
// measured as a worker-count scaling curve (1, 2, 4 and GOMAXPROCS
// workers, each entry carrying its speedup over the serial run), and the
// figure 5 size clusters compare the polynomial algorithm against the
// pruned exhaustive search of [15]. Each entry is timed by the standard
// library's benchmark runner (testing.Benchmark). The record is taken at
// the process's real GOMAXPROCS — the committed gomaxprocs field says what
// the parallel entries actually had available, so a single-core recording
// machine is visible in the data instead of silently flattening the curve.
//
// With -compare the command doubles as the CI regression gate: after
// measuring, each benchmark is checked against the same-named entry of the
// committed baseline file, and the process exits non-zero when cuts/sec
// regressed by more than -regress (default 15%), when allocs/op grew past
// the -allocslack headroom (the steady-state enumeration is allocation-
// free, so alloc growth is a leak in the scratch-reuse discipline, not
// noise), or when the cut count drifted at all (a correctness failure, not
// a performance one). Speedup curves are only comparable between machines
// with the same parallel hardware, so when the baseline's num_cpu or
// gomaxprocs differs from the current machine's the gate REFUSES to
// performance-compare the multi-worker scaling entries (cut counts are
// still gated — correctness does not depend on core count) and says so.
// -minspeedup, when positive, additionally fails the run if the largest
// scaling entry's speedup_vs_serial falls short — the machine-checked form
// of the "≥ 4× at 8 cores" acceptance bar; it requires gomaxprocs ≥ 8 and
// refuses (exit non-zero) to certify a speedup on fewer cores.
//
// Profiles of the same instances come from `go test -bench` (`make
// profile`), and the exact end-to-end scenario record (BENCH_PR9.json) is
// gated by `go test ./internal/bench/`; this command only measures time.
//
// Usage:
//
//	go run ./cmd/benchjson -o BENCH_PR6.json [-quick]
//	go run ./cmd/benchjson -o /tmp/fresh.json -quick -compare BENCH_PR6.json
//	go run ./cmd/benchjson -o /tmp/fresh.json -compare BENCH_PR6.json -minspeedup 4
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"testing"

	"polyise"
	"polyise/internal/workload"
)

// Result is one benchmark measurement.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	Workers     int     `json:"workers,omitempty"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Cuts        int     `json:"cuts"`
	CutsPerSec  float64 `json:"cuts_per_sec"`
	// Steals counts the interior search-tree ranges executed by a worker
	// other than their discoverer (Stats.Steals of the last iteration).
	// Scheduling-dependent by nature; recorded to show whether dynamic
	// re-balancing was actually active in a scaling entry.
	Steals int `json:"steals,omitempty"`
	// SpeedupVsSerial is cuts/sec relative to the workers=1 entry of the
	// same workload; only scaling-curve entries carry it.
	SpeedupVsSerial float64 `json:"speedup_vs_serial,omitempty"`
}

// Report is the file-level envelope.
type Report struct {
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"num_cpu"`
	Benchmarks []Result `json:"benchmarks"`
}

// measureWindows is how many independent testing.Benchmark runs each
// benchmark gets; the fastest is reported. On a shared vCPU a single
// window swings by ±40% with neighbor load, which a regression gate cannot
// survive; the minimum over a few windows estimates the machine's unloaded
// throughput — the quantity the gate actually wants to compare — the way
// `benchstat`-style workflows take min-time samples.
const measureWindows = 3

// measure times run with testing.Benchmark, which scales the iteration
// count until a window lasts the default benchtime (1 s), and keeps the
// fastest of measureWindows windows. Cuts and steals are those of the last
// run's Stats.
func measure(name string, run func(visit func(polyise.Cut) bool) polyise.Stats) Result {
	var best testing.BenchmarkResult
	var stats polyise.Stats
	for w := 0; w < measureWindows; w++ {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				stats = run(func(polyise.Cut) bool { return true })
			}
		})
		if w == 0 || r.NsPerOp() < best.NsPerOp() {
			best = r
		}
	}
	res := Result{
		Name:        name,
		Iterations:  best.N,
		NsPerOp:     best.NsPerOp(),
		AllocsPerOp: best.AllocsPerOp(),
		BytesPerOp:  best.AllocedBytesPerOp(),
		Cuts:        stats.Valid,
		Steals:      stats.Steals,
	}
	if res.NsPerOp > 0 {
		res.CutsPerSec = float64(res.Cuts) / (float64(res.NsPerOp) / 1e9)
	}
	fmt.Fprintf(os.Stderr, "%-32s %12d ns/op %10d allocs/op %8d cuts %12.0f cuts/sec\n",
		res.Name, res.NsPerOp, res.AllocsPerOp, res.Cuts, res.CutsPerSec)
	return res
}

// scalingWorkerCounts is the committed scaling curve: serial, 2, 4, and
// whatever the recording machine actually has, deduplicated and sorted —
// a 4-core machine records {1, 2, 4} once and an N-core machine adds N.
func scalingWorkerCounts() []int {
	counts := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	seen := map[int]bool{}
	var out []int
	for _, c := range counts {
		if c >= 1 && !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.Ints(out)
	return out
}

// scalingName labels a worker-count entry purely by its worker count
// (plus the historical "serial" name for 1), never by GOMAXPROCS: on a
// 2- or 4-core machine a GOMAXPROCS-derived name would swallow the w2/w4
// entry, and gate comparisons against a baseline from a different machine
// would silently skip exactly the sharded configurations.
func scalingName(workers int) string {
	if workers == 1 {
		return "ParallelEnumerate/serial"
	}
	return fmt.Sprintf("ParallelEnumerate/w%d", workers)
}

// gate compares a fresh report against the committed baseline and returns
// the regression messages (empty = pass). Benchmarks absent from either
// side are skipped: the gate protects the tier-1 set both files measured.
//
// Multi-worker scaling entries carry an extra precondition: their cuts/sec
// (and hence any speedup curve derived from them) is a property of the
// recording machine's parallel hardware, so when the reports disagree on
// num_cpu or gomaxprocs the gate refuses the performance comparison for
// entries with workers > 1 — printing what it skipped — instead of either
// failing spuriously (1-CPU CI against an 8-core baseline) or silently
// blessing a flattened curve (8-core CI against a 1-CPU baseline). Cut
// counts and allocs are still gated: correctness and the allocation
// discipline do not depend on core count.
func gate(fresh, baseline Report, regress float64, allocSlack int64) []string {
	base := make(map[string]Result, len(baseline.Benchmarks))
	for _, b := range baseline.Benchmarks {
		base[b.Name] = b
	}
	sameCPU := fresh.NumCPU == baseline.NumCPU && fresh.GOMAXPROCS == baseline.GOMAXPROCS
	var failures []string
	for _, f := range fresh.Benchmarks {
		b, ok := base[f.Name]
		if !ok {
			continue
		}
		// Cut-count drift is a correctness failure and fires regardless of
		// the baseline's timing fields (even a zero-cut baseline is gated).
		if f.Cuts != b.Cuts {
			failures = append(failures,
				fmt.Sprintf("%s: cut count drifted: %d, baseline %d (correctness regression)",
					f.Name, f.Cuts, b.Cuts))
			continue
		}
		// Allocation regression: the steady-state enumeration is allocation-
		// free, so allocs/op is a flat per-run constant (setup plus one-time
		// scratch growth), and exceeding the baseline beyond a small absolute
		// headroom means a leak in the scratch-reuse discipline rather than
		// noise. The headroom absorbs runtime-internal variance (GC
		// bookkeeping, goroutine stacks in the sharded entries); a real
		// per-candidate leak scales with the search tree and blows straight
		// past it.
		if f.AllocsPerOp > b.AllocsPerOp+allocSlack {
			failures = append(failures,
				fmt.Sprintf("%s: %d allocs/op exceeds baseline %d by more than %d (alloc regression)",
					f.Name, f.AllocsPerOp, b.AllocsPerOp, allocSlack))
			continue
		}
		if f.Workers > 1 && !sameCPU {
			fmt.Fprintf(os.Stderr,
				"bench-gate: refusing to compare %s across differing CPU counts (fresh %d cpu / %d maxprocs, baseline %d cpu / %d maxprocs)\n",
				f.Name, fresh.NumCPU, fresh.GOMAXPROCS, baseline.NumCPU, baseline.GOMAXPROCS)
			continue
		}
		if b.CutsPerSec <= 0 {
			continue
		}
		if f.CutsPerSec < b.CutsPerSec*(1-regress) {
			failures = append(failures,
				fmt.Sprintf("%s: %.0f cuts/sec is %.1f%% below baseline %.0f (allowed %.0f%%)",
					f.Name, f.CutsPerSec,
					100*(1-f.CutsPerSec/b.CutsPerSec), b.CutsPerSec, 100*regress))
		}
	}
	return failures
}

func main() {
	out := flag.String("o", "BENCH_PR6.json", "output JSON path")
	quick := flag.Bool("quick", false, "skip the 220-node scaling curve (CI smoke)")
	compare := flag.String("compare", "", "baseline BENCH_*.json to gate against (exit 1 on regression)")
	regress := flag.Float64("regress", 0.15, "allowed cuts/sec regression fraction for -compare")
	allocSlack := flag.Int64("allocslack", 128, "allowed absolute allocs/op growth over baseline for -compare")
	minSpeedup := flag.Float64("minspeedup", 0,
		"fail unless the largest scaling entry reaches this speedup over serial (requires gomaxprocs ≥ 8; 0 disables)")
	flag.Parse()

	opts := func(par int) polyise.Options {
		o := polyise.DefaultOptions()
		o.KeepCuts = false
		o.Parallelism = par
		return o
	}

	var rep Report
	rep.GoVersion = runtime.Version()
	rep.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rep.NumCPU = runtime.NumCPU()

	if !*quick {
		g := workload.MiBenchLike(rand.New(rand.NewSource(17)), 220, workload.DefaultProfile())
		serialCPS := 0.0
		for _, w := range scalingWorkerCounts() {
			res := measure(scalingName(w), func(v func(polyise.Cut) bool) polyise.Stats {
				return polyise.Enumerate(g, opts(w), v)
			})
			res.Workers = w
			if w == 1 {
				serialCPS = res.CutsPerSec
			}
			if serialCPS > 0 {
				res.SpeedupVsSerial = res.CutsPerSec / serialCPS
			}
			rep.Benchmarks = append(rep.Benchmarks, res)
		}
	}

	for _, s := range []struct {
		cluster string
		n       int
	}{{"small", 40}, {"medium", 120}} {
		g := workload.MiBenchLike(rand.New(rand.NewSource(5)), s.n, workload.DefaultProfile())
		rep.Benchmarks = append(rep.Benchmarks,
			measure(fmt.Sprintf("Figure5/poly/%s-n%d", s.cluster, s.n),
				func(v func(polyise.Cut) bool) polyise.Stats {
					return polyise.Enumerate(g, opts(1), v)
				}),
			measure(fmt.Sprintf("Figure5/pruned/%s-n%d", s.cluster, s.n),
				func(v func(polyise.Cut) bool) polyise.Stats {
					return polyise.PrunedExhaustiveSearch(g, opts(1), v)
				}),
		)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail("benchjson:", err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fail("benchjson:", err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)

	if *minSpeedup > 0 {
		if msg := checkMinSpeedup(rep, *minSpeedup); msg != "" {
			fail("bench-gate FAIL:", msg)
		}
	}

	if *compare != "" {
		raw, err := os.ReadFile(*compare)
		if err != nil {
			fail("benchjson: baseline:", err)
		}
		var baseline Report
		if err := json.Unmarshal(raw, &baseline); err != nil {
			fail("benchjson: baseline:", err)
		}
		if failures := gate(rep, baseline, *regress, *allocSlack); len(failures) > 0 {
			for _, f := range failures {
				fmt.Fprintln(os.Stderr, "bench-gate FAIL:", f)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bench-gate: %d benchmarks within %.0f%% of %s\n",
			len(rep.Benchmarks), 100**regress, *compare)
	}
}

// fail prints its arguments to stderr and exits 1.
func fail(args ...any) {
	fmt.Fprintln(os.Stderr, args...)
	os.Exit(1)
}

// checkMinSpeedup enforces the scaling acceptance bar on the fresh report:
// the largest-worker scaling entry must reach the requested speedup over
// the serial entry. A machine with fewer than 8 schedulable CPUs cannot
// certify a parallel speedup claim, so the check refuses to pass there
// rather than report a vacuous success — a 1-CPU recording stays visibly
// uncertified until the curve is re-recorded on real parallel hardware.
func checkMinSpeedup(rep Report, want float64) string {
	if rep.GOMAXPROCS < 8 {
		return fmt.Sprintf("minspeedup %.1f requires gomaxprocs ≥ 8 to certify; this machine has %d cpu / %d maxprocs — re-record the curve on parallel hardware",
			want, rep.NumCPU, rep.GOMAXPROCS)
	}
	best := Result{}
	for _, r := range rep.Benchmarks {
		if r.Workers > best.Workers {
			best = r
		}
	}
	if best.Workers <= 1 {
		return "minspeedup: no multi-worker scaling entry in this report (ran with -quick?)"
	}
	if best.SpeedupVsSerial < want {
		return fmt.Sprintf("%s: speedup %.2f× over serial, want ≥ %.1f×",
			best.Name, best.SpeedupVsSerial, want)
	}
	fmt.Fprintf(os.Stderr, "bench-gate: %s speedup %.2f× ≥ %.1f× on %d cpus\n",
		best.Name, best.SpeedupVsSerial, want, rep.NumCPU)
	return ""
}
