// Command perfbench is polyise's benchmark: it drives the library and the
// polyised service through one workload for a fixed time, checks every
// result, and prints one JSON line of metrics. See README.md for the
// workloads, the metrics and how to run it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"polyise/internal/enum"
)

// setupRounds is how many times a run sets its workload up, once per slice
// of the measurement window; setup_s is the fastest.
const setupRounds = 9

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is one set-up instance of a workload.
type env struct {
	op  func(*block) (sample, error)
	svc *service // stream only
}

func (e *env) close() {
	if e.svc != nil {
		e.svc.close()
	}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: deep, pipeline or stream")
		seed    = flag.Int64("seed", 1, "seed the inputs are made from")
		seconds = flag.Float64("seconds", 10, "how long to measure")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics and writes spans under .bench_build/spans")
		server  = flag.String("polyised", "", "polyised binary the stream workload starts")
	)
	flag.Parse()
	res, spans, err := run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *server)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *trace == 1 {
		if err := writeSpans(*name, *seed, spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func specsFor(name string) ([]spec, error) {
	switch name {
	case "deep":
		return deepSpecs()
	case "pipeline":
		return pipelineSpecs()
	case "stream":
		return streamSpecs, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want deep, pipeline or stream)", name)
}

func run(name string, seed int64, window time.Duration, trace bool, server string) (result, []span, error) {
	specs, err := specsFor(name)
	if err != nil {
		return result{}, nil, err
	}
	// One P: the measurements do not depend on the host's core count, and
	// every enumeration is serial — the library's in-process runs set
	// Parallelism 1, and the service's default worker count is GOMAXPROCS.
	runtime.GOMAXPROCS(1)

	blocks, err := makeBlocks(specs, seed)
	if err != nil {
		return result{}, nil, err
	}
	if name == "stream" {
		if err := addStreamReferences(blocks); err != nil {
			return result{}, nil, err
		}
	}

	// The run is setupRounds slices, each set up afresh: start the service where
	// there is one, then run every block once so lazily built state exists
	// and caches are warm; then measure for its share of the window. A set-up
	// is timed as the service's start plus the timed part of those first ops,
	// so the checks do not count.
	var (
		e                 *env
		setups            []float64
		failures          []error
		attempted, failed int
	)
	defer func() {
		if e != nil {
			e.close()
		}
	}()
	per := make([][]sample, len(blocks))
	for r := 0; r < setupRounds; r++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		e, err = newEnv(name, server)
		if err != nil {
			return result{}, nil, err
		}
		setup := time.Since(t0)
		for _, b := range blocks {
			s, err := e.op(b)
			setup += s.total
			if err == nil {
				err = verify(b, &s)
			}
			if err != nil {
				failures = append(failures, fmt.Errorf("setup: %s: %w", b.name, err))
			}
		}
		setups = append(setups, setup.Seconds())

		end := time.Now().Add(window / setupRounds)
		for pass := 0; pass == 0 || time.Now().Before(end); pass++ {
			for i, b := range blocks {
				attempted++
				s, err := e.op(b)
				if err == nil {
					err = verify(b, &s)
				}
				if err != nil {
					failed++
					failures = append(failures, fmt.Errorf("%s: %w", b.name, err))
					continue
				}
				s.g, s.cuts = nil, nil // keep only what the metrics need
				per[i] = append(per[i], s)
			}
		}
	}
	// One more pass reads the allocation counter around each op alone.
	var allocated uint64
	if trace {
		for _, b := range blocks {
			attempted++
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			s, err := e.op(b)
			runtime.ReadMemStats(&ms1)
			allocated += ms1.TotalAlloc - ms0.TotalAlloc
			if err == nil {
				err = verify(b, &s)
			}
			if err != nil {
				failed++
				failures = append(failures, fmt.Errorf("%s: %w", b.name, err))
			}
		}
	}
	for _, err := range failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
	}
	for i, ss := range per {
		if len(ss) == 0 {
			return result{}, nil, fmt.Errorf("%s: no successful op", blocks[i].name)
		}
	}

	res := result{
		Correct:   len(failures) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
	if !trace {
		// The fastest set-up, for the reason block_ms takes fastest ops.
		endToEnd(res.Metrics, per, slices.Min(setups))
		return res, nil, nil
	}
	perLayer(res.Metrics, per, float64(allocated)/float64(len(blocks)))
	return res, spansOf(blocks, per), nil
}

func newEnv(name, server string) (*env, error) {
	if name != "stream" {
		return &env{op: runLocal}, nil
	}
	svc, err := startService(server)
	if err != nil {
		return nil, err
	}
	return &env{op: svc.runStream, svc: svc}, nil
}

// addStreamReferences fixes the visit order every streamed response must
// reproduce: the library's own serial enumeration of the same graph.
func addStreamReferences(blocks []*block) error {
	for _, b := range blocks {
		var hs []uint64
		st := enum.Enumerate(b.g, b.eopt, func(c enum.Cut) bool {
			hs = append(hs, cutHash(c.Nodes, nil))
			return true
		})
		if st.StopReason != enum.StopNone {
			return fmt.Errorf("%s: reference enumeration stopped: %v", b.name, st.StopReason)
		}
		b.seq, b.ref = seqDigest(hs), &st
	}
	return nil
}

// fastest returns, for each block, the least f over its ops: the time of
// the run's least disturbed op. On a shared host the neighbours' load slows
// the whole machine by up to half for tens of seconds at a time — wall and
// CPU time grow alike — so a median over one run measures the neighbours
// as much as the program, while the fastest op repeats from run to run.
func fastest(per [][]sample, f func(*sample) float64) []float64 {
	out := make([]float64, len(per))
	for i, ss := range per {
		out[i] = f(&ss[0])
		for j := range ss[1:] {
			out[i] = min(out[i], f(&ss[j+1]))
		}
	}
	return out
}

func geomean(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += math.Log(x)
	}
	return math.Exp(t / float64(len(xs)))
}

func mean(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEnd fills the metrics a user of the system sees.
func endToEnd(m map[string]metric, per [][]sample, setup float64) {
	opMS := fastest(per, func(s *sample) float64 { return ms(s.total) })
	// Blocks differ in cost by three orders of magnitude; the geometric mean
	// weighs a change in each block's latency alike.
	m["block_ms"] = metric{geomean(opMS), "ms"}
	cuts, busy := 0.0, 0.0
	for i, ss := range per {
		cuts += float64(ss[0].stats.Valid)
		busy += opMS[i] / 1000
	}
	m["cuts_per_s"] = metric{cuts / busy, "1/s"}
	m["setup_s"] = metric{setup, "s"}
}

// perLayer fills the per-layer metrics: each layer's fastest time per op,
// and the exact work counts of one pass over the blocks.
func perLayer(m map[string]metric, per [][]sample, allocPerOp float64) {
	for l := 0; l < numLayers; l++ {
		m[layerNames[l]+"_ms"] = metric{mean(fastest(per, func(s *sample) float64 { return ms(s.layers[l]) })), "ms"}
	}
	m["first_cut_ms"] = metric{mean(fastest(per, func(s *sample) float64 { return ms(s.firstCut) })), "ms"}

	var st enum.Stats
	saved, rtl, httpBytes := 0, 0, 0
	for _, ss := range per {
		s := ss[0] // the work of an op is the same on every op of a block
		st.Valid += s.stats.Valid
		st.Candidates += s.stats.Candidates
		st.Duplicates += s.stats.Duplicates
		st.Invalid += s.stats.Invalid
		st.LTRuns += s.stats.LTRuns
		st.SeedsPruned += s.stats.SeedsPruned
		st.OutputsTried += s.stats.OutputsTried
		saved += s.sel.BlockCyclesBefore - s.sel.BlockCyclesAfter
		rtl += s.rtlBytes
		httpBytes += s.httpBytes
	}
	count := func(name string, v int) { m[name] = metric{float64(v), "count"} }
	count("cuts", st.Valid)
	count("candidates", st.Candidates)
	count("duplicates", st.Duplicates)
	count("invalid", st.Invalid)
	count("lt_runs", st.LTRuns)
	count("seeds_pruned", st.SeedsPruned)
	count("outputs_tried", st.OutputsTried)
	count("saved_cycles", saved)
	m["rtl_bytes"] = metric{float64(rtl), "bytes"}
	m["http_bytes"] = metric{float64(httpBytes), "bytes"}
	m["cut_yield"] = metric{ratio(st.Valid, st.Candidates), "ratio"}
	m["alloc_kib_per_op"] = metric{allocPerOp / 1024, "KiB"}
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// span is one layer of one op, in microseconds from the op's start; the
// op's own span has layer "op" and parent "".
type span struct {
	Op      int     `json:"op"`
	Block   string  `json:"block"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

func spansOf(blocks []*block, per [][]sample) []span {
	var out []span
	op := 0
	for i, ss := range per {
		for _, s := range ss {
			out = append(out, span{Op: op, Block: blocks[i].name, Name: "op", EndUS: us(s.total)})
			at := time.Duration(0)
			for l := 0; l < numLayers; l++ {
				out = append(out, span{Op: op, Block: blocks[i].name, Name: layerNames[l], Parent: "op",
					StartUS: us(at), EndUS: us(at + s.layers[l])})
				at += s.layers[l]
			}
			op++
		}
	}
	return out
}

func us(d time.Duration) float64 { return math.Round(float64(d)/float64(time.Microsecond)*1000) / 1000 }

// writeSpans writes the spans as JSON lines under .bench_build/spans in the
// working directory.
func writeSpans(name string, seed int64, spans []span) (err error) {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed)))
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, f.Close()) }()
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}
