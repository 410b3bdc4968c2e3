package main

import (
	"bytes"
	"fmt"
	"time"

	"polyise/internal/dfg"
	"polyise/internal/enum"
	"polyise/internal/graphio"
	"polyise/internal/ise"
	"polyise/internal/semoracle"
)

// The layers one op passes through, in order. Each op of every workload
// visits all of them, so every per-layer time is measured on every
// workload.
const (
	layerBuild  = iota // text → frozen graph (graphio.Read; in the stream: POST /v1/graphs)
	layerEnum          // enumeration, cuts collected (in the stream: the NDJSON response, decoded)
	layerSelect        // ise.Select over the collected cuts
	layerRTL           // ise.WriteVerilog for every chosen instruction
	layerCheck         // semoracle.CheckCut: collapsed ≡ original under the interpreter
	numLayers
)

var layerNames = [numLayers]string{"build", "enum", "select", "rtl", "check"}

// checkEnvs is the interpreter environment count per chosen instruction,
// the same as the pipeline scenarios of internal/bench use.
const checkEnvs = 4

// sample is what one op measured and produced.
type sample struct {
	start    time.Time
	layers   [numLayers]time.Duration
	firstCut time.Duration // from the start of the enum layer to the first cut
	total    time.Duration

	g        *dfg.Graph
	cuts     []enum.Cut // in visit order
	stats    enum.Stats
	sel      ise.Selection
	rtlBytes int
	mismatch int

	httpBytes int // stream only: NDJSON bytes received
}

// clock stamps consecutive layer boundaries of one op.
type clock struct {
	s    *sample
	last time.Time
}

func startClock(s *sample) clock {
	s.start = time.Now()
	return clock{s: s, last: s.start}
}

func (c *clock) lap(layer int) {
	now := time.Now()
	c.s.layers[layer] = now.Sub(c.last)
	c.last = now
}

func (c *clock) stop() { c.s.total = c.last.Sub(c.s.start) }

// runLocal is one op of the in-process workloads: the block's text goes
// through the whole ISE flow a compiler would run on it.
func runLocal(b *block) (sample, error) {
	var s sample
	clk := startClock(&s)
	g, err := graphio.Read(bytes.NewReader(b.text))
	if err != nil {
		return s, fmt.Errorf("build: %w", err)
	}
	clk.lap(layerBuild)

	var cuts []enum.Cut
	s.stats = enum.Enumerate(g, b.eopt, func(c enum.Cut) bool {
		if len(cuts) == 0 {
			s.firstCut = time.Since(clk.last)
		}
		cuts = append(cuts, c)
		return true
	})
	clk.lap(layerEnum)
	if s.stats.StopReason != enum.StopNone {
		return s, fmt.Errorf("enumeration stopped: %v (%v)", s.stats.StopReason, s.stats.Err)
	}
	if err := finishFlow(&s, &clk, g, b, cuts); err != nil {
		return s, err
	}
	return s, nil
}

// finishFlow runs the layers after enumeration, shared by every workload.
func finishFlow(s *sample, clk *clock, g *dfg.Graph, b *block, cuts []enum.Cut) error {
	s.g, s.cuts = g, cuts
	s.sel = ise.Select(g, ise.DefaultModel(), cuts, b.sopt)
	clk.lap(layerSelect)

	var rtl bytes.Buffer
	for i, c := range s.sel.Chosen {
		if err := ise.WriteVerilog(&rtl, g, c.Cut, fmt.Sprintf("ise%d", i)); err != nil {
			return fmt.Errorf("verilog for instruction %d: %w", i, err)
		}
	}
	s.rtlBytes = rtl.Len()
	clk.lap(layerRTL)

	for i, c := range s.sel.Chosen {
		bad, err := semoracle.CheckCut(g, c.Cut, checkEnvs, int64(i)+0x5ce)
		if err != nil {
			return fmt.Errorf("re-check of instruction %d: %w", i, err)
		}
		s.mismatch += len(bad)
	}
	clk.lap(layerCheck)
	clk.stop()
	return nil
}

// verify checks one op's results against the block's references. It runs
// outside the timed op.
func verify(b *block, s *sample) error {
	if len(s.cuts) != b.wantCuts {
		return fmt.Errorf("%d cuts, want %d", len(s.cuts), b.wantCuts)
	}
	if s.stats.Valid != len(s.cuts) {
		return fmt.Errorf("stats report %d cuts, %d delivered", s.stats.Valid, len(s.cuts))
	}
	if b.ref != nil {
		if s.stats.Candidates != b.ref.Candidates {
			return fmt.Errorf("service validated %d candidates, the library's serial run %d", s.stats.Candidates, b.ref.Candidates)
		}
		// The terminal record carries only valid and candidates; with those
		// equal the run did the serial run's work, so take its counters.
		s.stats = *b.ref
	}
	hashes := make([]uint64, len(s.cuts))
	for i, c := range s.cuts {
		hashes[i] = cutHash(c.Nodes, nil)
	}
	if d := setDigest(hashes); d != b.refSet {
		return fmt.Errorf("cut set differs from the pruned-exhaustive baseline's")
	}
	seq := seqDigest(hashes)
	if b.seq == 0 {
		b.seq = seq
	} else if seq != b.seq {
		return fmt.Errorf("visit order changed between runs of the same block")
	}
	if b.wantCyclesBefore != 0 && s.sel.BlockCyclesBefore != b.wantCyclesBefore {
		return fmt.Errorf("block cycles %d, want %d", s.sel.BlockCyclesBefore, b.wantCyclesBefore)
	}
	if bad := semoracle.Invariants(s.g, s.sel, b.eopt, b.sopt); len(bad) != 0 {
		return fmt.Errorf("selection invariants: %v", bad)
	}
	if len(s.sel.Chosen) > 0 && s.rtlBytes == 0 {
		return fmt.Errorf("no RTL emitted for %d instructions", len(s.sel.Chosen))
	}
	if s.mismatch != 0 {
		return fmt.Errorf("%d interpreter mismatches between collapsed and original block", s.mismatch)
	}
	return nil
}
