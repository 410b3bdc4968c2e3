package main

import (
	"strings"
	"testing"
)

// TestGate pins each check of the regression gate at its boundary: exact
// cut counts, allocs/op within the absolute headroom, and cuts/sec within
// the regress fraction, with the cuts/sec comparison (and only it) skipped
// for multi-worker entries recorded on a different CPU count.
func TestGate(t *testing.T) {
	const regress, slack = 0.35, 128
	serial := Result{Name: "Figure5/poly/small-n40", Cuts: 245, AllocsPerOp: 200, CutsPerSec: 1000}
	multi := Result{Name: "ParallelEnumerate/w2", Workers: 2, Cuts: 7891, AllocsPerOp: 30000, CutsPerSec: 1000}
	report := func(cpus int, rs ...Result) Report {
		return Report{GOMAXPROCS: cpus, NumCPU: cpus, Benchmarks: rs}
	}
	with := func(r Result, edit func(*Result)) Result {
		edit(&r)
		return r
	}
	for _, tc := range []struct {
		name            string
		fresh, baseline Report
		fail            string // substring of the one expected failure; "" = pass
	}{
		{"identical", report(1, serial), report(1, serial), ""},
		{"cut drift",
			report(1, with(serial, func(r *Result) { r.Cuts++ })), report(1, serial), "cut count drifted"},
		{"cut drift against a zero-cut baseline",
			report(1, serial), report(1, with(serial, func(r *Result) { r.Cuts, r.CutsPerSec = 0, 0 })), "cut count drifted"},
		{"allocs at the headroom",
			report(1, with(serial, func(r *Result) { r.AllocsPerOp += slack })), report(1, serial), ""},
		{"allocs one past the headroom",
			report(1, with(serial, func(r *Result) { r.AllocsPerOp += slack + 1 })), report(1, serial), "alloc regression"},
		{"cuts/sec at the bound",
			report(1, with(serial, func(r *Result) { r.CutsPerSec = 650 })), report(1, serial), ""},
		{"cuts/sec just under the bound",
			report(1, with(serial, func(r *Result) { r.CutsPerSec = 649.99 })), report(1, serial), "below baseline"},
		{"other CPU count skips multi-worker cuts/sec",
			report(2, with(multi, func(r *Result) { r.CutsPerSec = 1 })), report(1, multi), ""},
		{"other CPU count still gates multi-worker cuts",
			report(2, with(multi, func(r *Result) { r.Cuts++ })), report(1, multi), "cut count drifted"},
		{"other CPU count still gates multi-worker allocs",
			report(2, with(multi, func(r *Result) { r.AllocsPerOp += slack + 1 })), report(1, multi), "alloc regression"},
		{"other CPU count still gates serial cuts/sec",
			report(2, with(serial, func(r *Result) { r.CutsPerSec = 1 })), report(1, serial), "below baseline"},
		{"same CPU count gates multi-worker cuts/sec",
			report(2, with(multi, func(r *Result) { r.CutsPerSec = 1 })), report(2, multi), "below baseline"},
		{"entry missing from the baseline", report(1, serial), report(1), ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := gate(tc.fresh, tc.baseline, regress, slack)
			switch {
			case tc.fail == "" && len(got) != 0:
				t.Fatalf("want pass, got %q", got)
			case tc.fail != "" && (len(got) != 1 || !strings.Contains(got[0], tc.fail)):
				t.Fatalf("want one failure containing %q, got %q", tc.fail, got)
			}
		})
	}
}

// TestCheckMinSpeedup pins the scaling bar: it refuses to certify below 8
// schedulable CPUs whatever the curve says, needs a multi-worker entry,
// and compares the largest one against the requested speedup.
func TestCheckMinSpeedup(t *testing.T) {
	curve := []Result{
		{Name: "ParallelEnumerate/serial", Workers: 1, SpeedupVsSerial: 1},
		{Name: "ParallelEnumerate/w4", Workers: 4, SpeedupVsSerial: 3.5},
		{Name: "ParallelEnumerate/w8", Workers: 8, SpeedupVsSerial: 4.2},
	}
	for _, tc := range []struct {
		name  string
		procs int
		rs    []Result
		want  float64
		fail  string // substring of the failure; "" = pass
	}{
		{"certified at 8 procs", 8, curve, 4, ""},
		{"short of the bar", 8, curve, 4.5, "want ≥ 4.5×"},
		{"refused below 8 procs", 7, curve, 1, "requires gomaxprocs ≥ 8"},
		{"no multi-worker entry", 8, curve[:1], 4, "no multi-worker scaling entry"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			msg := checkMinSpeedup(Report{GOMAXPROCS: tc.procs, NumCPU: tc.procs, Benchmarks: tc.rs}, tc.want)
			if tc.fail == "" && msg != "" || tc.fail != "" && !strings.Contains(msg, tc.fail) {
				t.Fatalf("got %q, want failure containing %q", msg, tc.fail)
			}
		})
	}
}
