package enum

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"slices"
	"testing"

	"polyise/internal/dfg"
	"polyise/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the committed work record")

// workRecord is the committed work record.
const workRecord = "testdata/work.json"

// allocSlack is the allocs/op headroom over the recorded value: the
// serial enumeration is allocation-free once warm, so whole-run allocs are
// setup plus one-time scratch growth, and a per-candidate leak blows
// straight past it.
const allocSlack = 128

// workBlock is one block of the work record with the port budgets it runs
// at. The heavy budgets run only under `make diff-oracle`
// (POLYISE_ORACLE_BUDGET set); allocs marks a block whose serial whole-run
// allocs/op the 4/2 row records.
type workBlock struct {
	name         string
	g            *dfg.Graph
	tier1, heavy [][2]int
	allocs       bool
}

func workBlocks() []workBlock {
	mib := func(n int, seed int64, tier1, heavy [][2]int, allocs bool) workBlock {
		name, g := workload.FreshOracleInstance(n, seed)
		return workBlock{name, g, tier1, heavy, allocs}
	}
	return []workBlock{
		mib(140, 5, [][2]int{{4, 2}, {6, 2}, {8, 2}, {4, 3}, {6, 3}}, nil, false),
		mib(220, 17, [][2]int{{4, 2}, {6, 2}, {4, 3}}, [][2]int{{8, 2}, {6, 3}}, true),
		{"tree-depth6", workload.Tree(6, 2), [][2]int{{4, 2}, {6, 2}, {8, 2}, {6, 3}}, nil, false},
		{"tree-depth7", workload.Tree(7, 2), [][2]int{{4, 2}, {6, 2}}, [][2]int{{8, 2}, {6, 3}}, false},
		{"butterfly-4", workload.Butterfly(4), [][2]int{{4, 2}, {6, 2}, {8, 2}, {6, 3}}, nil, false},
		{"butterfly-5", workload.Butterfly(5), [][2]int{{4, 2}}, [][2]int{{6, 2}, {8, 2}, {6, 3}}, false},
		mib(160, 2, [][2]int{{4, 2}}, nil, false), // the `deep` workload's MiBench block
		mib(40, 5, [][2]int{{4, 2}}, nil, true),   // BenchmarkFigure5's small cluster
		mib(120, 5, [][2]int{{4, 2}}, nil, true),  // and its medium cluster
		mib(90, 3, [][2]int{{4, 2}}, nil, false),  // the `stream` workload's blocks
		mib(120, 4, [][2]int{{4, 2}}, nil, false),
		{"tree-depth5", workload.Tree(5, 2), [][2]int{{4, 2}}, nil, false},
	}
}

// workRow is one row of the work record, keyed block/Nin/Nout: every Stats
// counter but the scheduling-dependent Steals, the work of a serial run,
// and, for the blocks that carry it, serial whole-run allocs/op.
type workRow struct {
	Key              string `json:"key"`
	Valid            int    `json:"valid"`
	Candidates       int    `json:"candidates"`
	Duplicates       int    `json:"duplicates"`
	Invalid          int    `json:"invalid"`
	LTRuns           int    `json:"lt_runs"`
	SeedsPruned      int    `json:"seeds_pruned"`
	OutputsTried     int    `json:"outputs_tried"`
	LastLevelTables  int    `json:"last_level_tables"`
	LastLevelLookups int    `json:"last_level_lookups"`
	work
	AllocsPerOp int64 `json:"allocs_per_op,omitempty"`
}

// statsHalf is the row's Stats part, the part a parallel run reproduces.
func (r workRow) statsHalf() workRow {
	r.work, r.AllocsPerOp = work{}, 0
	return r
}

func rowOf(key string, st Stats, w work) workRow {
	return workRow{key, st.Valid, st.Candidates, st.Duplicates, st.Invalid, st.LTRuns,
		st.SeedsPruned, st.OutputsTried, st.LastLevelTables, st.LastLevelLookups, w, 0}
}

// workReport is the envelope of the work record. go_version says which
// toolchain wrote it, for the allocs/op figures, and is not compared.
type workReport struct {
	GoVersion string    `json:"go_version"`
	Rows      []workRow `json:"rows"`
}

// serialWork runs the serial search the way Enumerate does and returns
// its Stats with the worker's work counts.
func serialWork(g *dfg.Graph, opt Options) (Stats, work) {
	e := newEnumShared(g, opt).newWorker(nil, nil)
	e.visit = func(Cut) bool { e.stats.Valid++; return true }
	for pos := 0; pos < g.N(); pos++ {
		e.pickOutputRange(0, pos, pos+1, opt.MaxInputs, opt.MaxOutputs)
	}
	return e.stats, e.work
}

// TestWorkRecord recomputes the work record and compares it with the
// committed testdata/work.json by exact equality, field by field; allocs/op
// may exceed the recorded value by at most allocSlack and is skipped under
// -race. Every counter is a function of the search alone, so any drift is
// a behaviour change; if it is intended, regenerate the record with `make
// work-json`: under -update the departures are logged, not failed on.
// Each row also checks that every candidate is accounted for (Valid +
// Duplicates + Invalid + OverBudget), and the Stats half of the n=140 gap
// instance's 4/2 and 6/2 rows must hold at 3 workers too; either failure
// refuses the rewrite. -short (the race run) keeps the rows of at most 150
// nodes at 4/2.
func TestWorkRecord(t *testing.T) {
	full := os.Getenv("POLYISE_ORACLE_BUDGET") != ""
	if *update && (!full || testing.Short() || raceEnabled) {
		t.Fatal("-update measures every row: set POLYISE_ORACLE_BUDGET and run without -short and -race (`make work-json`)")
	}
	raw, err := os.ReadFile(workRecord)
	if err != nil && !*update {
		t.Fatal(err)
	}
	var rec workReport
	if err == nil {
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatalf("%s: %v", workRecord, err)
		}
	}
	departs := t.Errorf
	if *update {
		departs = t.Logf
	}
	recorded := map[string]workRow{}
	for _, r := range rec.Rows {
		recorded[r.Key] = r
	}

	var fresh []workRow
	for _, blk := range workBlocks() {
		for _, ports := range slices.Concat(blk.tier1, blk.heavy) {
			key := fmt.Sprintf("%s/%d/%d", blk.name, ports[0], ports[1])
			want, ok := recorded[key]
			if !ok && !*update {
				t.Errorf("%s: missing from %s (regenerate with `make work-json`)", key, workRecord)
			}
			delete(recorded, key)
			heavy := !slices.Contains(blk.tier1, ports)
			if (heavy && !full) || (testing.Short() && (blk.g.N() > 150 || ports != [2]int{4, 2})) {
				continue
			}
			opt := DefaultOptions()
			opt.Parallelism, opt.KeepCuts = 1, false
			opt.MaxInputs, opt.MaxOutputs = ports[0], ports[1]
			st, w := serialWork(blk.g, opt)
			got := rowOf(key, st, w)
			if rest := st.Candidates - st.Valid - st.Duplicates - st.Invalid - w.OverBudget; rest != 0 {
				t.Errorf("%s: %d candidates neither valid, duplicate, invalid nor over the output budget", key, rest)
			}
			if blk.allocs && ports == [2]int{4, 2} && !raceEnabled {
				got.AllocsPerOp = int64(testing.AllocsPerRun(1, func() {
					Enumerate(blk.g, opt, func(Cut) bool { return true })
				}))
			}
			if blk.name == "mibench-n140-seed5" && ports[0] <= 6 && ports[1] == 2 {
				opt.Parallelism = 3
				pst := Enumerate(blk.g, opt, func(Cut) bool { return true })
				if par := rowOf(key, pst, work{}); par != got.statsHalf() {
					t.Errorf("%s at 3 workers: %+v, serial %+v", key, par, got.statsHalf())
				}
			}
			fresh = append(fresh, got)
			if !ok {
				continue
			}
			if raceEnabled {
				want.AllocsPerOp = 0
			}
			for _, d := range diffRows(got, want) {
				departs("%s: %s", key, d)
			}
		}
	}
	if !*update {
		for key := range recorded {
			t.Errorf("%s: in %s but not in the suite", key, workRecord)
		}
		return
	}
	if t.Failed() {
		t.Fatal("not rewriting the work record from a failing run")
	}
	data, err := json.MarshalIndent(workReport{runtime.Version(), fresh}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(workRecord, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// diffRows lists the fields on which a fresh row departs from its record:
// any change of a counter, and allocs/op past the headroom.
func diffRows(got, want workRow) []string {
	var diffs []string
	if got.AllocsPerOp > want.AllocsPerOp+allocSlack {
		diffs = append(diffs, fmt.Sprintf("allocs_per_op %d, record %d (+%d headroom)", got.AllocsPerOp, want.AllocsPerOp, allocSlack))
	}
	got.AllocsPerOp, want.AllocsPerOp = 0, 0
	if got == want {
		return diffs
	}
	var g, w map[string]any
	for _, c := range []struct {
		row workRow
		m   *map[string]any
	}{{got, &g}, {want, &w}} {
		data, _ := json.Marshal(c.row)
		if err := json.Unmarshal(data, c.m); err != nil {
			panic(err)
		}
	}
	for _, k := range slices.Sorted(maps.Keys(w)) {
		if g[k] != w[k] {
			diffs = append(diffs, fmt.Sprintf("%s %v, record %v", k, g[k], w[k]))
		}
	}
	return diffs
}
