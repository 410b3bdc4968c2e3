package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the committed scenario record")

// scenarioRecord is the committed scenario record, BENCH_PR9.json at the
// repository root.
const scenarioRecord = "../../BENCH_PR9.json"

// scenarioReport is the envelope of the scenario record. go_version says
// which toolchain wrote it and is not compared.
type scenarioReport struct {
	GoVersion string           `json:"go_version"`
	Scenarios []ScenarioResult `json:"scenarios"`
}

// TestScenariosRunCleanAndDeterministic runs the pinned suite twice: every
// scenario must complete with a semantically certified selection, the two
// runs must agree on every recorded field, and the results must equal the
// committed record (BENCH_PR9.json) entry by entry. Every field is
// deterministic, so any drift is a behaviour change in some pipeline stage;
// if it is intended, regenerate the record with
// `go test ./internal/bench/ -run TestScenariosRunCleanAndDeterministic -update`
// (`make scenario-json`).
func TestScenariosRunCleanAndDeterministic(t *testing.T) {
	a, err := RunScenarios()
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScenarios()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(Scenarios()) {
		t.Fatalf("ran %d scenarios, suite has %d", len(a), len(Scenarios()))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("scenario %s not deterministic:\n%+v\n%+v", a[i].Name, a[i], b[i])
		}
		if a[i].OracleMismatches != 0 {
			t.Errorf("scenario %s: %d semantic mismatches", a[i].Name, a[i].OracleMismatches)
		}
		if a[i].Chosen > 0 && a[i].VerilogBytes == 0 {
			t.Errorf("scenario %s: %d instructions selected but no RTL emitted", a[i].Name, a[i].Chosen)
		}
		if a[i].Cuts == 0 {
			t.Errorf("scenario %s: zero cuts — vacuous", a[i].Name)
		}
	}
	if *update {
		if t.Failed() {
			t.Fatal("not rewriting the scenario record from a failing run")
		}
		data, err := json.MarshalIndent(scenarioReport{runtime.Version(), a}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(scenarioRecord, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(scenarioRecord)
	if err != nil {
		t.Fatal(err)
	}
	var rec scenarioReport
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatalf("%s: %v", scenarioRecord, err)
	}
	for _, msg := range diffScenarios(a, rec.Scenarios) {
		t.Error(msg)
	}
}

// diffScenarios compares fresh results with the committed record by exact
// equality, entry by entry. A scenario present on only one side is a
// failure: the suite is pinned, so adding or removing an entry must come
// with a regenerated record.
func diffScenarios(fresh, record []ScenarioResult) []string {
	rec := make(map[string]ScenarioResult, len(record))
	for _, r := range record {
		rec[r.Name] = r
	}
	var diffs []string
	for _, f := range fresh {
		r, ok := rec[f.Name]
		switch {
		case !ok:
			diffs = append(diffs, "scenario "+f.Name+" missing from the committed record (regenerate with -update)")
		case f != r:
			diffs = append(diffs, fmt.Sprintf("scenario %s drifted:\n  fresh:  %+v\n  record: %+v", f.Name, f, r))
		}
		delete(rec, f.Name)
	}
	for _, r := range record {
		if _, ok := rec[r.Name]; ok {
			diffs = append(diffs, "scenario "+r.Name+" in the committed record but not in the suite")
		}
	}
	return diffs
}

// TestScenarioSweepsActuallySweep pins that the constraint axes bind:
// widening the I/O budget must not shrink the cut population, and
// forbidding ops must change it.
func TestScenarioSweepsActuallySweep(t *testing.T) {
	res, err := RunScenarios()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ScenarioResult{}
	for _, r := range res {
		byName[r.Name] = r
	}
	io := []string{"io-2x1/mibench-n40", "io-3x1/mibench-n40", "io-4x2/mibench-n40", "io-6x3/mibench-n40"}
	for i := 1; i < len(io); i++ {
		if byName[io[i]].Cuts < byName[io[i-1]].Cuts {
			t.Errorf("%s has fewer cuts (%d) than narrower %s (%d)",
				io[i], byName[io[i]].Cuts, io[i-1], byName[io[i-1]].Cuts)
		}
	}
	if byName["isa-no-mul/fir4"].Cuts >= byName["isa-full/fir4"].Cuts {
		t.Errorf("forbidding multipliers did not shrink fir4's cut population (%d vs %d)",
			byName["isa-no-mul/fir4"].Cuts, byName["isa-full/fir4"].Cuts)
	}
	if mem := byName["mem/mem-kernel"]; mem.Cuts == 0 {
		t.Error("memory scenario enumerated no cuts")
	}
	if b1 := byName["budget-1insn/fir4"]; b1.Chosen > 1 {
		t.Errorf("budget-1insn selected %d instructions", b1.Chosen)
	}
}

// TestScenarioUnknownBlockFails pins the failure mode: a scenario naming a
// block outside the corpus must error, not record zeros.
func TestScenarioUnknownBlockFails(t *testing.T) {
	_, err := RunScenario(Scenario{Name: "bogus", Block: "nope", Nin: 4, Nout: 2})
	if err == nil || !strings.Contains(err.Error(), "unknown block") {
		t.Fatalf("err = %v, want unknown block", err)
	}
}
