package interp

import (
	"strings"
	"testing"

	"polyise/internal/graphio"
)

// FuzzInterpRun hardens Run as a total function over deserialized graphs
// and arbitrary environments: graphio.Read deliberately enforces no arity,
// so frozen graphs reaching the interpreter can underfeed operations,
// point extracts at non-customs, or carry hostile constants — every such
// input must come back as an error (or execute), never a panic. Custom
// implementations are adversarial too: the fuzzed environment installs a
// CustomFn returning a truncated result vector.
//
// Seed corpus: the inline seeds below plus the committed files under
// testdata/fuzz/FuzzInterpRun. Extend with
// `go test -fuzz=FuzzInterpRun ./internal/interp/`.
func FuzzInterpRun(f *testing.F) {
	seeds := []struct {
		graph string
		roots []byte
		mem   uint64
	}{
		{"node var name=a\nnode var name=b\nnode add preds=0,1\n", []byte{1, 2, 3, 4, 5, 6, 7, 8}, 0},
		{"node var\nnode add preds=0\n", nil, 0},                  // underfed arity
		{"node var\nnode div preds=0,0\n", []byte{0, 0, 0, 0}, 1}, // div by zero
		{"node const const=-2147483648\nnode var\nnode div preds=0,1\n", // MinInt32 / -1
			[]byte{0xff, 0xff, 0xff, 0xff}, 2},
		{"node var\nnode load preds=0 forbidden\nnode store preds=0,1\n", []byte{9, 0, 0, 0}, 3},
		{"node var\nnode custom name=u preds=0 const=1\nnode extract preds=1 const=5\n", nil, 4},
		{"node var\nnode extract preds=0 const=0\n", nil, 5}, // extract of a non-custom
		{"node call name=f\n", nil, 6},                       // opaque call
		{"node custom name=u const=1\nnode extract preds=0 const=0\nnode extract preds=0 const=1\n", nil, 7},
		{"node var\nnode shl preds=0,0\nnode sar preds=1,0\nnode select preds=0,1,2\n", []byte{200, 1, 2, 3}, 8},
		{"node const const=9223372036854775807\nnode neg preds=0\n", nil, 9}, // int64 const truncation
	}
	for _, s := range seeds {
		f.Add(s.graph, s.roots, s.mem)
	}

	f.Fuzz(func(t *testing.T, graphText string, rootBytes []byte, memSeed uint64) {
		if len(graphText) > 1<<14 || len(rootBytes) > 1<<10 {
			t.Skip()
		}
		g, err := graphio.Read(strings.NewReader(graphText))
		if err != nil {
			return // rejected by the parser; not the interpreter's input space
		}
		vals := make([]int32, 0, len(rootBytes)/4)
		for i := 0; i+3 < len(rootBytes); i += 4 {
			vals = append(vals, int32(uint32(rootBytes[i])|uint32(rootBytes[i+1])<<8|
				uint32(rootBytes[i+2])<<16|uint32(rootBytes[i+3])<<24))
		}
		// Hostile custom implementation: too few results for any
		// multi-output extract, forcing the bounds checks.
		customs := map[string]CustomFn{}
		for v := 0; v < g.N(); v++ {
			if g.Op(v).String() == "custom" {
				customs[g.Name(v)] = func(args []int32) []int32 { return []int32{1} }
			}
		}
		envs := []Env{
			{RootValues: vals, Mem: NewSeededMemory(memSeed), Customs: customs},
			{RootValues: vals}, // nil memory → FlatMemory; no customs
		}
		for _, env := range envs {
			res, err := Run(g, env) // must not panic
			if err == nil && len(res.Values) != g.N() {
				t.Fatalf("clean run returned %d values for %d nodes", len(res.Values), g.N())
			}
		}
	})
}
