package exprc

import (
	"testing"

	"polyise/internal/interp"
)

// FuzzExprCompile hardens the expression compiler as the untrusted front
// door of the pipeline: arbitrary source must either be rejected with an
// error or produce a frozen, well-formed graph — never a panic. Accepted
// programs are additionally held to an executability contract: a graph
// the compiler emits always runs under the interpreter (operand counts
// are correct by construction), so a clean compile followed by an
// interpreter refusal is a compiler bug.
//
// Seed corpus: the inline seeds below plus the committed files under
// testdata/fuzz/FuzzExprCompile. Extend with
// `go test -fuzz=FuzzExprCompile ./internal/exprc/`.
func FuzzExprCompile(f *testing.F) {
	for _, seed := range []string{
		"in a, b\nr = a + b\nout r",
		"in a\nr = a ? a : -a\nout r",
		"in p, x\nstore(p, x)\ny = load(p + 4)\nout y",
		"in a\nr = min(abs(a - 1), max(a, 0x7f))\nout r",
		"in a\nr = -~a << 3 >> 1\nout r",
		"in a\nb = a / 0\nc = a % 0\nout b, c",
		"r = undefined + 1",           // use before declaration
		"in a\na = a",                 // reassignment
		"in a\nr = a +",               // truncated expression
		"in a\nr = (a",                // unbalanced parens
		"out r",                       // out of nothing
		"in a\nr = a ? a\nout r",      // incomplete ternary
		"in \xff\nr = 1",              // hostile identifier
		"in a\nr = load(store(a, a))", // store has no value? (parser decides)
		"# only a comment",
		"",
		"in a\nr = select(a)\nout r", // wrong arity builtin
		"in a\nr = a | | a\nout r",
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			t.Skip()
		}
		g, err := Compile(src) // must not panic
		if err != nil {
			return // rejected cleanly
		}
		if g == nil || !g.Frozen() {
			t.Fatal("Compile returned a nil or unfrozen graph without error")
		}
		if g.N() == 0 {
			t.Fatal("Compile returned an empty graph without error")
		}
		// Structural invariants a frozen compile must satisfy.
		for v := 0; v < g.N(); v++ {
			for _, p := range g.Preds(v) {
				if p < 0 || p >= v {
					t.Fatalf("node %d has non-topological pred %d", v, p)
				}
			}
			if want := g.Op(v).Arity(); want > 0 && len(g.Preds(v)) < want {
				t.Fatalf("node %d (%v) has %d operands, needs %d", v, g.Op(v), len(g.Preds(v)), want)
			}
		}
		// Executability: compiled graphs carry correct operand counts, so
		// the interpreter must accept them on any environment.
		if _, err := interp.Run(g, interp.Env{Mem: interp.NewSeededMemory(1)}); err != nil {
			t.Fatalf("compiled graph refused by the interpreter: %v", err)
		}
	})
}
