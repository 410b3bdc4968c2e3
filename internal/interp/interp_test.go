package interp

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"polyise/internal/bitset"
	"polyise/internal/dfg"
	"polyise/internal/enum"
	"polyise/internal/exprc"
	"polyise/internal/workload"
)

func TestRunArithmetic(t *testing.T) {
	g := exprc.MustCompile(`
in a, b
s = (a + b) * (a - b)
out s
`)
	res, err := Run(g, Env{Inputs: map[string]int32{"a": 7, "b": 3}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.LiveOuts(g); len(got) != 1 || got[0] != 40 { // (7+3)*(7-3)
		t.Fatalf("result = %v, want [40]", got)
	}
}

func TestRunAllOps(t *testing.T) {
	g := exprc.MustCompile(`
in a, b
t1 = min(a, b) + max(a, b)
t2 = abs(a - 100)
t3 = (a << 2) ^ (b >> 1)
t4 = (a < b) ? t1 : t2
t5 = (a == b) | (a != b) | (a <= b)
r = t3 + t4 + t5 + (a / (b + 1)) + (a % (b + 1)) + (-a) + (~b)
out r
`)
	res, err := Run(g, Env{Inputs: map[string]int32{"a": 9, "b": 4}})
	if err != nil {
		t.Fatal(err)
	}
	// t1 = 4+9=13; t2 = |9-100|=91; t3 = (9<<2)^(4>>1) = 36^2 = 38
	// t4 = (9<4)?13:91 = 91; t5 = 0|1|0 = 1
	// a/(b+1)=1; a%(b+1)=4; -a=-9; ~b=-5
	// r = 38+91+1+1+4-9-5 = 121
	if got := res.LiveOuts(g); got[0] != 121 {
		t.Fatalf("r = %d, want 121", got[0])
	}
}

func TestRunMemory(t *testing.T) {
	g := exprc.MustCompile(`
in p, v
x = load(p)
y = x + v
store(p, y)
out y
`)
	mem := FlatMemory{100: 5}
	res, err := Run(g, Env{Inputs: map[string]int32{"p": 100, "v": 2}, Mem: mem})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.LiveOuts(g); got[len(got)-1] != 7 && got[0] != 7 {
		t.Fatalf("outs = %v, want a 7", got)
	}
	if mem[100] != 7 {
		t.Fatalf("mem[100] = %d, want 7", mem[100])
	}
}

func TestDivModByZero(t *testing.T) {
	g := exprc.MustCompile("in a\nr = (a / 0) + (a % 0)\nout r")
	res, err := Run(g, Env{Inputs: map[string]int32{"a": 5}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.LiveOuts(g)[0]; got != 0 {
		t.Fatalf("div/mod by zero = %d, want 0", got)
	}
}

func TestRunRejectsCall(t *testing.T) {
	g := dfg.New()
	a := g.MustAddNode(dfg.OpVar, "a")
	g.MustAddNode(dfg.OpCall, "f", a)
	g.MustFreeze()
	if _, err := Run(g, Env{}); err == nil {
		t.Fatal("call executed")
	}
}

func TestRunMissingCustom(t *testing.T) {
	g := dfg.New()
	a := g.MustAddNode(dfg.OpVar, "a")
	c := g.MustAddNode(dfg.OpCustom, "mystery", a)
	_ = c
	g.MustFreeze()
	if _, err := Run(g, Env{}); err == nil {
		t.Fatal("unknown custom instruction executed")
	}
}

// TestCollapsePreservesSemantics is the semantic cornerstone: collapsing any
// enumerated cut, with the extracted datapath as the custom instruction's
// implementation, must leave the block's observable behaviour unchanged on
// random inputs.
func TestCollapsePreservesSemantics(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := workload.MiBenchLike(r, 12+r.Intn(25), workload.DefaultProfile())
		cuts, _ := enum.CollectAll(g, enum.DefaultOptions())
		if len(cuts) == 0 {
			return true
		}
		cut := cuts[r.Intn(len(cuts))]

		extracted, mapping, err := g.ExtractCut(cut.Nodes)
		if err != nil {
			t.Logf("seed=%d extract: %v", seed, err)
			return false
		}
		outIDs := make([]int, len(cut.Outputs))
		for i, o := range cut.Outputs {
			outIDs[i] = mapping[o]
		}
		fn := CutEvaluator(extracted, outIDs)

		collapsed, cmap, err := g.CollapseCut(cut.Nodes, "u0", 1)
		if err != nil {
			t.Logf("seed=%d collapse: %v", seed, err)
			return false
		}

		for trial := 0; trial < 8; trial++ {
			vals := make([]int32, len(g.Roots()))
			for i := range vals {
				vals[i] = int32(r.Intn(2048) - 1024)
			}
			memA := FlatMemory{}
			memB := FlatMemory{}
			resA, err := Run(g, Env{RootValues: vals, Mem: memA})
			if err != nil {
				t.Logf("seed=%d run original: %v", seed, err)
				return false
			}
			resB, err := Run(collapsed, Env{
				RootValues: vals, // root order is preserved by CollapseCut
				Mem:        memB,
				Customs:    map[string]CustomFn{"u0": fn},
			})
			if err != nil {
				t.Logf("seed=%d run collapsed: %v", seed, err)
				return false
			}
			// Compare every surviving node's value and the memories.
			for orig, nid := range cmap {
				if resA.Values[orig] != resB.Values[nid] {
					t.Logf("seed=%d node %d: %d vs %d (cut %v)",
						seed, orig, resA.Values[orig], resB.Values[nid], cut)
					return false
				}
			}
			if !reflect.DeepEqual(memA, memB) {
				t.Logf("seed=%d memory diverged", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestExtractEvaluatorMatchesInPlace checks CutEvaluator against evaluating
// the cut in place inside the full graph.
func TestExtractEvaluatorMatchesInPlace(t *testing.T) {
	g := exprc.MustCompile(`
in a, b, c
m = a * b
s = m + c
d = s - a
out d
`)
	S := bitset.New(g.N())
	// Cut = {m, s}: inputs a,b,c; output s. exprc does not name assignment
	// nodes, so locate them by operation.
	m, s := -1, -1
	for v := 0; v < g.N(); v++ {
		switch g.Op(v) {
		case dfg.OpMul:
			m = v
		case dfg.OpAdd:
			s = v
		}
	}
	if m < 0 || s < 0 {
		t.Fatal("mul/add nodes not found")
	}
	S.Add(m)
	S.Add(s)
	extracted, mapping, err := g.ExtractCut(S)
	if err != nil {
		t.Fatal(err)
	}
	fn := CutEvaluator(extracted, []int{mapping[s]})
	// Inputs of the cut in ascending order are a, b, c.
	got := fn([]int32{3, 4, 5})
	if len(got) != 1 || got[0] != 17 { // 3*4+5
		t.Fatalf("evaluator = %v, want [17]", got)
	}
}

// TestQuickRootOrderPreserved: CollapseCut keeps the surviving roots in
// their original relative order, which the semantics test relies on.
func TestQuickRootOrderPreserved(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := workload.MiBenchLike(r, 10+r.Intn(20), workload.DefaultProfile())
		cuts, _ := enum.CollectAll(g, enum.DefaultOptions())
		if len(cuts) == 0 {
			return true
		}
		cut := cuts[r.Intn(len(cuts))]
		collapsed, cmap, err := g.CollapseCut(cut.Nodes, "u", 1)
		if err != nil {
			return false
		}
		origRoots := g.Roots()
		newRoots := collapsed.Roots()
		if len(origRoots) != len(newRoots) {
			return false
		}
		for i, orig := range origRoots {
			if cmap[orig] != newRoots[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSplitMix64 pins the generator to splitmix64's reference stream (seed
// 0) and SeededMemory's cell contents to the same mix of seed⊕addr.
func TestSplitMix64(t *testing.T) {
	rng := NewSplitMix64(0)
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := rng.Next(); got != want {
			t.Fatalf("draw %d = %#x, want %#x", i, got, want)
		}
	}
	m := NewSeededMemory(5)
	for addr := int32(0); addr < 4; addr++ {
		cell := NewSplitMix64(5 ^ uint64(addr))
		if got, want := m.Load(addr), int32(cell.Next()); got != want {
			t.Fatalf("cell %d = %d, want %d", addr, got, want)
		}
	}
}
