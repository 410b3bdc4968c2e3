package enum

// Property tests for the validation the search runs on its delta-maintained
// cut: driving a real enumeration worker's push/undo methods through
// randomized sequences, the worker's one Validator — loaded on the
// maintained S and reused across every candidate — must produce aggregates
// bit-identical to a from-scratch recomputation, and a verdict and derived
// inputs/outputs identical to a fresh Validator on the rebuilt cut, at
// every checked step. This is the validation-layer counterpart of
// TestEngineDeltaSMatchesRebuildS.

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"polyise/internal/bitset"
)

// aggMatchesRebuild checks the three aggregates load computed against a
// from-scratch recomputation over the loaded S.
func (v *Validator) aggMatchesRebuild(t *testing.T, tag string) bool {
	g := v.g
	n := g.N()
	predU, succU, outs := bitset.New(n), bitset.New(n), bitset.New(n)
	v.S.ForEach(func(u int) bool {
		predU.UnionWords(g.PredRow(u))
		succU.UnionWords(g.SuccRow(u))
		return true
	})
	g.OutputsInto(outs, v.S)
	if !v.predU.Equal(predU) {
		t.Logf("%s: predU = %v, want %v (S=%v)", tag, v.predU, predU, v.S)
		return false
	}
	if !v.succU.Equal(succU) {
		t.Logf("%s: succU = %v, want %v (S=%v)", tag, v.succU, succU, v.S)
		return false
	}
	if !v.outs.Equal(outs) {
		t.Logf("%s: outs = %v, want %v (S=%v)", tag, v.outs, outs, v.S)
		return false
	}
	return true
}

func runSearchValidatorSequence(t *testing.T, seed int64, opt Options) bool {
	r := rand.New(rand.NewSource(seed))
	g := randValGraph(r, 8+r.Intn(100))
	opt.MaxInputs = 1 + r.Intn(5)
	opt.MaxOutputs = 1 + r.Intn(3)
	sh := newEnumShared(g, opt)
	e := sh.newWorker(func(Cut) bool { return true }, nil)
	rebuilt := bitset.New(g.N())
	var stack []engineOp
	depth := 0

	check := func(step int) bool {
		e.val.load(e.S)
		if !e.val.aggMatchesRebuild(t, "agg") {
			t.Logf("seed=%d step=%d outs=%v I=%v", seed, step, e.outs, e.Ilist)
			return false
		}
		if e.S.Empty() {
			return true
		}
		e.tr.CutNodesInto(rebuilt, e.outs, e.Iuser)
		var got, want Cut
		gotOK := e.val.validate(&got)
		wantOK := NewValidator(g, opt).Validate(rebuilt, &want)
		if gotOK != wantOK {
			t.Logf("seed=%d step=%d: validate %v, fresh Validate %v (S=%v outs=%v I=%v)",
				seed, step, gotOK, wantOK, e.S, e.outs, e.Ilist)
			return false
		}
		if gotOK && (!reflect.DeepEqual(got.Inputs, want.Inputs) ||
			!reflect.DeepEqual(got.Outputs, want.Outputs)) {
			t.Logf("seed=%d step=%d: io mismatch %v vs %v", seed, step, got, want)
			return false
		}
		return true
	}

	for step := 0; step < 50; step++ {
		switch {
		case r.Intn(3) == 0 && len(stack) > 0: // undo the top push
			e.undo(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
			depth--
		case r.Intn(2) == 0 || e.S.Empty(): // push an output
			o := r.Intn(g.N())
			if e.S.Has(o) || e.Iuser.Has(o) || e.outSet.Has(o) {
				continue
			}
			e.outs = append(e.outs, o)
			e.outSet.Add(o)
			e.growS(depth)
			stack = append(stack, engineOp{isOutput: true, v: o, depth: depth})
			depth++
		default: // push an input from inside S
			w := -1
			for probe := 0; probe < 8; probe++ {
				c := r.Intn(g.N())
				if e.S.Has(c) && !e.outSet.Has(c) {
					w = c
					break
				}
			}
			if w < 0 {
				continue
			}
			e.pushInput(w)
			e.shrinkS(depth)
			stack = append(stack, engineOp{v: w, depth: depth})
			depth++
		}
		// Only check at random steps: skipping some leaves the validator's
		// scratch from a candidate several pushes back.
		if r.Intn(2) == 0 && !check(step) {
			return false
		}
	}
	for len(stack) > 0 {
		e.undo(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
		if !check(-1) {
			return false
		}
	}
	return e.S.Empty()
}

func TestDeltaValidatorMatchesValidator(t *testing.T) {
	opt := DefaultOptions()
	opt.KeepCuts = false
	f := func(seed int64) bool { return runSearchValidatorSequence(t, seed, opt) }
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaValidatorMatchesValidatorConnected(t *testing.T) {
	opt := DefaultOptions()
	opt.KeepCuts = false
	opt.ConnectedOnly = true
	opt.MaxDepth = 3
	f := func(seed int64) bool { return runSearchValidatorSequence(t, seed, opt) }
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaValidatorZeroAlloc pins the allocation contract of the search's
// admission sequence on its maintained cut: with KeepCuts off, a warmed
// worker must not allocate across push, load, output count, canonical
// test, validate, pop (the whole-loop counterpart is
// TestEnumerateSteadyStateAllocs).
func TestDeltaValidatorZeroAlloc(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	g := randValGraph(r, 120)
	opt := DefaultOptions()
	opt.KeepCuts = false
	opt.ConnectedOnly = true // exercise every predicate
	opt.MaxDepth = 3
	n := g.N()
	e := newEnumShared(g, opt).newWorker(func(Cut) bool { return true }, nil)
	var cut Cut
	cycle := func() {
		for _, o := range []int{n - 1, n - 2, n - 3} {
			if e.S.Has(o) || e.outSet.Has(o) {
				continue
			}
			e.outs = append(e.outs, o)
			e.outSet.Add(o)
			e.growS(len(e.outs) - 1)
			e.val.load(e.S)
			if e.val.outs.Count() <= opt.MaxOutputs && e.val.canonical(e.outs, e.Iuser) {
				e.val.validate(&cut)
			}
		}
		for len(e.outs) > 0 {
			e.undoGrowS(len(e.outs) - 1)
			e.outSet.Remove(e.outs[len(e.outs)-1])
			e.outs = e.outs[:len(e.outs)-1]
		}
	}
	cycle() // warm every scratch buffer
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("search validation path allocated %.1f times per run, want 0", allocs)
	}
}
