package dfg

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"polyise/internal/bitset"
)

// diamond builds:
//
//	a   b      (roots)
//	 \ / \
//	  c   d
//	   \ /
//	    e      (sink)
func diamond(t *testing.T) *Graph {
	t.Helper()
	g := New()
	a := g.MustAddNode(OpVar, "a")
	b := g.MustAddNode(OpVar, "b")
	c := g.MustAddNode(OpAdd, "c", a, b)
	d := g.MustAddNode(OpMul, "d", b)
	e := g.MustAddNode(OpSub, "e", c, d)
	_ = e
	if err := g.Freeze(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAddNodeValidation(t *testing.T) {
	g := New()
	if _, err := g.AddNode(OpAdd, "x", 5); !errors.Is(err, ErrBadPred) {
		t.Fatalf("forward pred: err = %v, want ErrBadPred", err)
	}
	if _, err := g.AddNode(Op(200), "x"); err == nil {
		t.Fatal("invalid op accepted")
	}
	a, err := g.AddNode(OpVar, "a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddNode(OpAdd, "self", a, a); err != nil {
		t.Fatalf("repeated pred should be fine: %v", err)
	}
	if err := g.Freeze(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddNode(OpAdd, "late", a); !errors.Is(err, ErrFrozen) {
		t.Fatalf("add after freeze: err = %v, want ErrFrozen", err)
	}
}

func TestFreezeEmpty(t *testing.T) {
	if err := New().Freeze(); !errors.Is(err, ErrEmptyGraph) {
		t.Fatalf("err = %v, want ErrEmptyGraph", err)
	}
}

func TestRootsAndOext(t *testing.T) {
	g := diamond(t)
	if want := []int{0, 1}; !reflect.DeepEqual(g.Roots(), want) {
		t.Fatalf("Roots = %v, want %v", g.Roots(), want)
	}
	if want := []int{4}; !reflect.DeepEqual(g.Oext(), want) {
		t.Fatalf("Oext = %v, want %v", g.Oext(), want)
	}
	for _, r := range g.Roots() {
		if !g.IsForbidden(r) {
			t.Errorf("root %d should be implicitly forbidden", r)
		}
	}
}

func TestMarkLiveOut(t *testing.T) {
	g := New()
	a := g.MustAddNode(OpVar, "a")
	b := g.MustAddNode(OpAdd, "b", a, a)
	c := g.MustAddNode(OpMul, "c", b, b)
	_ = c
	if err := g.MarkLiveOut(b); err != nil {
		t.Fatal(err)
	}
	g.MustFreeze()
	if want := []int{1, 2}; !reflect.DeepEqual(g.Oext(), want) {
		t.Fatalf("Oext = %v, want %v", g.Oext(), want)
	}
}

func TestMarkForbiddenAndCalls(t *testing.T) {
	g := New()
	a := g.MustAddNode(OpVar, "a")
	ld := g.MustAddNode(OpLoad, "ld", a)
	cl := g.MustAddNode(OpCall, "f", ld)
	add := g.MustAddNode(OpAdd, "s", ld, cl)
	_ = add
	if err := g.MarkForbidden(ld); err != nil {
		t.Fatal(err)
	}
	g.MustFreeze()
	if !g.IsUserForbidden(ld) {
		t.Error("load not forbidden after MarkForbidden")
	}
	if !g.IsUserForbidden(cl) {
		t.Error("call should be implicitly forbidden")
	}
	if g.IsUserForbidden(add) {
		t.Error("add wrongly forbidden")
	}
	if !g.IsForbidden(a) || g.IsUserForbidden(a) {
		t.Error("root must be implicitly but not user-forbidden")
	}
}

func TestTopoAndDepth(t *testing.T) {
	g := diamond(t)
	pos := make([]int, g.N())
	for i, v := range g.Topo() {
		pos[v] = i
		if g.TopoPos(v) != i {
			t.Fatalf("TopoPos(%d) = %d, want %d", v, g.TopoPos(v), i)
		}
	}
	for v := 0; v < g.N(); v++ {
		for _, p := range g.Preds(v) {
			if pos[p] >= pos[v] {
				t.Fatalf("topo order violated: pred %d after %d", p, v)
			}
		}
	}
	wantDepth := []int{0, 0, 1, 1, 2}
	for v, want := range wantDepth {
		if g.Depth(v) != want {
			t.Errorf("Depth(%d) = %d, want %d", v, g.Depth(v), want)
		}
	}
}

func TestReachability(t *testing.T) {
	g := diamond(t)
	cases := []struct {
		v, w int
		want bool
	}{
		{0, 2, true}, {0, 4, true}, {0, 3, false}, {1, 4, true},
		{2, 4, true}, {4, 0, false}, {2, 3, false}, {1, 2, true},
	}
	for _, c := range cases {
		if got := g.Reaches(c.v, c.w); got != c.want {
			t.Errorf("Reaches(%d,%d) = %v, want %v", c.v, c.w, got, c.want)
		}
	}
	// reachTo is the mirror of reachFrom.
	for v := 0; v < g.N(); v++ {
		for w := 0; w < g.N(); w++ {
			if g.ReachFrom(v).Has(w) != g.ReachTo(w).Has(v) {
				t.Fatalf("reach matrices disagree on (%d,%d)", v, w)
			}
		}
	}
}

// TestClosuresOnFirstUse pins the lazily built reachability closures:
// concurrent first lookups on a freshly frozen graph share one build, and
// a lookup before Freeze panics with ErrNotFrozen.
func TestClosuresOnFirstUse(t *testing.T) {
	g := diamond(t)
	rows := make(chan *bitset.Set, 4)
	for i := 0; i < cap(rows); i++ {
		go func() { rows <- g.ReachTo(4) }()
	}
	first := <-rows
	for i := 1; i < cap(rows); i++ {
		if r := <-rows; r != first {
			t.Fatal("concurrent first lookups built separate closures")
		}
	}
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(first.Members(), want) {
		t.Fatalf("ReachTo(e) = %v, want %v", first.Members(), want)
	}

	u := New()
	u.MustAddNode(OpVar, "a")
	defer func() {
		if v := recover(); v != ErrNotFrozen {
			t.Fatalf("lookup before Freeze: recovered %v, want ErrNotFrozen", v)
		}
	}()
	u.Reaches(0, 0)
}

func TestBetween(t *testing.T) {
	g := diamond(t)
	dst := bitset.New(g.N())
	// B({b}, e) must contain c, d, e but not a or b.
	g.BetweenSingleInto(dst, 1, 4)
	if want := []int{2, 3, 4}; !reflect.DeepEqual(dst.Members(), want) {
		t.Fatalf("B({b},e) = %v, want %v", dst.Members(), want)
	}
	// B({a}, e) goes only through c.
	g.BetweenSingleInto(dst, 0, 4)
	if want := []int{2, 4}; !reflect.DeepEqual(dst.Members(), want) {
		t.Fatalf("B({a},e) = %v, want %v", dst.Members(), want)
	}
	// No path: B({e}, a) empty.
	g.BetweenSingleInto(dst, 4, 0)
	if !dst.Empty() {
		t.Fatalf("B({e},a) = %v, want empty", dst.Members())
	}
	// Multi-source version unions path sets and removes sources.
	g.BetweenInto(dst, []int{0, 1}, 4)
	if want := []int{2, 3, 4}; !reflect.DeepEqual(dst.Members(), want) {
		t.Fatalf("B({a,b},e) = %v, want %v", dst.Members(), want)
	}
}

func TestBetweenExcludesSourceThatIsOnPath(t *testing.T) {
	// chain a→b→c; B({a,b},c) must not contain b even though b lies on the
	// path a→c (definition 6 excludes starting vertices).
	g := New()
	a := g.MustAddNode(OpVar, "a")
	b := g.MustAddNode(OpNot, "b", a)
	c := g.MustAddNode(OpNeg, "c", b)
	g.MustFreeze()
	dst := bitset.New(g.N())
	g.BetweenInto(dst, []int{a, b}, c)
	if want := []int{c}; !reflect.DeepEqual(dst.Members(), want) {
		t.Fatalf("B({a,b},c) = %v, want %v", dst.Members(), want)
	}
}

func TestHasForbiddenBetween(t *testing.T) {
	// a → ld → x → e  and a → y → e, with ld forbidden.
	g := New()
	a := g.MustAddNode(OpVar, "a")
	ld := g.MustAddNode(OpLoad, "ld", a)
	x := g.MustAddNode(OpAdd, "x", ld, ld)
	y := g.MustAddNode(OpMul, "y", a, a)
	e := g.MustAddNode(OpSub, "e", x, y)
	if err := g.MarkForbidden(ld); err != nil {
		t.Fatal(err)
	}
	g.MustFreeze()
	if !g.HasForbiddenBetween(a, x) {
		t.Error("path a→ld→x should report forbidden between")
	}
	if g.HasForbiddenBetween(a, y) {
		t.Error("path a→y has no forbidden interior")
	}
	if g.HasForbiddenBetween(ld, e) {
		t.Error("ld→x→e interior {x} is not forbidden")
	}
	if !g.HasForbiddenBetween(a, e) {
		t.Error("some path a→e passes through forbidden ld")
	}
}

func TestReachesForbiddenFree(t *testing.T) {
	// a → ld → x, a → x (direct), ld forbidden: a reaches x forbidden-free
	// via the direct edge; b → ld → y only: no forbidden-free path b→y.
	g := New()
	a := g.MustAddNode(OpVar, "a")
	b := g.MustAddNode(OpVar, "b")
	ld := g.MustAddNode(OpLoad, "ld", a, b)
	x := g.MustAddNode(OpAdd, "x", a, ld)
	y := g.MustAddNode(OpMul, "y", ld, ld)
	_ = x
	if err := g.MarkForbidden(ld); err != nil {
		t.Fatal(err)
	}
	g.MustFreeze()
	if !g.ReachesForbiddenFree(a, x) {
		t.Error("a→x direct edge should be forbidden-free")
	}
	if g.ReachesForbiddenFree(b, y) {
		t.Error("b→y only passes through forbidden ld")
	}
	// Forbidden start vertices may begin forbidden-free paths.
	if !g.ReachesForbiddenFree(ld, y) {
		t.Error("ld→y direct edge should be forbidden-free")
	}
	if g.ReachesForbiddenFree(y, a) {
		t.Error("no path y→a at all")
	}
}

func TestNumEdges(t *testing.T) {
	g := diamond(t)
	if got := g.NumEdges(); got != 5 {
		t.Fatalf("NumEdges = %d, want 5", got)
	}
}

// randGraph builds a random layered DAG for property tests.
func randGraph(r *rand.Rand, n int) *Graph {
	g := New()
	for i := 0; i < n; i++ {
		if i == 0 || r.Intn(5) == 0 {
			g.MustAddNode(OpVar, "")
			continue
		}
		k := 1 + r.Intn(2)
		preds := make([]int, 0, k)
		for j := 0; j < k; j++ {
			preds = append(preds, r.Intn(i))
		}
		op := OpAdd
		if r.Intn(10) == 0 {
			op = OpLoad
		}
		id := g.MustAddNode(op, "", preds...)
		if op == OpLoad {
			if err := g.MarkForbidden(id); err != nil {
				panic(err)
			}
		}
	}
	g.MustFreeze()
	return g
}

func TestQuickReachMatchesDFS(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randGraph(r, 2+r.Intn(40))
		// Compare Reaches against a fresh DFS for random pairs.
		for k := 0; k < 20; k++ {
			v, w := r.Intn(g.N()), r.Intn(g.N())
			if g.Reaches(v, w) != dfsReaches(g, v, w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func dfsReaches(g *Graph, v, w int) bool {
	if v == w {
		return false
	}
	seen := make([]bool, g.N())
	stack := []int{v}
	seen[v] = true
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.Succs(x) {
			if s == w {
				return true
			}
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

func TestQuickDepthConsistent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randGraph(r, 2+r.Intn(60))
		for v := 0; v < g.N(); v++ {
			want := 0
			for _, p := range g.Preds(v) {
				if g.Depth(p)+1 > want {
					want = g.Depth(p) + 1
				}
			}
			if g.Depth(v) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
