package workload

import (
	"math/rand"
	"testing"
	"testing/quick"

	"polyise/internal/dfg"
)

func TestMiBenchLikeBasics(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{10, 50, 200, 1000} {
		g := MiBenchLike(r, n, DefaultProfile())
		if g.N() != n {
			t.Fatalf("n = %d, want %d", g.N(), n)
		}
		if !g.Frozen() {
			t.Fatal("graph not frozen")
		}
		if len(g.Roots()) == 0 {
			t.Fatal("no roots")
		}
		mem := 0
		for v := 0; v < g.N(); v++ {
			if g.Op(v).IsMemory() {
				mem++
				if !g.IsUserForbidden(v) {
					t.Fatalf("memory node %d not forbidden", v)
				}
			}
		}
		if n >= 200 && (mem < n/10 || mem > n/3) {
			t.Errorf("n=%d: memory fraction %d/%d outside plausible range", n, mem, n)
		}
	}
}

func TestMiBenchLikeDeterministic(t *testing.T) {
	g1 := MiBenchLike(rand.New(rand.NewSource(7)), 100, DefaultProfile())
	g2 := MiBenchLike(rand.New(rand.NewSource(7)), 100, DefaultProfile())
	if g1.N() != g2.N() || g1.NumEdges() != g2.NumEdges() {
		t.Fatal("same seed produced different graphs")
	}
	for v := 0; v < g1.N(); v++ {
		if g1.Op(v) != g2.Op(v) {
			t.Fatalf("node %d differs", v)
		}
	}
}

func TestTreeShape(t *testing.T) {
	for depth := 1; depth <= 7; depth++ {
		g := Tree(depth, 2)
		want := 1<<(uint(depth)+1) - 1
		if g.N() != want {
			t.Fatalf("depth %d: n = %d, want %d", depth, g.N(), want)
		}
		if len(g.Roots()) != 1<<uint(depth) {
			t.Fatalf("depth %d: %d leaves, want %d", depth, len(g.Roots()), 1<<uint(depth))
		}
		if len(g.Oext()) != 1 {
			t.Fatalf("depth %d: %d sinks, want 1", depth, len(g.Oext()))
		}
		// Every interior node has exactly two preds and at most one succ.
		for v := 0; v < g.N(); v++ {
			if g.IsRoot(v) {
				continue
			}
			if len(g.Preds(v)) != 2 {
				t.Fatalf("node %d has %d preds", v, len(g.Preds(v)))
			}
			if len(g.Succs(v)) > 1 {
				t.Fatalf("node %d has %d succs", v, len(g.Succs(v)))
			}
		}
	}
}

func TestTreeArity3(t *testing.T) {
	g := Tree(2, 3)
	if g.N() != 9+3+1 {
		t.Fatalf("arity-3 depth-2 tree has %d nodes, want 13", g.N())
	}
}

func TestChain(t *testing.T) {
	g := Chain(10)
	if g.N() != 10 || len(g.Roots()) != 1 || len(g.Oext()) != 1 {
		t.Fatalf("chain malformed: n=%d", g.N())
	}
	for v := 1; v < g.N(); v++ {
		if p := g.Preds(v); len(p) != 1 || p[0] != v-1 {
			t.Fatalf("chain node %d has preds %v, want [%d]", v, p, v-1)
		}
	}
}

func TestButterfly(t *testing.T) {
	g := Butterfly(3)
	if len(g.Roots()) != 8 {
		t.Fatalf("lanes = %d, want 8", len(g.Roots()))
	}
	if len(g.Oext()) != 8 {
		t.Fatalf("outputs = %d, want 8", len(g.Oext()))
	}
	if g.N() != 8+3*8 {
		t.Fatalf("n = %d, want 32", g.N())
	}
}

func TestCorpus(t *testing.T) {
	spec := CorpusSpec{Small: 5, Medium: 3, Large: 1, TreeDepths: []int{4}, Profile: DefaultProfile()}
	blocks := Corpus(42, spec)
	if len(blocks) != 10 {
		t.Fatalf("corpus size = %d, want 10", len(blocks))
	}
	counts := map[string]int{}
	for _, b := range blocks {
		counts[b.Cluster]++
		n := b.G.N()
		switch b.Cluster {
		case ClusterSmall:
			if n < 10 || n > 79 {
				t.Errorf("%s: size %d outside cluster", b.Name, n)
			}
		case ClusterMedium:
			if n < 80 || n > 799 {
				t.Errorf("%s: size %d outside cluster", b.Name, n)
			}
		case ClusterLarge:
			if n < 800 || n > 1196 {
				t.Errorf("%s: size %d outside cluster", b.Name, n)
			}
		}
	}
	if counts[ClusterSmall] != 5 || counts[ClusterMedium] != 3 || counts[ClusterLarge] != 1 || counts[ClusterTree] != 1 {
		t.Fatalf("cluster counts wrong: %v", counts)
	}
	// Determinism.
	again := Corpus(42, spec)
	for i := range blocks {
		if blocks[i].G.N() != again[i].G.N() {
			t.Fatal("corpus not deterministic")
		}
	}
}

func TestQuickGeneratedGraphsAreValidDAGs(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(300)
		g := MiBenchLike(r, n, DefaultProfile())
		// Frozen implies acyclic; spot-check topo invariants and that
		// every non-root has preds.
		for v := 0; v < g.N(); v++ {
			if !g.IsRoot(v) && len(g.Preds(v)) == 0 {
				return false
			}
			for _, p := range g.Preds(v) {
				if p >= v {
					return false
				}
			}
			if g.Op(v) == dfg.OpVar && !g.IsRoot(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
