package domtree

// Tree is an immutable dominator (or postdominator) tree supporting O(1)
// ancestor queries via preorder intervals, the constant-time "ancestor
// queries (either on dominators or on postdominators)" of §5.4.
type Tree struct {
	pre []int32 // preorder number; -1 if not in the tree
	end []int32 // one past the last preorder number in v's subtree
}

// Tree snapshots the solver's last run into a Tree.
func (s *Solver) Tree() *Tree {
	n := s.g.N()
	// The fold order: the root, the user vertices in pass order, then the
	// virtual vertex at the far end. Every vertex follows its dominator.
	forward := int(s.root) == s.Source()
	order := make([]int32, 0, n+2)
	order = append(order, s.root)
	for i := 0; i < n; i++ {
		v := i
		if !forward {
			v = n - 1 - i
		}
		order = append(order, int32(v))
	}
	if forward {
		order = append(order, int32(s.Sink()))
	} else {
		order = append(order, int32(s.Source()))
	}

	t := &Tree{pre: make([]int32, n+2), end: make([]int32, n+2)}
	size := t.end // subtree sizes first, turned into interval ends below
	for _, v := range order {
		if s.depth[v] >= 0 {
			size[v] = 1
		}
	}
	for i := len(order) - 1; i > 0; i-- {
		if v := order[i]; s.depth[v] > 0 {
			size[s.idom[v]] += size[v]
		}
	}
	next := make([]int32, n+2) // next free preorder number below each vertex
	t.pre[s.root] = 0
	next[s.root] = 1
	for _, v := range order[1:] {
		t.pre[v] = none
		if d := s.idom[v]; d != none {
			t.pre[v] = next[d]
			next[d] += size[v]
			next[v] = t.pre[v] + 1
		}
	}
	for v := range t.end {
		t.end[v] += t.pre[v]
	}
	return t
}

// Dominates reports whether a dominates v, reflexively, in O(1).
func (t *Tree) Dominates(a, v int) bool {
	pa := t.pre[a]
	return pa >= 0 && pa <= t.pre[v] && t.pre[v] < t.end[a]
}
