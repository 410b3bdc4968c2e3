package domtree

// Tree is an immutable dominator (or postdominator) tree supporting O(1)
// ancestor queries via pre/post intervals of a depth-first traversal, the
// constant-time "ancestor queries (either on dominators or on
// postdominators)" of §5.4.
type Tree struct {
	root     int
	idom     []int32
	pre      []int32 // entry time of DFS over the tree; -1 if not in tree
	post     []int32 // exit time
	children [][]int32
}

// BuildTree snapshots the result of the solver's last Run into a Tree.
func (s *Solver) BuildTree() *Tree {
	n := s.n
	t := &Tree{
		root:     int(s.root),
		idom:     make([]int32, n),
		pre:      make([]int32, n),
		post:     make([]int32, n),
		children: make([][]int32, n),
	}
	copy(t.idom, s.idom)
	for v := 0; v < n; v++ {
		t.pre[v] = none
		t.post[v] = none
	}
	for v := 0; v < n; v++ {
		if p := s.idom[v]; p != none {
			t.children[p] = append(t.children[p], int32(v))
		}
	}
	if !s.Reachable(int(s.root)) {
		return t
	}
	// Iterative DFS assigning pre/post timestamps.
	type frame struct {
		v    int32
		next int
	}
	clock := int32(0)
	stack := []frame{{int32(t.root), 0}}
	t.pre[t.root] = clock
	clock++
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(t.children[f.v]) {
			c := t.children[f.v][f.next]
			f.next++
			t.pre[c] = clock
			clock++
			stack = append(stack, frame{c, 0})
			continue
		}
		t.post[f.v] = clock
		clock++
		stack = stack[:len(stack)-1]
	}
	return t
}

// Root returns the tree root vertex.
func (t *Tree) Root() int { return t.root }

// IDom returns the immediate dominator of v, or -1.
func (t *Tree) IDom(v int) int { return int(t.idom[v]) }

// Dominates reports whether a dominates v, reflexively, in O(1).
func (t *Tree) Dominates(a, v int) bool {
	if t.pre[a] == none || t.pre[v] == none {
		return false
	}
	return t.pre[a] <= t.pre[v] && t.post[v] <= t.post[a]
}

// StrictlyDominates reports whether a dominates v and a != v.
func (t *Tree) StrictlyDominates(a, v int) bool {
	return a != v && t.Dominates(a, v)
}

// Walk calls f on the chain of strict dominators of v from the innermost
// outward, stopping at (and excluding) the root or when f returns false.
func (t *Tree) Walk(v int, f func(d int) bool) {
	for x := t.idom[v]; x != none && int(x) != t.root; x = t.idom[x] {
		if !f(int(x)) {
			return
		}
	}
}
