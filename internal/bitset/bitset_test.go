package bitset

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestAddHasRemove(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Has(i) {
			t.Fatalf("new set has %d", i)
		}
		s.Add(i)
		if !s.Has(i) {
			t.Fatalf("Add(%d) not visible", i)
		}
	}
	if got := s.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	s.Remove(64)
	if s.Has(64) {
		t.Fatal("Remove(64) did not remove")
	}
	if got := s.Count(); got != 7 {
		t.Fatalf("Count after remove = %d, want 7", got)
	}
}

// TestNewRowsIndependent pins that rows carved from one backing array
// behave as separately allocated sets: filling one row, including its last
// word, leaves its neighbours empty.
func TestNewRowsIndependent(t *testing.T) {
	rows := NewRows(3, 130)
	if len(rows) != 3 {
		t.Fatalf("len = %d, want 3", len(rows))
	}
	for i := 0; i < 130; i++ {
		rows[1].Add(i)
	}
	rows[1].Union(rows[1].Clone())
	for _, r := range []int{0, 2} {
		if rows[r].Cap() != 130 || !rows[r].Empty() {
			t.Fatalf("row %d: cap %d, members %v", r, rows[r].Cap(), rows[r].Members())
		}
	}
	if got := rows[1].Count(); got != 130 {
		t.Fatalf("row 1 Count = %d, want 130", got)
	}
	if got := len(NewRows(0, 64)); got != 0 {
		t.Fatalf("NewRows(0, 64) has %d rows", got)
	}
}

func TestEmptyAndClear(t *testing.T) {
	s := New(100)
	if !s.Empty() {
		t.Fatal("new set not empty")
	}
	s.Add(99)
	if s.Empty() {
		t.Fatal("set with element reported empty")
	}
	s.Clear()
	if !s.Empty() {
		t.Fatal("Clear did not empty set")
	}
}

func TestSetAlgebra(t *testing.T) {
	a := FromMembers(200, 1, 5, 64, 150)
	b := FromMembers(200, 5, 64, 199)

	u := a.Clone()
	u.Union(b)
	if want := []int{1, 5, 64, 150, 199}; !reflect.DeepEqual(u.Members(), want) {
		t.Fatalf("union = %v, want %v", u.Members(), want)
	}

	i := a.Clone()
	i.Intersect(b)
	if want := []int{5, 64}; !reflect.DeepEqual(i.Members(), want) {
		t.Fatalf("intersect = %v, want %v", i.Members(), want)
	}

	d := a.Clone()
	d.Subtract(b)
	if want := []int{1, 150}; !reflect.DeepEqual(d.Members(), want) {
		t.Fatalf("subtract = %v, want %v", d.Members(), want)
	}

	if !a.Intersects(b) {
		t.Fatal("Intersects(a,b) = false, want true")
	}
	if got := a.IntersectionCount(b); got != 2 {
		t.Fatalf("IntersectionCount = %d, want 2", got)
	}
	if a.SubsetOf(u) != true || u.SubsetOf(a) != false {
		t.Fatal("SubsetOf wrong")
	}
	if !i.SubsetOf(a) || !i.SubsetOf(b) {
		t.Fatal("intersection not subset of operands")
	}
}

func TestEqualAndClone(t *testing.T) {
	a := FromMembers(66, 0, 65)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b.Add(3)
	if a.Equal(b) {
		t.Fatal("modified clone still equal")
	}
	if a.Has(3) {
		t.Fatal("clone aliases original")
	}
	c := New(10)
	if a.Equal(c) {
		t.Fatal("different capacities equal")
	}
}

func TestCopy(t *testing.T) {
	a := FromMembers(70, 2, 69)
	b := New(70)
	b.Add(5)
	b.Copy(a)
	if !b.Equal(a) {
		t.Fatalf("Copy: got %v want %v", b, a)
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := FromMembers(100, 3, 10, 50)
	var seen []int
	s.ForEach(func(i int) bool {
		seen = append(seen, i)
		return len(seen) < 2
	})
	if want := []int{3, 10}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("early stop saw %v, want %v", seen, want)
	}
}

func TestNext(t *testing.T) {
	s := FromMembers(200, 3, 64, 130)
	cases := []struct{ from, want int }{
		{-5, 3}, {0, 3}, {3, 3}, {4, 64}, {64, 64}, {65, 130}, {131, -1}, {500, -1},
	}
	for _, c := range cases {
		if got := s.Next(c.from); got != c.want {
			t.Errorf("Next(%d) = %d, want %d", c.from, got, c.want)
		}
	}
}

func TestSignatureDistinguishes(t *testing.T) {
	a := FromMembers(128, 1, 2)
	b := FromMembers(128, 1, 3)
	c := FromMembers(128, 1, 2)
	if a.Signature() == b.Signature() {
		t.Fatal("different sets share signature")
	}
	if a.Signature() != c.Signature() {
		t.Fatal("equal sets have different signatures")
	}
}

func TestString(t *testing.T) {
	if got := FromMembers(10, 1, 4, 7).String(); got != "{1 4 7}" {
		t.Fatalf("String = %q", got)
	}
	if got := New(10).String(); got != "{}" {
		t.Fatalf("empty String = %q", got)
	}
}

func TestUnionOf(t *testing.T) {
	u := UnionOf(64, FromMembers(64, 1), FromMembers(64, 2), FromMembers(64, 63))
	if want := []int{1, 2, 63}; !reflect.DeepEqual(u.Members(), want) {
		t.Fatalf("UnionOf = %v, want %v", u.Members(), want)
	}
}

// randomSet builds a set plus its mirror map representation.
func randomSet(r *rand.Rand, n int) (*Set, map[int]bool) {
	s := New(n)
	m := map[int]bool{}
	for i := 0; i < n/3; i++ {
		v := r.Intn(n)
		s.Add(v)
		m[v] = true
	}
	return s, m
}

func TestQuickAgainstMap(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		s, m := randomSet(r, n)
		if s.Count() != len(m) {
			return false
		}
		for i := 0; i < n; i++ {
			if s.Has(i) != m[i] {
				return false
			}
		}
		mem := s.Members()
		if len(mem) != len(m) {
			return false
		}
		for i := 1; i < len(mem); i++ {
			if mem[i-1] >= mem[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDeMorgan(t *testing.T) {
	// |a ∪ b| = |a| + |b| - |a ∩ b| over random sets.
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(500)
		a, _ := randomSet(r, n)
		b, _ := randomSet(r, n)
		u := a.Clone()
		u.Union(b)
		return u.Count() == a.Count()+b.Count()-a.IntersectionCount(b)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSubtractUnionIdentity(t *testing.T) {
	// (a \ b) ∪ (a ∩ b) == a
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(500)
		a, _ := randomSet(r, n)
		b, _ := randomSet(r, n)
		diff := a.Clone()
		diff.Subtract(b)
		inter := a.Clone()
		inter.Intersect(b)
		diff.Union(inter)
		return diff.Equal(a)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUnion1024(b *testing.B) {
	x := New(1024)
	y := New(1024)
	for i := 0; i < 1024; i += 3 {
		y.Add(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.Union(y)
	}
}

func BenchmarkForEach1024(b *testing.B) {
	x := New(1024)
	for i := 0; i < 1024; i += 5 {
		x.Add(i)
	}
	sink := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.ForEach(func(j int) bool { sink += j; return true })
	}
	_ = sink
}
