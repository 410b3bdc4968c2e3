// Package bitset provides dense fixed-capacity bit sets used throughout
// polyise for vertex sets, reachability matrix rows and cut membership.
//
// The representation is a plain []uint64 slice. All operations that combine
// two sets require them to have been created with the same capacity; this is
// not checked at runtime beyond slice bounds, mirroring the paper's use of
// flat adjacency/reachability matrices (§5.4).
package bitset

import (
	"math/bits"
	"strconv"
	"strings"
)

const wordBits = 64

// Set is a dense bit set over the universe [0, capacity).
type Set struct {
	words []uint64
	n     int // capacity in bits
}

// New returns an empty set with capacity for n bits.
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// NewRows returns count empty sets with capacity for n bits each, carved
// from one backing array: a row family such as a reachability matrix costs
// two allocations instead of one per row. Each row's slice is capped at its
// own words, so rows never alias one another.
func NewRows(count, n int) []*Set {
	if n < 0 {
		n = 0
	}
	w := (n + wordBits - 1) / wordBits
	words := make([]uint64, count*w)
	sets := make([]Set, count)
	rows := make([]*Set, count)
	for i := range rows {
		sets[i] = Set{words: words[i*w : (i+1)*w : (i+1)*w], n: n}
		rows[i] = &sets[i]
	}
	return rows
}

// Cap returns the capacity the set was created with.
func (s *Set) Cap() int { return s.n }

// Words exposes the underlying word storage. Callers own the set or treat
// the slice as read-only; the word-parallel traversal kernels use it to
// advance whole 64-bit frontiers at a time instead of individual bits.
func (s *Set) Words() []uint64 { return s.words }

// Add inserts i into the set.
func (s *Set) Add(i int) { s.words[i/wordBits] |= 1 << uint(i%wordBits) }

// AddRange inserts every i with lo <= i < hi; an empty range adds nothing.
func (s *Set) AddRange(lo, hi int) {
	if lo >= hi {
		return
	}
	first, last := lo/wordBits, (hi-1)/wordBits
	lom, him := ^uint64(0)<<uint(lo%wordBits), ^uint64(0)>>uint(wordBits-1-(hi-1)%wordBits)
	if first == last {
		s.words[first] |= lom & him
		return
	}
	s.words[first] |= lom
	for i := first + 1; i < last; i++ {
		s.words[i] = ^uint64(0)
	}
	s.words[last] |= him
}

// Remove deletes i from the set.
func (s *Set) Remove(i int) { s.words[i/wordBits] &^= 1 << uint(i%wordBits) }

// Has reports whether i is in the set.
func (s *Set) Has(i int) bool { return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0 }

// Clear removes all elements, keeping capacity.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Count returns the number of elements in the set.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return &Set{words: w, n: s.n}
}

// Copy overwrites s with the contents of t.
func (s *Set) Copy(t *Set) {
	copy(s.words, t.words)
}

// Union sets s = s ∪ t.
func (s *Set) Union(t *Set) {
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// UnionWords sets s = s ∪ row, where row is a raw word slice of the same
// stride (an adjacency-matrix row).
func (s *Set) UnionWords(row []uint64) {
	for i, w := range row {
		s.words[i] |= w
	}
}

// CopyIntersect sets s = a ∩ b in one fused pass.
func (s *Set) CopyIntersect(a, b *Set) {
	bw := b.words
	for i, w := range a.words {
		s.words[i] = w & bw[i]
	}
}

// CopyAndNot sets s = a \ b in one fused pass.
func (s *Set) CopyAndNot(a, b *Set) {
	bw := b.words
	for i, w := range a.words {
		s.words[i] = w &^ bw[i]
	}
}

// ComplementOf sets s = U \ t, where U is the full capacity universe.
func (s *Set) ComplementOf(t *Set) {
	for i, w := range t.words {
		s.words[i] = ^w
	}
	if rem := uint(s.n % wordBits); rem != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << rem) - 1
	}
}

// AndNotAny reports whether s ∩ t \ not is non-empty, without
// materializing the intermediate set.
func (s *Set) AndNotAny(t, not *Set) bool {
	nw := not.words
	for i, w := range t.words {
		if s.words[i]&w&^nw[i] != 0 {
			return true
		}
	}
	return false
}

// Intersect sets s = s ∩ t.
func (s *Set) Intersect(t *Set) {
	for i, w := range t.words {
		s.words[i] &= w
	}
}

// Subtract sets s = s \ t.
func (s *Set) Subtract(t *Set) {
	for i, w := range t.words {
		s.words[i] &^= w
	}
}

// Intersects reports whether s ∩ t is non-empty.
func (s *Set) Intersects(t *Set) bool {
	for i, w := range t.words {
		if s.words[i]&w != 0 {
			return true
		}
	}
	return false
}

// IntersectionCount returns |s ∩ t| without materializing the intersection.
func (s *Set) IntersectionCount(t *Set) int {
	c := 0
	for i, w := range t.words {
		c += bits.OnesCount64(s.words[i] & w)
	}
	return c
}

// Equal reports whether s and t contain exactly the same elements.
func (s *Set) Equal(t *Set) bool {
	if len(s.words) != len(t.words) {
		return false
	}
	for i, w := range s.words {
		if w != t.words[i] {
			return false
		}
	}
	return true
}

// ForEach calls f for every element in ascending order. If f returns false,
// iteration stops early.
func (s *Set) ForEach(f func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !f(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Members returns the elements in ascending order.
func (s *Set) Members() []int {
	return s.AppendMembers(make([]int, 0, s.Count()))
}

// AppendMembers appends the elements in ascending order to dst and returns
// the extended slice; with a reused dst it is allocation-free once the
// capacity has grown to fit.
func (s *Set) AppendMembers(dst []int) []int {
	for wi, w := range s.words {
		for w != 0 {
			dst = append(dst, wi*wordBits+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}

// Compare orders sets by their word representation, lexicographically from
// word 0 upward (shorter sets first). It is an arbitrary but deterministic
// total order over equal-capacity sets, cheaper than comparing Signature
// strings.
func (s *Set) Compare(t *Set) int {
	if len(s.words) != len(t.words) {
		if len(s.words) < len(t.words) {
			return -1
		}
		return 1
	}
	for i, w := range s.words {
		if w != t.words[i] {
			if w < t.words[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Signature returns a deterministic string key identifying the set contents.
// It is used to deduplicate cuts by their vertex set.
func (s *Set) Signature() string {
	var b strings.Builder
	b.Grow(len(s.words) * 17)
	for _, w := range s.words {
		b.WriteString(strconv.FormatUint(w, 16))
		b.WriteByte(',')
	}
	return b.String()
}

// String renders the set like "{1 4 7}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteByte(' ')
		}
		first = false
		b.WriteString(strconv.Itoa(i))
		return true
	})
	b.WriteByte('}')
	return b.String()
}

// FromMembers builds a set of capacity n from the given members.
func FromMembers(n int, members ...int) *Set {
	s := New(n)
	for _, m := range members {
		s.Add(m)
	}
	return s
}
