package bitset

import (
	"math/rand"
	"testing"
)

// Hasher128 is the one 128-bit digest left: checkpoint.GraphDigest folds a
// graph's adjacency rows through it, and that digest is both the snapshot's
// guard against resuming on different input and the session layer's
// content-addressed graph id. Two graphs whose rows differ by a top-bit
// pair would alias. These tests pin the collision classes that actually
// bit when a digest of this shape deduplicated cuts (see the Hasher128 doc
// comment and EXPERIMENTS.md "Resolved: the n ≥ 140 completeness gap") and
// a randomized birthday-style sanity sweep.

// digest folds one set through a fresh Hasher128, the way GraphDigest
// folds each adjacency row.
func digest(s *Set) [2]uint64 {
	h := NewHasher128()
	h.Set(s)
	return h.Sum()
}

// TestHash128TopBitPairs pins the structural collision class of the
// pre-fix word-FNV cut digest: any two sets that differ only by toggling bit
// 63 of two different words (e.g. {63} vs {127}) hashed identically,
// because a top-bit XOR difference commutes with multiplication by an odd
// constant and the second toggle cancels the first in both lanes. Every
// top-bit pair within an 8-word universe must now produce distinct digests.
func TestHash128TopBitPairs(t *testing.T) {
	const n = 8 * 64
	for wa := 0; wa < 8; wa++ {
		for wb := wa + 1; wb < 8; wb++ {
			a := New(n)
			b := New(n)
			a.Add(wa*64 + 63)
			b.Add(wb*64 + 63)
			if digest(a) == digest(b) {
				t.Errorf("top-bit pair collision: {%d} vs {%d}", wa*64+63, wb*64+63)
			}
			// The original failure shape: the pair embedded in a shared
			// larger set (a cut differing only in that one vertex swap).
			for _, extra := range []int{5, 99, 130, 201} {
				a.Add(extra)
				b.Add(extra)
			}
			if digest(a) == digest(b) {
				t.Errorf("embedded top-bit pair collision: words %d/%d", wa, wb)
			}
		}
	}
}

// TestHash128GapInstanceShape reproduces the exact first victim measured on
// the n=140/seed=5 MiBench-like block: cut {127} colliding with cut {63}.
func TestHash128GapInstanceShape(t *testing.T) {
	a := New(140)
	b := New(140)
	a.Add(63)
	b.Add(127)
	if digest(a) == digest(b) {
		t.Fatal("{63} and {127} still collide — the n ≥ 140 completeness gap is back")
	}
}

// TestHash128SingleBitDistinct checks all single-vertex sets in a 4-word
// universe are pairwise distinct, and distinct from the empty set.
func TestHash128SingleBitDistinct(t *testing.T) {
	const n = 256
	seen := map[[2]uint64]int{}
	empty := New(n)
	seen[digest(empty)] = -1
	for v := 0; v < n; v++ {
		s := New(n)
		s.Add(v)
		h := digest(s)
		if prev, dup := seen[h]; dup {
			t.Fatalf("digest collision between {%d} and {%d}", v, prev)
		}
		seen[h] = v
	}
}

// TestHash128TwoBitDistinct sweeps every two-vertex set of a 3-word
// universe (the smallest shape that exposed the original bug) and requires
// all digests pairwise distinct — ~16k sets, exhaustive at this size.
func TestHash128TwoBitDistinct(t *testing.T) {
	const n = 192
	seen := map[[2]uint64][2]int{}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			s := New(n)
			s.Add(a)
			s.Add(b)
			h := digest(s)
			if prev, dup := seen[h]; dup {
				t.Fatalf("digest collision between {%d,%d} and {%d,%d}", a, b, prev[0], prev[1])
			}
			seen[h] = [2]int{a, b}
		}
	}
}

// TestHash128RandomSets is the birthday-style sanity sweep: 200k random
// sets over a 220-vertex universe (the largest pinned oracle instance)
// with distinct membership must produce distinct digests.
func TestHash128RandomSets(t *testing.T) {
	const n = 220
	r := rand.New(rand.NewSource(1))
	seen := map[[2]uint64]string{}
	for i := 0; i < 200_000; i++ {
		s := New(n)
		for k := 1 + r.Intn(12); k > 0; k-- {
			s.Add(r.Intn(n))
		}
		sig := s.Signature()
		h := digest(s)
		if prev, dup := seen[h]; dup && prev != sig {
			t.Fatalf("digest collision between %s and %s", prev, sig)
		}
		seen[h] = sig
	}
}
