package enum_test

import (
	"testing"

	"polyise/internal/bitset"
	"polyise/internal/enum"
	"polyise/internal/workload"
)

// legacyHash128 is the pre-fix digest, preserved here verbatim as an
// executable record of the n ≥ 140 completeness gap's root cause: folding
// raw words FNV-style lets an XOR difference confined to bit 63 of a word
// pass through multiplication by an odd constant as exactly a bit-63 flip
// ((x ± 2^63)·p ≡ x·p ± 2^63 mod 2^64), so toggling the top bit of two
// different words cancels in both lanes whatever the primes. See the
// Hasher128 doc comment in internal/bitset and docs/ALGORITHM.md §7.
func legacyHash128(words []uint64) [2]uint64 {
	const (
		offset1 = 0xcbf29ce484222325
		prime1  = 0x100000001b3
		offset2 = 0x6c62272e07bb0142
		prime2  = 0x3f4e5a7b9d1c8e63
	)
	h1, h2 := uint64(offset1), uint64(offset2)
	for _, w := range words {
		h1 = (h1 ^ w) * prime1
		h2 = (h2 ^ w) * prime2
	}
	return [2]uint64{h1, h2}
}

// TestGapRootCauseDigestCollision demonstrates, on the first measured gap
// instance (n=140/seed 5), that the search was complete all along and the
// loss sat in the dedup layer: among the instance's 4 565 valid cuts the
// legacy digest collides for dozens of distinct pairs (the first victim is
// cut {127} colliding with cut {63}), while the avalanched Hasher128 keeps
// all 4 565 digests distinct. No enumeration deduplicates by digest any
// more, but checkpoint.GraphDigest folds adjacency rows — vertex sets of
// the same shape — through Hasher128, so a failure on the "fixed" side
// means distinct graphs can alias there.
func TestGapRootCauseDigestCollision(t *testing.T) {
	gi := workload.GapRegressionInstances()[0]
	g := gi.Graph()
	opt := enum.DefaultOptions()
	opt.Parallelism = 1
	cuts, _ := enum.CollectAll(g, opt)
	if len(cuts) != gi.WantCuts {
		t.Fatalf("expected the pinned %d cuts, got %d", gi.WantCuts, len(cuts))
	}

	legacy := make(map[[2]uint64]string, len(cuts))
	fixed := make(map[[2]uint64]string, len(cuts))
	legacyCollisions := 0
	for _, c := range cuts {
		sig := c.Nodes.Signature()
		lh := legacyHash128(c.Nodes.Words())
		if prev, ok := legacy[lh]; ok && prev != sig {
			legacyCollisions++
		} else {
			legacy[lh] = sig
		}
		h := bitset.NewHasher128()
		h.Set(c.Nodes)
		fh := h.Sum()
		if prev, ok := fixed[fh]; ok && prev != sig {
			t.Fatalf("fixed digest collision between %s and %s", prev, sig)
		}
		fixed[fh] = sig
	}
	if legacyCollisions == 0 {
		t.Fatal("expected the legacy digest to collide on this instance — " +
			"the executable root-cause record no longer reproduces")
	}
	t.Logf("legacy digest: %d colliding cuts among %d; fixed digest: 0", legacyCollisions, len(cuts))
}
