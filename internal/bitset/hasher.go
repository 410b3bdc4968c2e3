package bitset

import "math/bits"

// Hasher128 is a streaming 128-bit digest: a two-lane accumulator that
// consumes an arbitrary word sequence. The checkpoint subsystem uses it to
// fingerprint whole graphs (vertex count, opcode list, adjacency rows, role
// sets) so a snapshot can refuse to resume against different input, and
// the session layer uses the graph digest as a content-addressed id. Each
// word is avalanched (hashmix) before being folded into two independently
// keyed accumulator lanes, with the second lane consuming a rotation of the
// mix so a cancellation in one lane cannot carry to the other.
//
// The avalanche step is load-bearing, not an optimization: folding raw
// words FNV-style — h = (h ^ w) * prime — has a structural collision class
// that once silently dropped ~1–3% of valid cuts from the enumeration on
// graphs of 128+ vertices, when a digest of this shape was its duplicate
// detector. An XOR difference confined to bit 63 of a word passes through
// multiplication by any odd constant as exactly a bit-63 flip
// ((x ± 2^63)·p ≡ x·p ± 2^63 mod 2^64), so toggling the top bit of two
// different words — e.g. exchanging vertex 63 for vertex 127 in an
// adjacency row — cancels in both lanes regardless of the primes, giving
// distinct inputs identical digests. TestHash128TopBitPairs pins the fix;
// EXPERIMENTS.md "Resolved: the n ≥ 140 completeness gap" tells the full
// story. With per-word avalanche no low-entropy difference survives to fold
// time, and residual collision probability is the generic ~2^-128.
//
// The zero Hasher128 is not ready for use; call NewHasher128. Word order
// matters: the digest identifies the sequence, not the multiset. Callers
// hashing variable-length sections should write a length word first so
// section boundaries cannot alias.
type Hasher128 struct {
	h1, h2 uint64
}

// NewHasher128 returns a hasher in its initial lane state.
func NewHasher128() Hasher128 {
	return Hasher128{h1: 0xcbf29ce484222325, h2: 0x6c62272e07bb0142}
}

// Word folds one 64-bit word into both lanes.
func (h *Hasher128) Word(w uint64) {
	const (
		prime1 = 0x100000001b3
		prime2 = 0x3f4e5a7b9d1c8e63
	)
	m := hashmix(w)
	h.h1 = (h.h1 ^ m) * prime1
	h.h2 = (h.h2 ^ bits.RotateLeft64(m, 27)) * prime2
}

// Int folds an int as one word.
func (h *Hasher128) Int(v int) { h.Word(uint64(int64(v))) }

// Words folds a word slice, length first.
func (h *Hasher128) Words(ws []uint64) {
	h.Int(len(ws))
	for _, w := range ws {
		h.Word(w)
	}
}

// Set folds a bit set's backing words, length first.
func (h *Hasher128) Set(s *Set) { h.Words(s.Words()) }

// Sum finalizes both lanes. The hasher may keep absorbing words after Sum;
// the finalization does not disturb the lane state.
func (h *Hasher128) Sum() [2]uint64 {
	return [2]uint64{hashmix(h.h1), hashmix(h.h2)}
}

// hashmix is the 64-bit finalizer of MurmurHash3 (fmix64): a full-avalanche
// bijection, so every input bit affects every output bit.
func hashmix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
