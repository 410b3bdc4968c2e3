package bitset

// DigestSet is an open-addressing hash set over the [2]uint64 digests that
// Hash128 produces. It replaces map[[2]uint64]bool (and the older
// string-keyed variants) on dedup hot paths: no per-insert hashing of the
// key beyond one multiply (the digest already is the hash material), no
// bucket indirection, and Reset reuses the backing array so the steady
// state allocates nothing. The zero digest is representable via a sentinel
// flag, so no key is excluded.
//
// The slot index mixes the digest with a Fibonacci multiplier and takes
// the TOP bits of the product. The finisher earned its keep when Hash128
// was a raw word-FNV fold whose weakly mixed low bits clustered
// linear probes into microsecond-long chains on enumeration-sized tables;
// since the PR 4 digest fix Hash128 is fully avalanched (fmix64 per word
// and per lane) and any bit range would index well — the finisher is kept
// because it is one multiply, costs nothing, and keeps this table correct
// even for callers feeding it digests that are not avalanche-quality.
type DigestSet struct {
	slots   [][2]uint64
	shift   uint
	mask    uint64
	n       int
	hasZero bool
}

const digestSetMinCap = 64 // power of two

// NewDigestSet returns an empty set with a small pre-grown table.
func NewDigestSet() *DigestSet {
	s := &DigestSet{}
	s.grow(digestSetMinCap)
	return s
}

// fib64 is 2^64 / φ, the usual Fibonacci-hashing multiplier.
const fib64 = 0x9e3779b97f4a7c15

func (s *DigestSet) slot(k [2]uint64) uint64 {
	return ((k[0] ^ k[1]) * fib64) >> s.shift
}

func (s *DigestSet) grow(capacity int) {
	old := s.slots
	s.slots = make([][2]uint64, capacity)
	s.mask = uint64(capacity - 1)
	s.shift = 64
	for c := capacity; c > 1; c >>= 1 {
		s.shift--
	}
	s.n = 0
	for _, k := range old {
		if k[0]|k[1] != 0 {
			s.insertNoCheck(k)
		}
	}
}

func (s *DigestSet) insertNoCheck(k [2]uint64) {
	i := s.slot(k)
	for s.slots[i][0]|s.slots[i][1] != 0 {
		i = (i + 1) & s.mask
	}
	s.slots[i] = k
	s.n++
}

// Insert adds k and reports whether it was absent.
func (s *DigestSet) Insert(k [2]uint64) bool {
	if k[0]|k[1] == 0 {
		if s.hasZero {
			return false
		}
		s.hasZero = true
		return true
	}
	i := s.slot(k)
	for {
		sl := s.slots[i]
		if sl[0]|sl[1] == 0 {
			break
		}
		if sl == k {
			return false
		}
		i = (i + 1) & s.mask
	}
	s.slots[i] = k
	s.n++
	if 4*s.n >= 3*len(s.slots) {
		s.grow(2 * len(s.slots))
	}
	return true
}

// Len returns the number of distinct keys inserted.
func (s *DigestSet) Len() int {
	if s.hasZero {
		return s.n + 1
	}
	return s.n
}

// Reset empties the set, keeping the backing array.
func (s *DigestSet) Reset() {
	for i := range s.slots {
		s.slots[i] = [2]uint64{}
	}
	s.n = 0
	s.hasZero = false
}
