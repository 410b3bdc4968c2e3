package bitset

import (
	"math/rand"
	"testing"
)

func TestDigestSet(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	s := NewDigestSet()
	ref := make(map[[2]uint64]bool)
	keys := make([][2]uint64, 0, 4096)
	keys = append(keys, [2]uint64{0, 0}) // zero key is representable
	for i := 0; i < 4000; i++ {
		keys = append(keys, [2]uint64{r.Uint64() >> uint(r.Intn(64)), r.Uint64() >> uint(r.Intn(64))})
	}
	for round := 0; round < 3; round++ {
		for _, k := range keys {
			want := !ref[k]
			if got := s.Insert(k); got != want {
				t.Fatalf("round %d: Insert(%v) = %v, want %v", round, k, got, want)
			}
			ref[k] = true
		}
		if s.Len() != len(ref) {
			t.Fatalf("round %d: Len = %d, want %d", round, s.Len(), len(ref))
		}
		s.Reset()
		if s.Len() != 0 {
			t.Fatalf("round %d: Len after Reset = %d", round, s.Len())
		}
		clear(ref)
	}
}
