package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"polyise/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden snapshot file")

// sampleSnapshot is a fixed, fully-populated snapshot: every field class is
// exercised (flags, frontier, counters). It doubles as the golden-file
// content, so it must never change — format evolution means a new Version
// and a new golden file, not edits here.
func sampleSnapshot() *Snapshot {
	return &Snapshot{
		GraphHash: [2]uint64{0x0123456789abcdef, 0xfedcba9876543210},
		GraphN:    60,
		OptHash:   0xdeadbeefcafef00d,
		Reason:    3,
		Visited:   12345,
		CurTop:    17,
		// Only the frontier count is new in v3; it sits between CurTop
		// and the counters.
		TopDelivered: 42,
		Stats: Counters{
			Valid: 12345, Candidates: 99999, Duplicates: 4242, Invalid: 777,
			LTRuns: 31337, SeedsPruned: 11, OutputsTried: 2024, Steals: 9,
			LastLevelTables: 512, LastLevelLookups: 4096,
		},
	}
}

func encodeToBytes(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, s); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

// rehash recomputes the integrity trailer after a test mutated the body, so
// structure checks are reached instead of the corruption check.
func rehash(raw []byte) []byte {
	body := raw[:len(raw)-sha256.Size]
	sum := sha256.Sum256(body)
	return append(append([]byte(nil), body...), sum[:]...)
}

func TestRoundTrip(t *testing.T) {
	for name, s := range map[string]*Snapshot{
		"full":  sampleSnapshot(),
		"empty": {},
		"done":  {Done: true, Visited: 7, CurTop: 60, GraphN: 60},
	} {
		got, err := Decode(bytes.NewReader(encodeToBytes(t, s)))
		if err != nil {
			t.Fatalf("%s: Decode: %v", name, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("%s: round trip diverges:\n got %+v\nwant %+v", name, got, s)
		}
	}
}

// TestGolden pins the byte-exact v3 encoding against a committed file, in
// both directions: today's encoder must reproduce the golden bytes, and
// today's decoder must read them back to the sample snapshot. Any failure
// means the format changed without a version bump.
func TestGolden(t *testing.T) {
	golden := filepath.Join("testdata", "snapshot_v3.golden")
	raw := encodeToBytes(t, sampleSnapshot())
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(raw, want) {
		t.Fatalf("encoding diverged from committed golden file (%d vs %d bytes): the v3 format changed without a version bump", len(raw), len(want))
	}
	got, err := Decode(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("Decode(golden): %v", err)
	}
	if !reflect.DeepEqual(got, sampleSnapshot()) {
		t.Fatalf("golden snapshot decoded to %+v", got)
	}
}

// TestV1Refused pins the v1→v2 break: the committed v1 golden file is
// refused as version skew, before any of its fields are interpreted.
func TestV1Refused(t *testing.T) {
	refusedAsVersion(t, 1)
}

// TestV2Refused pins the v2→v3 break: a v2 snapshot carries the dedup
// digests its resume relied on, which this build no longer reads, so the
// committed v2 golden file is refused as version skew.
func TestV2Refused(t *testing.T) {
	refusedAsVersion(t, 2)
}

// refusedAsVersion decodes the committed golden file of format version v
// and requires a *VersionError naming v.
func refusedAsVersion(t *testing.T, v uint32) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("snapshot_v%d.golden", v)))
	if err != nil {
		t.Fatal(err)
	}
	var ve *VersionError
	if _, err := Decode(bytes.NewReader(raw)); !errors.As(err, &ve) || ve.Got != v {
		t.Fatalf("v%d snapshot: err = %v, want *VersionError{Got: %d}", v, err, v)
	}
}

func TestVersionSkew(t *testing.T) {
	raw := encodeToBytes(t, sampleSnapshot())
	for _, v := range []uint32{0, 1, Version + 1, 0xffffffff} {
		bad := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint32(bad[len(Magic):], v)
		var ve *VersionError
		if _, err := Decode(bytes.NewReader(bad)); !errors.As(err, &ve) || ve.Got != v {
			t.Fatalf("version %d: err = %v, want *VersionError", v, err)
		}
	}
}

func TestBadMagic(t *testing.T) {
	raw := encodeToBytes(t, sampleSnapshot())
	bad := append([]byte(nil), raw...)
	bad[0] ^= 0x20
	var fe *FormatError
	if _, err := Decode(bytes.NewReader(bad)); !errors.As(err, &fe) {
		t.Fatalf("bad magic: err = %v, want *FormatError", err)
	}
}

// TestTruncated feeds every prefix of a valid snapshot to Decode: each must
// fail with a typed error — truncation can never panic and never yield a
// snapshot.
func TestTruncated(t *testing.T) {
	raw := encodeToBytes(t, sampleSnapshot())
	for n := 0; n < len(raw); n++ {
		_, err := Decode(bytes.NewReader(raw[:n]))
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded successfully", n, len(raw))
		}
		var fe *FormatError
		var ve *VersionError
		var ce *CorruptError
		if !errors.As(err, &fe) && !errors.As(err, &ve) && !errors.As(err, &ce) {
			t.Fatalf("prefix of %d bytes: untyped error %v", n, err)
		}
	}
}

// TestCorrupted flips each byte after the version field: the integrity hash
// must catch every one as *CorruptError (the version field itself reports
// version skew instead, by design — it is checked first so old readers give
// the right message for new files).
func TestCorrupted(t *testing.T) {
	raw := encodeToBytes(t, sampleSnapshot())
	for off := len(Magic) + 4; off < len(raw); off++ {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0x01
		var ce *CorruptError
		if _, err := Decode(bytes.NewReader(bad)); !errors.As(err, &ce) {
			t.Fatalf("flip at %d: err = %v, want *CorruptError", off, err)
		}
	}
}

// TestInconsistentLengths seals bodies whose length disagrees with the
// fixed v3 layout (rehashing so the corruption check passes): a body cut
// short anywhere and one with trailing bytes must both be refused as
// *FormatError, never read past or half-decoded.
func TestInconsistentLengths(t *testing.T) {
	raw := encodeToBytes(t, sampleSnapshot())
	body := raw[:len(raw)-sha256.Size]
	var fe *FormatError
	for n := len(Magic) + 4; n < len(body); n++ {
		if _, err := Decode(bytes.NewReader(rehash(append(body[:n:n], make([]byte, sha256.Size)...)))); !errors.As(err, &fe) {
			t.Fatalf("body cut to %d of %d bytes: err = %v, want *FormatError", n, len(body), err)
		}
	}
	// Trailing garbage between the last field and the hash.
	padded := append([]byte(nil), body...)
	padded = append(padded, 0xaa, 0xbb)
	if _, err := Decode(bytes.NewReader(rehash(append(padded, make([]byte, sha256.Size)...)))); !errors.As(err, &fe) {
		t.Fatalf("trailing bytes: err = %v, want *FormatError", err)
	}
}

// TestNegativeCounts patches Visited and each counter to a negative value
// in a correctly sealed snapshot: the decoder must refuse it. A negative
// Visited would otherwise rewind the resumed run's seam-global count, so a
// MaxCuts cap would deliver far more cuts than it allows.
func TestNegativeCounts(t *testing.T) {
	raw := encodeToBytes(t, sampleSnapshot())
	visitedOff := len(Magic) + 4 + 16 + 4 + 8 + 2
	counterOff := visitedOff + 8 + 4 + 8
	if got := binary.LittleEndian.Uint64(raw[visitedOff:]); got != uint64(sampleSnapshot().Visited) {
		t.Fatalf("test offset arithmetic is stale: read %d at Visited", got)
	}
	offs := []int{visitedOff}
	for i := 0; i < 10; i++ {
		offs = append(offs, counterOff+8*i)
	}
	for _, off := range offs {
		for _, v := range []int64{-1, -1000, -1 << 63} {
			bad := append([]byte(nil), raw...)
			binary.LittleEndian.PutUint64(bad[off:], uint64(v))
			var fe *FormatError
			if _, err := Decode(bytes.NewReader(rehash(bad))); !errors.As(err, &fe) {
				t.Fatalf("value %d at offset %d: err = %v, want *FormatError", v, off, err)
			}
		}
	}
}

// TestTopDeliveredOutOfRange patches the frontier's delivered count below
// 0 and above Visited in a correctly sealed snapshot: either would make a
// resume skip cuts it never delivered, or skip past the frontier subtree,
// so the decoder refuses both.
func TestTopDeliveredOutOfRange(t *testing.T) {
	s := sampleSnapshot()
	raw := encodeToBytes(t, s)
	off := len(Magic) + 4 + 16 + 4 + 8 + 2 + 8 + 4
	if got := binary.LittleEndian.Uint64(raw[off:]); got != uint64(s.TopDelivered) {
		t.Fatalf("test offset arithmetic is stale: read %d at TopDelivered", got)
	}
	for _, v := range []int64{-1, -1 << 63, s.Visited + 1, 1<<63 - 1} {
		bad := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint64(bad[off:], uint64(v))
		var fe *FormatError
		if _, err := Decode(bytes.NewReader(rehash(bad))); !errors.As(err, &fe) {
			t.Fatalf("TopDelivered %d: err = %v, want *FormatError", v, err)
		}
	}
	for _, v := range []int64{0, s.Visited} {
		ok := *s
		ok.TopDelivered = v
		if _, err := Decode(bytes.NewReader(encodeToBytes(t, &ok))); err != nil {
			t.Fatalf("TopDelivered %d: %v", v, err)
		}
	}
}

func TestWriteReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.ckpt")
	first := sampleSnapshot()
	if err := WriteFile(path, first); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	second := sampleSnapshot()
	second.Visited = 99999
	if err := WriteFile(path, second); err != nil {
		t.Fatalf("WriteFile (replace): %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !reflect.DeepEqual(got, second) {
		t.Fatal("ReadFile returned the stale snapshot after an atomic replace")
	}
	// No temp litter after successful renames.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("directory holds %d entries after two writes, want 1", len(ents))
	}
	if err := WriteFile(filepath.Join(dir, "missing", "s.ckpt"), first); err == nil {
		t.Fatal("WriteFile into a missing directory succeeded")
	}
}

// TestGraphDigest pins the identity contract: equal construction → equal
// digest, different graphs → different digests.
func TestGraphDigest(t *testing.T) {
	prof := workload.DefaultProfile()
	g1 := workload.MiBenchLike(rand.New(rand.NewSource(1)), 40, prof)
	g1b := workload.MiBenchLike(rand.New(rand.NewSource(1)), 40, prof)
	g2 := workload.MiBenchLike(rand.New(rand.NewSource(2)), 40, prof)
	if GraphDigest(g1) != GraphDigest(g1b) {
		t.Fatal("identically-built graphs digest differently")
	}
	if GraphDigest(g1) == GraphDigest(g2) {
		t.Fatal("different graphs share a digest")
	}
}

// TestParseDigest pins the wire form of a graph id: DigestString round-trips
// in either case, and anything but exactly 32 hex digits is refused.
func TestParseDigest(t *testing.T) {
	d := [2]uint64{0x0123456789abcdef, 0xfedcba9876543210}
	s := DigestString(d)
	for _, in := range []string{s, strings.ToUpper(s)} {
		if got, err := ParseDigest(in); err != nil || got != d {
			t.Fatalf("ParseDigest(%q) = %x, %v; want %x", in, got, err, d)
		}
	}
	for _, bad := range []string{"", s[:31], s + "0", s[:30] + "0g", s[:31] + " "} {
		if _, err := ParseDigest(bad); err == nil {
			t.Fatalf("ParseDigest(%q) succeeded", bad)
		}
	}
}

// FuzzCheckpoint mirrors graphio.FuzzRead: arbitrary bytes must either
// decode to a snapshot with non-negative counts that re-encodes and
// re-decodes to itself, or fail with a typed error — never panic, never
// loop. The committed v1 and v2 golden files seed the version-skew path.
func FuzzCheckpoint(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(Magic))
	full := sampleSnapshot()
	var buf bytes.Buffer
	if err := Encode(&buf, full); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	buf.Reset()
	if err := Encode(&buf, &Snapshot{}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	v1, err := os.ReadFile(filepath.Join("testdata", "snapshot_v1.golden"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	v2, err := os.ReadFile(filepath.Join("testdata", "snapshot_v2.golden"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2)
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := Decode(bytes.NewReader(raw))
		if err != nil {
			var fe *FormatError
			var ve *VersionError
			var ce *CorruptError
			if !errors.As(err, &fe) && !errors.As(err, &ve) && !errors.As(err, &ce) {
				t.Fatalf("untyped decode error %v", err)
			}
			return
		}
		if s.Visited < 0 || s.TopDelivered < 0 || s.TopDelivered > s.Visited {
			t.Fatalf("decoded out-of-range counts Visited=%d TopDelivered=%d", s.Visited, s.TopDelivered)
		}
		for _, c := range s.Stats.Fields() {
			if *c < 0 {
				t.Fatalf("decoded a negative counter in %+v", s.Stats)
			}
		}
		var out bytes.Buffer
		if err := Encode(&out, s); err != nil {
			t.Fatalf("re-encode of a decoded snapshot failed: %v", err)
		}
		s2, err := Decode(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatal("decode→encode→decode is not a fixed point")
		}
	})
}
