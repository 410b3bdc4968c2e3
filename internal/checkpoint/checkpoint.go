// Package checkpoint defines the durable on-disk snapshot format that makes
// long enumeration runs crash-tolerant. A snapshot captures the enumeration
// state at a serial-order visit point — the count of cuts already delivered,
// the top-level frontier position, the global dedup digest table and the
// partial work counters — together with the identities needed to refuse a
// wrong resume: a content hash of the input graph and a fingerprint of the
// semantically relevant Options.
//
// The format is deliberately dumb: a fixed magic, a version number,
// little-endian fixed-width fields, and a trailing SHA-256 over everything
// before it. Decode never panics on hostile input — every failure is one of
// the typed errors below (*FormatError, *VersionError, *CorruptError) — and
// WriteFile is atomic (temp file + rename in the destination directory), so
// a crash during a snapshot write leaves the previous snapshot intact.
//
// What is NOT in a snapshot is as deliberate as what is: the cut set S, the
// choice stacks, the validator mirrors, the reaches frontiers and the
// seed-loop state are all pure functions of the search position (rebuildS —
// the invariant that makes work-stealing possible makes checkpointing
// possible too) and are recomputed on resume by replaying the in-progress
// top-level subtree with the restored dedup table suppressing
// already-delivered cuts. Serial and parallel runs write the same snapshot
// shape. See docs/ALGORITHM.md §12 for the resume-identity argument.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"polyise/internal/bitset"
	"polyise/internal/dfg"
)

// Magic opens every snapshot file.
const Magic = "polyckpt"

// Version is the current format version. Decode rejects any other value
// with a *VersionError; there is no cross-version migration — a snapshot is
// a resumable run state, not an archival format.
const Version = 2

// Counters mirrors the work counters of enum.Stats at the snapshot point.
// They are advisory — resume replays some pre-snapshot work, so counters of
// a resumed run can exceed an uninterrupted run's; the visit sequence is
// what the resume contract pins, not these.
type Counters struct {
	Valid        int64
	Candidates   int64
	Duplicates   int64
	Invalid      int64
	LTRuns       int64
	SeedsPruned  int64
	OutputsTried int64
	Steals       int64

	LastLevelTables  int64
	LastLevelLookups int64
}

// fields lists the counters in their on-disk order.
func (c *Counters) fields() []*int64 {
	return []*int64{
		&c.Valid, &c.Candidates, &c.Duplicates, &c.Invalid, &c.LTRuns,
		&c.SeedsPruned, &c.OutputsTried, &c.Steals,
		&c.LastLevelTables, &c.LastLevelLookups,
	}
}

// Snapshot is a decoded checkpoint: everything a resume needs, plus the
// identities that gate it.
type Snapshot struct {
	// GraphHash and GraphN identify the input graph (GraphDigest).
	GraphHash [2]uint64
	GraphN    int
	// OptHash fingerprints the Options fields that define the cut set and
	// its order (constraints and prunings — not budgets, deadlines or
	// worker counts, which may legitimately differ across resume).
	OptHash uint64
	// Reason records why the snapshotted run stopped (enum.StopReason
	// values); 0 for a periodic snapshot of a still-running enumeration.
	Reason uint8
	// Done reports that the snapshotted run exhausted the search space:
	// there is nothing to resume.
	Done bool
	// Visited is the number of cuts delivered to the visitor before the
	// snapshot point — the length of the already-delivered serial prefix.
	Visited int64
	// CurTop is the top-level (output) position of the last delivered
	// cut; every earlier position is fully visited, and resume restarts
	// the top-level loop here.
	CurTop int
	// Stats holds the advisory work counters at the snapshot point.
	Stats Counters
	// HasZero and Digests are the dedup table contents: the 128-bit
	// digests that suppress re-delivery of pre-snapshot cuts on resume.
	// Serial snapshots carry every candidate digest; parallel snapshots
	// carry the delivered cuts' digests — the resume semantics are
	// identical either way (a replayed non-delivered candidate that is
	// not in the table re-validates to the same verdict).
	HasZero bool
	Digests [][2]uint64
}

// FormatError reports a structurally invalid snapshot: wrong magic, a
// truncated file, an inconsistent length field, or a negative count.
type FormatError struct {
	Reason string
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("checkpoint: malformed snapshot: %s", e.Reason)
}

// VersionError reports a snapshot written by a different format version.
type VersionError struct {
	Got uint32
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("checkpoint: unsupported snapshot version %d (this build reads version %d)", e.Got, Version)
}

// CorruptError reports a snapshot whose integrity hash does not match its
// contents.
type CorruptError struct{}

func (e *CorruptError) Error() string {
	return "checkpoint: snapshot integrity hash mismatch (file corrupted or partially written)"
}

// MismatchError reports a resume attempted against the wrong input: the
// snapshot's graph hash, graph size or options fingerprint differs from the
// caller's.
type MismatchError struct {
	Field string
	Want  string
	Got   string
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("checkpoint: snapshot %s mismatch: snapshot has %s, caller has %s", e.Field, e.Want, e.Got)
}

// GraphDigest fingerprints a frozen graph's enumeration-relevant content:
// vertex count, opcodes, the predecessor adjacency rows, and the
// forbidden/root/live-out role sets. Two graphs with equal digests present
// the same enumeration problem; names, constant values and derived caches
// are excluded. The digest is order-sensitive by construction — vertex
// identity IS topological position after Freeze.
func GraphDigest(g *dfg.Graph) [2]uint64 {
	h := bitset.NewHasher128()
	n := g.N()
	h.Int(n)
	for v := 0; v < n; v++ {
		h.Word(uint64(g.Op(v)))
	}
	for v := 0; v < n; v++ {
		h.Words(g.PredRow(v))
	}
	h.Set(g.ForbiddenSet())
	h.Set(g.RootSet())
	h.Set(g.OextSet())
	return h.Sum()
}

// DigestString renders a 128-bit graph digest as 32 lower-case hex digits,
// the wire form the session layer uses as a content-addressed graph id.
func DigestString(d [2]uint64) string {
	return fmt.Sprintf("%016x%016x", d[0], d[1])
}

// ParseDigest inverts DigestString. It accepts exactly 32 hex digits (either
// case) — the strictness matters because the string is a cache key: two
// spellings of one digest must not alias two cache entries.
func ParseDigest(s string) ([2]uint64, error) {
	var d [2]uint64
	if len(s) != 32 {
		return d, fmt.Errorf("checkpoint: digest %q: want 32 hex digits, got %d bytes", s, len(s))
	}
	for half := 0; half < 2; half++ {
		for _, c := range s[half*16 : half*16+16] {
			var v uint64
			switch {
			case c >= '0' && c <= '9':
				v = uint64(c - '0')
			case c >= 'a' && c <= 'f':
				v = uint64(c-'a') + 10
			case c >= 'A' && c <= 'F':
				v = uint64(c-'A') + 10
			default:
				return [2]uint64{}, fmt.Errorf("checkpoint: digest %q: bad hex digit %q", s, c)
			}
			d[half] = d[half]<<4 | v
		}
	}
	return d, nil
}

// flag bits of the snapshot header.
const (
	flagDone    = 1 << 0
	flagHasZero = 1 << 1
)

// maxSliceLen bounds decoded slice lengths: a length field larger than this
// is rejected as malformed before any allocation. Generous for real runs
// (a billion digests would be 16 GiB on disk anyway).
const maxSliceLen = 1 << 30

// Encode writes s to w in format Version. Only WriteFile should normally be
// used by run integrations; Encode exists for tests and tooling.
func Encode(w io.Writer, s *Snapshot) error {
	var buf bytes.Buffer
	buf.WriteString(Magic)
	le := binary.LittleEndian
	var scratch [8]byte
	w32 := func(v uint32) { le.PutUint32(scratch[:4], v); buf.Write(scratch[:4]) }
	w64 := func(v uint64) { le.PutUint64(scratch[:8], v); buf.Write(scratch[:8]) }

	w32(Version)
	w64(s.GraphHash[0])
	w64(s.GraphHash[1])
	w32(uint32(s.GraphN))
	w64(s.OptHash)
	var flags uint8
	if s.Done {
		flags |= flagDone
	}
	if s.HasZero {
		flags |= flagHasZero
	}
	buf.WriteByte(flags)
	buf.WriteByte(s.Reason)
	w64(uint64(s.Visited))
	w32(uint32(s.CurTop))
	for _, c := range s.Stats.fields() {
		w64(uint64(*c))
	}
	w32(uint32(len(s.Digests)))
	for _, d := range s.Digests {
		w64(d[0])
		w64(d[1])
	}
	sum := sha256.Sum256(buf.Bytes())
	buf.Write(sum[:])
	_, err := w.Write(buf.Bytes())
	return err
}

// decoder is a bounds-checked little-endian cursor over a verified payload.
// Reads past the end set err instead of panicking, so Decode degrades to a
// typed error on any inconsistency an attacker can hash correctly.
type decoder struct {
	b   []byte
	off int
	err bool
}

func (d *decoder) u8() uint8 {
	if d.off+1 > len(d.b) {
		d.err = true
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *decoder) u32() uint32 {
	if d.off+4 > len(d.b) {
		d.err = true
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if d.off+8 > len(d.b) {
		d.err = true
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

// sliceLen reads a length field and validates that `elem` bytes per element
// are actually present, so corrupt lengths fail before allocation.
func (d *decoder) sliceLen(elem int) int {
	n := d.u32()
	if d.err || n > maxSliceLen || d.off+int(n)*elem > len(d.b) {
		d.err = true
		return 0
	}
	return int(n)
}

// Decode reads one snapshot from r, verifying magic, version and the
// integrity hash before interpreting any field. All failures are typed:
// *FormatError (structure, or a negative Visited or counter — a sealed
// hostile file would otherwise rewind the resumed run's global count),
// *VersionError (version skew), *CorruptError (hash mismatch). It never
// panics on arbitrary input.
func Decode(r io.Reader) (*Snapshot, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(raw) < len(Magic)+4+sha256.Size {
		return nil, &FormatError{Reason: "truncated header"}
	}
	if string(raw[:len(Magic)]) != Magic {
		return nil, &FormatError{Reason: "bad magic"}
	}
	if v := binary.LittleEndian.Uint32(raw[len(Magic):]); v != Version {
		return nil, &VersionError{Got: v}
	}
	body, tail := raw[:len(raw)-sha256.Size], raw[len(raw)-sha256.Size:]
	if sum := sha256.Sum256(body); !bytes.Equal(sum[:], tail) {
		return nil, &CorruptError{}
	}

	d := &decoder{b: body, off: len(Magic) + 4}
	s := &Snapshot{}
	s.GraphHash[0] = d.u64()
	s.GraphHash[1] = d.u64()
	s.GraphN = int(d.u32())
	s.OptHash = d.u64()
	flags := d.u8()
	s.Done = flags&flagDone != 0
	s.HasZero = flags&flagHasZero != 0
	s.Reason = d.u8()
	s.Visited = int64(d.u64())
	s.CurTop = int(d.u32())
	counters := s.Stats.fields()
	for _, c := range counters {
		*c = int64(d.u64())
	}
	if n := d.sliceLen(16); n > 0 {
		s.Digests = make([][2]uint64, n)
		for i := range s.Digests {
			s.Digests[i][0] = d.u64()
			s.Digests[i][1] = d.u64()
		}
	}
	if d.err {
		return nil, &FormatError{Reason: "inconsistent length field"}
	}
	if d.off != len(body) {
		return nil, &FormatError{Reason: "trailing bytes after snapshot"}
	}
	if s.Visited < 0 {
		return nil, &FormatError{Reason: "negative visited count"}
	}
	for _, c := range counters {
		if *c < 0 {
			return nil, &FormatError{Reason: "negative work counter"}
		}
	}
	return s, nil
}

// WriteFile atomically replaces path with the encoded snapshot: the bytes
// are written to a temp file in the same directory, synced, and renamed
// over path, so a crash mid-write never destroys the previous snapshot.
func WriteFile(path string, s *Snapshot) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := Encode(tmp, s); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ReadFile decodes the snapshot at path.
func ReadFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}
