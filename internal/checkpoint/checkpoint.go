// Package checkpoint defines the durable on-disk snapshot format that makes
// long enumeration runs crash-tolerant. A snapshot captures the enumeration
// state at a serial-order visit point — the count of cuts already delivered,
// the top-level frontier position, how many cuts of that position's subtree
// were already delivered, and the partial work counters — together with the
// identities needed to refuse a wrong resume: a content hash of the input
// graph and a fingerprint of the semantically relevant Options. Its size is
// fixed: it does not grow with the cut count.
//
// The format is deliberately dumb: one fixed-layout record (magic, version,
// identities, frontier and counters; see record) that encoding/binary
// writes little-endian without padding, and a trailing SHA-256 over
// everything before it. Decode never panics on hostile input — every
// failure is one of the typed errors below (*FormatError, *VersionError,
// *CorruptError) — and WriteFile is atomic (temp file + rename in the
// destination directory), so a crash during a snapshot write leaves the
// previous snapshot intact.
//
// What is NOT in a snapshot is as deliberate as what is: the cut set S, the
// choice stacks, the reaches frontiers and the seed-loop state are all
// pure functions of the search position (rebuildS — the invariant that
// makes work-stealing possible makes checkpointing possible too) and are
// recomputed on resume by replaying the in-progress top-level subtree and
// skipping its first TopDelivered cuts. Serial and parallel runs write the
// same snapshot shape. See docs/ALGORITHM.md §12 for the resume-identity
// argument.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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
const Version = 3

// Counters mirrors the work counters of enum.Stats at the snapshot point.
// They are advisory — resume replays some pre-snapshot work, so counters of
// a resumed run can exceed an uninterrupted run's; the visit sequence is
// what the resume contract pins, not these. The fields are declared in
// their on-disk order: record holds a Counters as is.
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

// Fields lists the counters in their on-disk order.
func (c *Counters) Fields() [10]*int64 {
	return [...]*int64{
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
	// TopDelivered is how many cuts of the CurTop subtree were delivered
	// (0 ≤ TopDelivered ≤ Visited): resume replays that subtree and skips
	// this many of its cuts.
	TopDelivered int64
	// Stats holds the advisory work counters at the snapshot point.
	Stats Counters
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
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != 16 {
		return [2]uint64{}, fmt.Errorf("checkpoint: digest %q: want 32 hex digits", s)
	}
	return [2]uint64{binary.BigEndian.Uint64(b), binary.BigEndian.Uint64(b[8:])}, nil
}

// flagDone is the header flag bit of Snapshot.Done.
const flagDone = 1 << 0

// record is the fixed v3 layout of a snapshot, everything before the
// SHA-256 trailer. encoding/binary writes and reads its fields in
// declaration order, little-endian and without padding, so the struct is
// the format: binary.Size(record{}) is the body length Decode requires.
type record struct {
	Magic        [len(Magic)]byte
	Version      uint32
	GraphHash    [2]uint64
	GraphN       uint32
	OptHash      uint64
	Flags        uint8
	Reason       uint8
	Visited      int64
	CurTop       uint32
	TopDelivered int64
	Counters     Counters
}

// Encode writes s to w in format Version. Only WriteFile should normally be
// used by run integrations; Encode exists for tests and tooling.
func Encode(w io.Writer, s *Snapshot) error {
	rec := record{
		Version:      Version,
		GraphHash:    s.GraphHash,
		GraphN:       uint32(s.GraphN),
		OptHash:      s.OptHash,
		Reason:       s.Reason,
		Visited:      s.Visited,
		CurTop:       uint32(s.CurTop),
		TopDelivered: s.TopDelivered,
		Counters:     s.Stats,
	}
	copy(rec.Magic[:], Magic)
	if s.Done {
		rec.Flags |= flagDone
	}
	var buf bytes.Buffer
	if err := binary.Write(&buf, binary.LittleEndian, &rec); err != nil {
		return err
	}
	sum := sha256.Sum256(buf.Bytes())
	buf.Write(sum[:])
	_, err := w.Write(buf.Bytes())
	return err
}

// Decode reads one snapshot from r, verifying magic, version and the
// integrity hash before interpreting any field. All failures are typed:
// *FormatError (structure: a body whose length is not the record's, a
// negative Visited or counter — a sealed hostile file would otherwise
// rewind the resumed run's global count — or a TopDelivered outside
// [0, Visited]), *VersionError (version skew), *CorruptError (hash
// mismatch). It never panics on arbitrary input.
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
	var rec record
	if n, err := binary.Decode(body, binary.LittleEndian, &rec); err != nil || n != len(body) {
		return nil, &FormatError{Reason: fmt.Sprintf("body of %d bytes, want %d", len(body), binary.Size(rec))}
	}
	s := &Snapshot{
		GraphHash:    rec.GraphHash,
		GraphN:       int(rec.GraphN),
		OptHash:      rec.OptHash,
		Reason:       rec.Reason,
		Done:         rec.Flags&flagDone != 0,
		Visited:      rec.Visited,
		CurTop:       int(rec.CurTop),
		TopDelivered: rec.TopDelivered,
		Stats:        rec.Counters,
	}
	if s.Visited < 0 {
		return nil, &FormatError{Reason: "negative visited count"}
	}
	if s.TopDelivered < 0 || s.TopDelivered > s.Visited {
		return nil, &FormatError{Reason: "frontier delivered count outside [0, visited]"}
	}
	for _, c := range s.Stats.Fields() {
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
