// Package parallel is the shared concurrency substrate of polyise: a
// work-stealing index pool with batching, and a deterministic ordered merge
// of concurrently produced result streams.
//
// All enumeration grain sizes use it. Block-level sharding (a corpus of
// basic blocks spread over GOMAXPROCS workers, internal/bench) claims block
// indices from ForEach and writes results into a slice, so the merged
// output is ordered exactly as the serial loop would have produced it.
// Intra-block sharding (internal/enum's parallel Enumerate) additionally
// needs the *streams* of per-shard results interleaved deterministically.
// SplitOrdered provides that: producers emit into per-index stream
// segments out of order, one consumer drains them in strict list order,
// and a producer can split its segment at its current point, donating the
// tail of its remaining work to another producer while the merged output
// order stays exactly the order a serial execution would have produced.
//
// The package deliberately contains no enumeration logic: it only moves
// indices and values, so it can be raced-tested in isolation.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"polyise/internal/faultinject"
)

// Workers resolves a parallelism knob to a concrete worker count: any value
// below 1 means "auto" (GOMAXPROCS); anything else is taken literally.
// Values above GOMAXPROCS are allowed — oversubscription is harmless for
// correctness and the stress tests rely on it.
func Workers(knob int) int {
	if knob < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return knob
}

// ForEach runs fn(i) for every i in [0, n) across `workers` goroutines and
// blocks until all calls have returned. Indices are claimed dynamically in
// contiguous batches of `batch` (values below 1 mean 1) from an atomic
// counter, so cheap items amortize the claim and expensive items cannot
// stall a statically assigned peer. fn must be safe for concurrent calls
// with distinct i; every index is passed exactly once.
func ForEach(workers, n, batch int, fn func(i int)) {
	workers = Workers(workers)
	if batch < 1 {
		batch = 1
	}
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				start := int(next.Add(int64(batch))) - batch
				if start >= n {
					return
				}
				end := start + batch
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
}

// Seg is one stream segment of a SplitOrdered merge: a contiguous slice of
// the merged output sequence, produced by exactly one producer at a time.
// Ownership is transferable (a donor hands a stolen segment to a thief),
// but Emit and Close for one segment must never race — the handoff must
// happen-before the new owner's first use, e.g. through a channel send.
type Seg[T any] struct {
	ch   chan T  // lazily created; nil = not yet emitted (or already drained)
	next *Seg[T] // list order = serial output order; guarded by SplitOrdered.mu
	done bool    // closed with no channel ever created
}

// SplitOrdered merges a dynamically growing, ordered list of stream
// segments into the single sequence a serial execution would have produced.
// It starts as n top-level segments, one per top-level work index, drained
// in index order, and any producer may call Split on the segment it is
// currently emitting into, which splices a (stolen, resume) segment pair
// into the list right after it. The stolen segment carries the output of
// donated work that serially comes after everything the donor will still
// emit into its current segment; the resume segment receives the donor's
// own output from the point it passes the donated work. Splitting is how
// interior work-stealing keeps a deterministic merge: hierarchical sequence
// numbers are represented structurally, as positions in the segment list,
// instead of numerically.
//
// Streams are allocated lazily: a segment's channel materializes at its
// first Emit, a segment closed without emitting never allocates one, and
// Drain releases each stream once it is exhausted. Buffer memory therefore
// follows the values actually in flight, not n, which matters when n is
// "one stream per graph vertex" and almost every stream is empty. Emit blocks when a segment's buffer is full, so at most
// producers×buf values sit ahead of the drain frontier.
//
// Protocol. Every segment must be closed exactly once, and a segment's
// Emit/Close calls must come from its single current owner. Split may only
// be called by a segment's owner on its own still-open segment, and the
// donor must close its current segment before switching to (and eventually
// closing) the resume segment; the stolen segment's ownership transfers to
// the thief, who must close it even if it declines the work. Deadlock
// freedom additionally requires that every open segment is owned by a LIVE
// producer (one that keeps emitting/closing without waiting on the merge
// frontier for anything but its own segment's buffer): under that handoff
// discipline the head segment's owner is either runnable or blocked
// emitting into the head itself, which the consumer is draining. Publishing
// a stolen segment without a committed executor voids the guarantee — the
// consumer would wait on a stream nobody is going to close. Top-level
// segments nobody has claimed yet have no owner; they are safe under an
// ascending claim (a shared atomic counter, each claim finished and closed
// before the next): when the head is unclaimed, every lower segment is
// closed and some producer's next claim reaches it. Claiming out of
// ascending order voids the guarantee — producers blocked on full buffers
// of high segments can starve the unclaimed low segment the drain waits
// for.
type SplitOrdered[T any] struct {
	mu   sync.Mutex
	cond *sync.Cond
	base []Seg[T] // the n top-level segments, pre-linked in index order
	buf  int
}

// NewSplitOrdered returns a merge over n top-level segments whose streams
// carry a per-segment buffer of buf values once they materialize. The
// top-level segments are allocated as one block; spliced segments are
// allocated pairwise by Split.
func NewSplitOrdered[T any](n, buf int) *SplitOrdered[T] {
	o := &SplitOrdered[T]{base: make([]Seg[T], n), buf: buf}
	for i := 0; i+1 < n; i++ {
		o.base[i].next = &o.base[i+1]
	}
	o.cond = sync.NewCond(&o.mu)
	return o
}

// Top returns the i-th top-level segment.
func (o *SplitOrdered[T]) Top(i int) *Seg[T] { return &o.base[i] }

// Emit appends v to segment s, materializing its stream on first use. It
// may block until the consumer drains every earlier segment.
func (o *SplitOrdered[T]) Emit(s *Seg[T], v T) {
	// Reading without the lock is safe: s's channel is written only by its
	// single owner — this goroutine — below.
	ch := s.ch
	if ch == nil {
		ch = make(chan T, o.buf)
		o.mu.Lock()
		s.ch = ch
		o.mu.Unlock()
		o.cond.Broadcast()
	}
	ch <- v
}

// Close marks segment s complete. Every segment must be closed exactly
// once for Drain to terminate. A segment that never emitted closes without
// ever allocating a channel.
func (o *SplitOrdered[T]) Close(s *Seg[T]) {
	if ch := s.ch; ch != nil { // single-owner read, as in Emit
		close(ch)
		return
	}
	o.mu.Lock()
	s.done = true
	o.mu.Unlock()
	o.cond.Broadcast()
}

// Split splices a (stolen, resume) segment pair into the list immediately
// after s, which must be the caller's own still-open current segment. The
// serial output order becomes: the rest of s, then stolen, then resume,
// then whatever followed s. Both new segments start empty and open; the
// caller keeps ownership of resume (to be emitted into once its own work
// passes the donated range, then closed) and hands stolen to the thief.
// The pair is one allocation.
func (o *SplitOrdered[T]) Split(s *Seg[T]) (stolen, resume *Seg[T]) {
	if h := faultinject.OnMergeSplice; h != nil {
		// Before any list mutation: an injected panic here propagates to
		// the caller with the segment list untouched, so the containment
		// layer above sees a consistent merge with no half-spliced pair.
		h()
	}
	pair := new([2]Seg[T])
	stolen, resume = &pair[0], &pair[1]
	o.mu.Lock()
	resume.next = s.next
	stolen.next = resume
	s.next = stolen
	o.mu.Unlock()
	return stolen, resume
}

// Drain consumes the segments in list order, calling visit for every
// value, and releases each stream as it finishes with it. It returns when
// the list is exhausted — which requires every segment, including ones
// spliced in while draining, to be closed. Early termination is the
// caller's business: keep consuming (discarding) so blocked producers can
// finish.
func (o *SplitOrdered[T]) Drain(visit func(v T)) {
	if len(o.base) == 0 {
		return
	}
	for s := &o.base[0]; s != nil; {
		o.mu.Lock()
		for s.ch == nil && !s.done {
			o.cond.Wait()
		}
		ch := s.ch
		o.mu.Unlock()
		if ch != nil {
			for v := range ch {
				visit(v)
			}
		}
		o.mu.Lock()
		s.ch = nil // release the drained stream's buffer
		// s.next is read under the lock only after s closed: splices happen
		// only on open segments, so the link is final by now — but the write
		// itself needs the same lock to be visible.
		s = s.next
		o.mu.Unlock()
	}
}
