package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	max := runtime.GOMAXPROCS(0)
	cases := map[int]int{-1: max, 0: max, 1: 1, 3: 3, 100: 100}
	for knob, want := range cases {
		if got := Workers(knob); got != want {
			t.Errorf("Workers(%d) = %d, want %d", knob, got, want)
		}
	}
}

// TestForEachCoversEveryIndexOnce drives the pool across worker counts,
// batch sizes and edge shapes (more workers than items, batch larger than
// n, empty range) and checks the exactly-once contract with per-index
// atomic counters — under -race this also proves claim distribution is
// sound.
func TestForEachCoversEveryIndexOnce(t *testing.T) {
	shapes := []struct{ workers, n, batch int }{
		{1, 17, 1}, {4, 17, 1}, {4, 17, 3}, {4, 4, 8},
		{16, 5, 1}, {3, 1000, 7}, {8, 64, 64}, {2, 0, 1}, {0, 33, 0},
	}
	for _, s := range shapes {
		counts := make([]atomic.Int32, s.n)
		ForEach(s.workers, s.n, s.batch, func(i int) {
			counts[i].Add(1)
		})
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d n=%d batch=%d: index %d ran %d times",
					s.workers, s.n, s.batch, i, c)
			}
		}
	}
}

// TestForEachConcurrentWriters fills a shared slice by index — the pool's
// advertised usage for block-level corpus sharding.
func TestForEachConcurrentWriters(t *testing.T) {
	n := 500
	out := make([]int, n)
	ForEach(8, n, 4, func(i int) { out[i] = i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

// The TestOrdered* tests pin SplitOrdered's behaviour as a plain ordered
// merge, with no Split calls: per-index streams produced concurrently, out
// of order, under the ascending-claim discipline the enumeration's
// top-level sharding uses.

// TestOrderedMergesInIndexOrder has six producers claim indices in the
// mandated ascending order but complete them at scrambled times (jitter
// sleeps), so streams finish out of order; the merged sequence must still
// be sorted by index with per-index emit order preserved.
func TestOrderedMergesInIndexOrder(t *testing.T) {
	const n, perIndex = 50, 7
	o := NewSplitOrdered[[2]int](n, 2)
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				idx := int(next.Add(1)) - 1
				if idx >= n {
					return
				}
				// Scramble real-time completion order across workers.
				time.Sleep(time.Duration((idx*37+11)%5) * time.Millisecond)
				for k := 0; k < perIndex; k++ {
					o.Emit(o.Top(idx), [2]int{idx, k})
				}
				o.Close(o.Top(idx))
			}
		}()
	}
	var got [][2]int
	o.Drain(func(v [2]int) { got = append(got, v) })
	wg.Wait()

	if len(got) != n*perIndex {
		t.Fatalf("drained %d values, want %d", len(got), n*perIndex)
	}
	for j, v := range got {
		if want := [2]int{j / perIndex, j % perIndex}; v != want {
			t.Fatalf("position %d: got %v, want %v", j, v, want)
		}
	}
}

// TestOrderedEmptyStreams checks that indices with no values don't stall
// the drain.
func TestOrderedEmptyStreams(t *testing.T) {
	o := NewSplitOrdered[int](10, 1)
	go func() {
		for i := 0; i < 10; i++ {
			if i == 4 {
				o.Emit(o.Top(i), 42)
			}
			o.Close(o.Top(i))
		}
	}()
	var got []int
	o.Drain(func(v int) { got = append(got, v) })
	if len(got) != 1 || got[0] != 42 {
		t.Fatalf("got %v, want [42]", got)
	}
}

// TestOrderedBackpressure proves a producer far ahead of the drain frontier
// blocks on its buffer instead of accumulating unboundedly, and unblocks
// once the frontier arrives.
func TestOrderedBackpressure(t *testing.T) {
	o := NewSplitOrdered[int](2, 1)
	blocked := make(chan struct{})
	go func() {
		o.Emit(o.Top(1), 0)
		o.Emit(o.Top(1), 1) // buffer of index 1 is full: must block until index 0 closes
		close(blocked)
		o.Emit(o.Top(1), 2)
		o.Close(o.Top(1))
	}()
	time.Sleep(50 * time.Millisecond) // give the producer time to (wrongly) run ahead
	select {
	case <-blocked:
		t.Fatal("producer ran past a full buffer with the frontier behind it")
	default:
	}
	o.Close(o.Top(0))
	var got []int
	o.Drain(func(v int) { got = append(got, v) })
	<-blocked
	if len(got) != 3 {
		t.Fatalf("drained %v", got)
	}
}

// TestOrderedLazyAllocation pins the lazy-stream contract: indices closed
// without emitting never materialize a channel, emitting indices allocate
// exactly one, and Drain releases each stream after exhausting
// it — so buffer memory follows the values in flight, not the index count.
func TestOrderedLazyAllocation(t *testing.T) {
	const n = 1 << 12
	o := NewSplitOrdered[int](n, 64)
	live := func() int {
		o.mu.Lock()
		defer o.mu.Unlock()
		c := 0
		for i := range o.base {
			if o.base[i].ch != nil {
				c++
			}
		}
		return c
	}
	if got := live(); got != 0 {
		t.Fatalf("NewSplitOrdered materialized %d channels up front, want 0", got)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if i%97 == 0 {
				o.Emit(o.Top(i), i) // every 97th index carries one value
			}
			o.Close(o.Top(i))
		}
	}()
	drained := 0
	o.Drain(func(v int) {
		if v%97 != 0 {
			t.Errorf("unexpected value %d", v)
		}
		drained++
	})
	wg.Wait()
	if want := (n + 96) / 97; drained != want {
		t.Fatalf("drained %d values, want %d", drained, want)
	}
	if got := live(); got != 0 {
		t.Fatalf("%d channels still live after Drain, want 0 (streams must be released)", got)
	}
}

// TestOrderedEarlyTerminatingConsumer pins the early-termination contract
// stated on Drain: a consumer that loses interest must keep
// draining (discarding) rather than return, and doing so lets every
// producer — including ones blocked on a full buffer — run to completion. The buffers
// are tiny and the producers emit far more than the consumer wants, so a
// consumer that actually stopped would deadlock the test.
func TestOrderedEarlyTerminatingConsumer(t *testing.T) {
	const n, perIndex, wantOnly = 64, 50, 5
	o := NewSplitOrdered[int](n, 1)
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				idx := int(next.Add(1)) - 1
				if idx >= n {
					return
				}
				for k := 0; k < perIndex; k++ {
					o.Emit(o.Top(idx), idx*perIndex+k)
				}
				o.Close(o.Top(idx))
			}
		}()
	}
	kept := []int{}
	total := 0
	o.Drain(func(v int) {
		total++
		if len(kept) < wantOnly { // "stopped" consumer: discard the rest
			kept = append(kept, v)
		}
	})
	wg.Wait()
	if total != n*perIndex {
		t.Fatalf("drained %d values, want %d — producers were stranded", total, n*perIndex)
	}
	for i, v := range kept {
		if v != i {
			t.Fatalf("prefix position %d: got %d, want %d", i, v, i)
		}
	}
}

// TestOrderedAscendingClaimNoStarvation is the lowest-unclosed-index
// starvation guard: under the mandated ascending-claim discipline, workers
// that park on high indices (tiny buffers, the drain frontier far behind)
// can never starve the lowest unclosed index, because its producer either
// exists or will be the next claim of whoever finishes first. The claim
// order is steal-shaped on purpose — a worker grabs a new index the moment
// it finishes one, so late indices are claimed while early ones are still
// emitting — and the whole run is bounded by a watchdog so a starvation
// bug fails fast instead of hanging the suite.
func TestOrderedAscendingClaimNoStarvation(t *testing.T) {
	const n, perIndex = 200, 9
	o := NewSplitOrdered[int](n, 1) // 1-slot buffers: maximal blocking pressure
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				idx := int(next.Add(1)) - 1
				if idx >= n {
					return
				}
				// Invert completion speed: early indices are slow, so high
				// indices pile up blocked ahead of the frontier.
				if idx < 8 {
					time.Sleep(time.Duration(8-idx) * time.Millisecond)
				}
				for k := 0; k < perIndex; k++ {
					o.Emit(o.Top(idx), idx)
				}
				o.Close(o.Top(idx))
			}
		}(w)
	}
	done := make(chan []int, 1)
	go func() {
		var got []int
		o.Drain(func(v int) { got = append(got, v) })
		done <- got
	}()
	select {
	case got := <-done:
		if len(got) != n*perIndex {
			t.Fatalf("drained %d values, want %d", len(got), n*perIndex)
		}
		for j, v := range got {
			if v != j/perIndex {
				t.Fatalf("position %d: got %d, want %d — index order violated", j, v, j/perIndex)
			}
		}
	case <-time.After(60 * time.Second):
		t.Fatal("drain starved: lowest unclosed index never progressed")
	}
	wg.Wait()
}

// TestSplitOrderedWithoutSplitsMatchesOrdered checks the degenerate case:
// with no Split calls, SplitOrdered is a plain ordered merge — per-index
// streams merged in index order, empty segments (every third index here)
// skipped without stalling the drain.
func TestSplitOrderedWithoutSplitsMatchesOrdered(t *testing.T) {
	const n = 40
	o := NewSplitOrdered[int](n, 2)
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < 5; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if i%3 != 0 { // leave every third segment empty
					o.Emit(o.Top(i), 2*i)
					o.Emit(o.Top(i), 2*i+1)
				}
				o.Close(o.Top(i))
			}
		}()
	}
	var got []int
	o.Drain(func(v int) { got = append(got, v) })
	wg.Wait()
	want := []int{}
	for i := 0; i < n; i++ {
		if i%3 != 0 {
			want = append(want, 2*i, 2*i+1)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("drained %d values, want %d", len(got), len(want))
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("position %d: got %d, want %d", j, got[j], want[j])
		}
	}
}

// TestSplitOrderedSpliceOrder pins the list semantics of Split with a
// single deterministic producer: values emitted into the donor's segment
// before AND after the split precede the stolen segment's values only when
// emitted before — after the split the donor's current segment still drains
// first (its remaining values serially precede the donated tail), then the
// stolen segment, then the resume segment, then later top segments. Also
// covers a re-split of the same segment: the second splice lands closer to
// the donor than the first, and the intermediate resume segment may close
// empty.
func TestSplitOrderedSpliceOrder(t *testing.T) {
	o := NewSplitOrdered[string](3, 16)
	s0, s1, s2 := o.Top(0), o.Top(1), o.Top(2)
	o.Emit(s0, "s0")
	o.Close(s0)

	o.Emit(s1, "a")
	stolen1, resume1 := o.Split(s1)
	o.Emit(s1, "b") // donor's remaining work: still ahead of the stolen tail
	stolen2, resume2 := o.Split(s1)
	o.Emit(s1, "c")
	o.Close(s1)
	// Thieves fill the stolen segments (order of fill is irrelevant).
	o.Emit(stolen2, "near-tail")
	o.Close(stolen2)
	o.Emit(stolen1, "far-tail")
	o.Close(stolen1)
	// Donor walks its resume chain: the intermediate resume closes empty.
	o.Close(resume2)
	o.Emit(resume1, "after")
	o.Close(resume1)

	o.Emit(s2, "s2")
	o.Close(s2)

	var got []string
	o.Drain(func(v string) { got = append(got, v) })
	want := []string{"s0", "a", "b", "c", "near-tail", "far-tail", "after", "s2"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestSplitOrderedConcurrentRecursiveSplits is the stress version: every
// top segment logically owns the value range [0, M), and producers
// recursively donate the upper half of their remaining range to freshly
// spawned thief goroutines (each stolen segment has a live owner from
// birth, per the protocol), which may split again. Split decisions depend
// on scheduling only through WHERE the splits land, never on the merged
// sequence, which must come out exactly as the serial nested loop — under
// -race this is the package-level model of the enumeration's interior
// work-stealing.
func TestSplitOrderedConcurrentRecursiveSplits(t *testing.T) {
	const n, m = 24, 48
	o := NewSplitOrdered[[2]int](n, 2)
	var wg sync.WaitGroup
	// produce emits [lo, hi) of segment index i's range into seg, donating
	// upper halves along the way whenever the deterministic coin says so.
	var produce func(seg *Seg[[2]int], i, lo, hi, depth int)
	produce = func(seg *Seg[[2]int], i, lo, hi, depth int) {
		defer wg.Done()
		for j := lo; j < hi; j++ {
			if hi-j >= 2 && (i+j+depth)%3 == 0 {
				mid := j + (hi-j+1)/2
				stolen, resume := o.Split(seg)
				wg.Add(1)
				go produce(stolen, i, mid, hi, depth+1)
				hi = mid
				// This producer has nothing to emit past its range, so every
				// resume segment closes empty; the deferred closes run LIFO
				// (innermost donation first), mirroring the unwind order of
				// the enumeration's popRangeSegs.
				defer o.Close(resume)
			}
			o.Emit(seg, [2]int{i, j})
			time.Sleep(time.Duration((i*7+j*13)%3) * time.Microsecond)
		}
		o.Close(seg)
	}
	var next atomic.Int64
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				wg.Add(1)
				produce(o.Top(i), i, 0, m, 0)
			}
		}()
	}
	var got [][2]int
	o.Drain(func(v [2]int) { got = append(got, v) })
	wg.Wait()
	if len(got) != n*m {
		t.Fatalf("drained %d values, want %d", len(got), n*m)
	}
	for p, v := range got {
		if want := [2]int{p / m, p % m}; v != want {
			t.Fatalf("position %d: got %v, want %v — splice order broken", p, v, want)
		}
	}
}

// TestSplitOrderedEarlyDiscard mirrors the early-termination test with
// splits: a consumer that discards after a prefix still
// drains every segment, including ones spliced in mid-drain.
func TestSplitOrderedEarlyDiscard(t *testing.T) {
	const n = 16
	o := NewSplitOrdered[int](n, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			seg := o.Top(i)
			o.Emit(seg, i)
			stolen, resume := o.Split(seg)
			o.Emit(seg, i)
			o.Close(seg)
			o.Emit(stolen, i)
			o.Close(stolen)
			o.Emit(resume, i)
			o.Close(resume)
		}
	}()
	total, kept := 0, 0
	o.Drain(func(v int) {
		total++
		if v < 2 {
			kept++
		}
	})
	wg.Wait()
	if total != 4*n {
		t.Fatalf("drained %d values, want %d", total, 4*n)
	}
}
