package session

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"polyise/internal/dfg"
	"polyise/internal/enum"
	"polyise/internal/graphio"
	"polyise/internal/workload"
)

// submitGraph pushes g through the service's submission path and returns
// its id.
func submitGraph(t testing.TB, s *Service, g *dfg.Graph) GraphID {
	t.Helper()
	var buf bytes.Buffer
	if err := graphio.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	id, _, err := s.SubmitGraph(&buf)
	if err != nil {
		t.Fatalf("SubmitGraph: %v", err)
	}
	return id
}

// serialReference enumerates g with the library directly (serial,
// unbudgeted) and returns the visit-ordered cut strings.
func serialReference(t testing.TB, g *dfg.Graph, opt enum.Options) []string {
	t.Helper()
	opt.Parallelism = 1
	var seq []string
	enum.Enumerate(g, opt, func(c enum.Cut) bool {
		seq = append(seq, c.String())
		return true
	})
	return seq
}

func collectStrings(seq *[]string) func(enum.Cut) bool {
	return func(c enum.Cut) bool {
		*seq = append(*seq, c.String())
		return true
	}
}

func TestServiceCachedEqualsFreshBitExact(t *testing.T) {
	g := workload.MiBenchLike(rand.New(rand.NewSource(7)), 80, workload.DefaultProfile())
	want := serialReference(t, g, enum.DefaultOptions())
	if len(want) == 0 {
		t.Fatal("reference enumeration empty; pick a richer graph")
	}
	s := NewService(Config{})
	id := submitGraph(t, s, g)
	// First request freezes-and-caches; second hits the cache. Both must
	// reproduce the library sequence bit-for-bit.
	for round := 0; round < 2; round++ {
		var got []string
		stats, err := s.Enumerate(context.Background(), Request{Graph: id, Options: enum.DefaultOptions()}, collectStrings(&got))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if stats.StopReason != enum.StopNone {
			t.Fatalf("round %d: StopReason = %v", round, stats.StopReason)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: cached enumeration diverges from fresh library run (%d vs %d cuts)", round, len(got), len(want))
		}
	}
	if hits := s.Cache().Stats().Hits; hits == 0 {
		t.Fatal("second round did not hit the cache")
	}
}

// TestServiceConcurrentSharedGraph runs many enumerations of the same
// cached graph concurrently (one *dfg.Graph instance shared by all) under
// -race; every run must deliver the identical serial sequence.
func TestServiceConcurrentSharedGraph(t *testing.T) {
	g := workload.MiBenchLike(rand.New(rand.NewSource(11)), 60, workload.DefaultProfile())
	want := serialReference(t, g, enum.DefaultOptions())
	s := NewService(Config{MaxConcurrent: 4, QueueDepth: 16})
	id := submitGraph(t, s, g)
	const runs = 8
	var wg sync.WaitGroup
	results := make([][]string, runs)
	errs := make([]error, runs)
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Enumerate(context.Background(), Request{Graph: id, Options: enum.DefaultOptions()}, collectStrings(&results[i]))
		}(i)
	}
	wg.Wait()
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i], want) {
			t.Fatalf("run %d diverges from the serial reference", i)
		}
	}
}

func TestServiceAdmissionShedsPastQueue(t *testing.T) {
	g := workload.MiBenchLike(rand.New(rand.NewSource(3)), 40, workload.DefaultProfile())
	s := NewService(Config{MaxConcurrent: 1, QueueDepth: 1, RetryAfter: 2 * time.Second})
	id := submitGraph(t, s, g)

	// Occupy the only slot with a visitor parked on a channel.
	inSlot := make(chan struct{}, 1)
	unblock := make(chan struct{})
	slotDone := make(chan error, 1)
	go func() {
		_, err := s.Enumerate(context.Background(), Request{Graph: id, Options: enum.DefaultOptions()}, func(enum.Cut) bool {
			select {
			case inSlot <- struct{}{}:
			default:
			}
			<-unblock
			return false
		})
		slotDone <- err
	}()
	<-inSlot

	// Fill the one queue seat with a canceled-later waiter.
	waiterCtx, cancelWaiter := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, err := s.Enumerate(waiterCtx, Request{Graph: id, Options: enum.DefaultOptions()}, func(enum.Cut) bool { return false })
		waiterDone <- err
	}()
	// The waiter registers before blocking on the slot; give it a moment.
	deadline := time.After(5 * time.Second)
	for s.inflight.Load() < 2 {
		select {
		case <-deadline:
			t.Fatal("waiter never queued")
		default:
			time.Sleep(time.Millisecond)
		}
	}

	// Slot taken, queue full: the next request must shed immediately.
	start := time.Now()
	_, err := s.Enumerate(context.Background(), Request{Graph: id, Options: enum.DefaultOptions()}, func(enum.Cut) bool { return true })
	var over *OverloadError
	if !errors.As(err, &over) {
		t.Fatalf("overflow request: err = %v, want *OverloadError", err)
	}
	if over.Cause != CauseQueue {
		t.Fatalf("Cause = %v, want %v", over.Cause, CauseQueue)
	}
	if over.RetryAfter != 2*time.Second {
		t.Fatalf("RetryAfter = %v, want the configured 2s", over.RetryAfter)
	}
	if shedLatency := time.Since(start); shedLatency > time.Second {
		t.Fatalf("shedding took %v; must be immediate", shedLatency)
	}
	if s.Stats().Shed == 0 {
		t.Fatal("shed counter not incremented")
	}

	cancelWaiter()
	if err := <-waiterDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter: err = %v, want context.Canceled", err)
	}
	close(unblock)
	if err := <-slotDone; err != nil {
		t.Fatalf("slot holder: %v", err)
	}
}

func TestServicePoisonRequestIsIsolated(t *testing.T) {
	g := workload.MiBenchLike(rand.New(rand.NewSource(5)), 50, workload.DefaultProfile())
	s := NewService(Config{MaxConcurrent: 2})
	id := submitGraph(t, s, g)
	_, err := s.Enumerate(context.Background(), Request{Graph: id, Options: enum.DefaultOptions()}, func(enum.Cut) bool {
		panic("poison visitor")
	})
	var pe *enum.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("poison request: err = %v (%T), want *enum.PanicError", err, err)
	}
	// The service survives: the slot was released and healthy requests run.
	want := serialReference(t, g, enum.DefaultOptions())
	var got []string
	if _, err := s.Enumerate(context.Background(), Request{Graph: id, Options: enum.DefaultOptions()}, collectStrings(&got)); err != nil {
		t.Fatalf("request after poison: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("request after poison diverges from the serial reference")
	}
	if s.Stats().Running != 0 {
		t.Fatalf("Running = %d after all requests returned", s.Stats().Running)
	}
}

// TestServiceSubmitShedsOnMemory covers the memory shed end to end:
// SubmitGraph refuses, through Cache.Put, a graph the budget cannot hold
// with *OverloadError{CauseMemory} — one larger than the whole budget, and
// one that fits only by evicting a graph a running request pins. An
// enumeration reserves no memory of its own, so the budget holds exactly
// the cached graphs throughout.
func TestServiceSubmitShedsOnMemory(t *testing.T) {
	g := workload.MiBenchLike(rand.New(rand.NewSource(9)), 40, workload.DefaultProfile())
	other := workload.MiBenchLike(rand.New(rand.NewSource(10)), 40, workload.DefaultProfile())
	huge := workload.MiBenchLike(rand.New(rand.NewSource(11)), 200, workload.DefaultProfile())
	s := NewService(Config{MemoryBudget: max(g.FootprintBytes(), other.FootprintBytes()) + 1024})
	submit := func(h *dfg.Graph) error {
		var buf bytes.Buffer
		if err := graphio.Write(&buf, h); err != nil {
			t.Fatal(err)
		}
		_, _, err := s.SubmitGraph(&buf)
		return err
	}
	isMemoryShed := func(err error) bool {
		var over *OverloadError
		return errors.As(err, &over) && over.Cause == CauseMemory
	}
	if err := submit(huge); !isMemoryShed(err) {
		t.Fatalf("graph larger than the budget: err = %v, want *OverloadError(memory)", err)
	}
	id := submitGraph(t, s, g)
	// While a request pins g, other fits only by evicting it: refused.
	var pinnedErr error
	opt := enum.DefaultOptions()
	opt.Parallelism = 1
	if _, err := s.Enumerate(context.Background(), Request{Graph: id, Options: opt}, func(enum.Cut) bool {
		pinnedErr = submit(other)
		if used, cached := s.budget.Used(), s.Cache().Stats().Bytes; used != cached {
			t.Errorf("mid-run budget used %d != cached bytes %d", used, cached)
		}
		return false
	}); err != nil {
		t.Fatalf("pinning request: %v", err)
	}
	if !isMemoryShed(pinnedErr) {
		t.Fatalf("graph needing a pinned graph's room: err = %v, want *OverloadError(memory)", pinnedErr)
	}
	// Unpinned, g is evictable and other fits.
	if err := submit(other); err != nil {
		t.Fatalf("submit after the request released its graph: %v", err)
	}
	if used, cached := s.budget.Used(), s.Cache().Stats().Bytes; used != cached || cached != other.FootprintBytes() {
		t.Fatalf("budget used %d, cached bytes %d, want both %d", used, cached, other.FootprintBytes())
	}
}

func TestServiceShutdownParksDurableRunAndResumesBitExact(t *testing.T) {
	g := workload.MiBenchLike(rand.New(rand.NewSource(17)), 100, workload.DefaultProfile())
	want := serialReference(t, g, enum.DefaultOptions())
	if len(want) < 300 {
		t.Fatalf("reference has only %d cuts; too short to interrupt meaningfully", len(want))
	}
	dir := t.TempDir()
	s := NewService(Config{CheckpointDir: dir})
	id := submitGraph(t, s, g)

	req := Request{
		Graph:           id,
		Options:         enum.DefaultOptions(),
		Durable:         true,
		RunID:           "park-test",
		CheckpointEvery: 64,
	}
	// The visitor triggers Shutdown from inside the run after 100 cuts,
	// then waits for draining to begin so the park point is deterministic.
	var first []string
	shutdownErr := make(chan error, 1)
	stats, err := s.Enumerate(context.Background(), req, func(c enum.Cut) bool {
		first = append(first, c.String())
		if len(first) == 100 {
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				shutdownErr <- s.Shutdown(ctx)
			}()
			for !s.Draining() {
				time.Sleep(100 * time.Microsecond)
			}
		}
		return true
	})
	var susp *SuspendedError
	if !errors.As(err, &susp) {
		t.Fatalf("interrupted durable run: err = %v, want *SuspendedError", err)
	}
	if susp.RunID != "park-test" || susp.SnapshotPath == "" {
		t.Fatalf("SuspendedError = %+v, want run id and snapshot path", susp)
	}
	if stats.StopReason != enum.StopCheckpoint {
		t.Fatalf("StopReason = %v, want %v", stats.StopReason, enum.StopCheckpoint)
	}
	if susp.Visited != len(first) {
		t.Fatalf("SuspendedError.Visited = %d, visitor saw %d", susp.Visited, len(first))
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// Drained service refuses new work.
	var shedErr *OverloadError
	if _, err := s.Enumerate(context.Background(), req, func(enum.Cut) bool { return true }); !errors.As(err, &shedErr) || shedErr.Cause != CauseShutdown {
		t.Fatalf("drained service: err = %v, want *OverloadError(shutdown)", err)
	}

	// "Restart": a fresh service over the same checkpoint directory. The
	// graph must be resubmitted (the cache died with the process) — content
	// addressing gives it the same id — and Resume must deliver exactly
	// the cuts after the parked prefix.
	s2 := NewService(Config{CheckpointDir: dir})
	id2 := submitGraph(t, s2, g)
	if id2 != id {
		t.Fatalf("resubmitted graph got id %v, want %v", id2, id)
	}
	var rest []string
	rstats, err := s2.Resume(context.Background(), req, collectStrings(&rest))
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if rstats.StopReason != enum.StopNone {
		t.Fatalf("resumed run StopReason = %v", rstats.StopReason)
	}
	if got := append(append([]string{}, first...), rest...); !reflect.DeepEqual(got, want) {
		t.Fatalf("prefix(%d) + resumed(%d) != uninterrupted serial run (%d cuts)", len(first), len(rest), len(want))
	}
	// Resuming the now-completed run reports there is nothing left.
	if _, err := s2.Resume(context.Background(), req, func(enum.Cut) bool { return true }); !errors.Is(err, enum.ErrCompleted) {
		t.Fatalf("second resume: err = %v, want enum.ErrCompleted", err)
	}
}

func TestServiceResumeRefusesWrongGraph(t *testing.T) {
	gA := workload.MiBenchLike(rand.New(rand.NewSource(21)), 60, workload.DefaultProfile())
	gB := workload.MiBenchLike(rand.New(rand.NewSource(22)), 60, workload.DefaultProfile())
	dir := t.TempDir()
	s := NewService(Config{CheckpointDir: dir})
	idA := submitGraph(t, s, gA)
	idB := submitGraph(t, s, gB)
	req := Request{Graph: idA, Options: enum.DefaultOptions(), Durable: true, RunID: "wrong-graph"}
	// Complete a short durable run for graph A (final snapshot written).
	if _, err := s.Enumerate(context.Background(), req, func(enum.Cut) bool { return true }); err != nil {
		t.Fatalf("durable run: %v", err)
	}
	// Resuming run "wrong-graph" against graph B must be refused loudly.
	bad := req
	bad.Graph = idB
	_, err := s.Resume(context.Background(), bad, func(enum.Cut) bool { return true })
	if err == nil {
		t.Fatal("resume against the wrong graph succeeded")
	}
	// Unknown run ids are a typed not-found.
	missing := req
	missing.RunID = "never-started"
	var nf *NotFoundError
	if _, err := s.Resume(context.Background(), missing, func(enum.Cut) bool { return true }); !errors.As(err, &nf) || nf.Kind != "run" {
		t.Fatalf("unknown run: err = %v, want *NotFoundError(run)", err)
	}
}

func TestServiceRunIDValidation(t *testing.T) {
	s := NewService(Config{CheckpointDir: t.TempDir()})
	g := workload.MiBenchLike(rand.New(rand.NewSource(2)), 30, workload.DefaultProfile())
	id := submitGraph(t, s, g)
	for _, bad := range []string{"", "../escape", "a/b", "..", "x y"} {
		req := Request{Graph: id, Options: enum.DefaultOptions(), Durable: true, RunID: bad}
		if _, err := s.Enumerate(context.Background(), req, func(enum.Cut) bool { return true }); err == nil {
			t.Errorf("run id %q accepted", bad)
		}
	}
}
