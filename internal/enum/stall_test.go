package enum

// White-box test of the steal-handoff stall watchdog. A genuine stall
// requires a broken liveness invariant — a claimed thief that never
// receives — which the healthy protocol cannot produce, so the watchdog is
// exercised directly on a crafted donor state: a steal setup whose tasks
// channel has no receiver. The donor must reabsorb the donated range,
// close both freshly spliced segments so the merge still drains, release
// the task's liveness token, and fail the run with a StallError instead of
// hanging forever.

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"polyise/internal/parallel"
)

func TestChaosStallWatchdogReabsorbs(t *testing.T) {
	ord := parallel.NewSplitOrdered[Cut](1, 4)
	st := &stealState{ord: ord, tasks: make(chan workUnit), done: make(chan struct{})}
	// Donor's own token plus one phantom peer: the stall release must not be
	// the one that closes done (the donor still holds its own token).
	st.active.Store(2)

	// No test in this package runs in parallel, so the shortened bound
	// cannot leak into a concurrently running enumeration.
	saved := defaultStealStallTimeout
	defaultStealStallTimeout = 50 * time.Millisecond
	defer func() { defaultStealStallTimeout = saved }()

	var ext atomic.Bool
	e := &incEnum{steal: st, ext: &ext}
	e.curSeg = ord.Top(0)
	stolen, resume := ord.Split(e.curSeg)
	e.ranges = append(e.ranges, posRange{cur: 2, end: 5})
	e.segStack = append(e.segStack, segResume{rangeIdx: 0, seg: resume})

	finished := make(chan struct{})
	go func() {
		defer close(finished)
		e.sendTask(workUnit{seg: stolen}, 0, 9, resume)
	}()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("sendTask hung past the stall watchdog")
	}

	var stall *StallError
	if !errors.As(e.stats.Err, &stall) {
		t.Fatalf("Stats.Err = %v, want *StallError", e.stats.Err)
	}
	if e.stats.StopReason != StopError {
		t.Fatalf("StopReason = %v, want %v", e.stats.StopReason, StopError)
	}
	if !e.stopped || !ext.Load() {
		t.Fatal("stall did not raise the worker and shared stop flags")
	}
	if e.ranges[0].end != 9 {
		t.Fatalf("donated range not reabsorbed: end = %d, want the restored 9", e.ranges[0].end)
	}
	if len(e.segStack) != 0 {
		t.Fatalf("segStack still holds %d resume entries", len(e.segStack))
	}
	if got := st.active.Load(); got != 2 {
		t.Fatalf("liveness tokens = %d after reabsorption, want the 2 pre-stall tokens", got)
	}

	// The merge must still drain: the donor's current segment plus the two
	// closed-empty spliced ones are all that exist.
	ord.Close(e.curSeg)
	drained := make(chan struct{})
	go func() {
		ord.DrainWithIndex(func(int, Cut) {})
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("merge did not drain after stall reabsorption")
	}
}
