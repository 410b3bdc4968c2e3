package enum_test

// Failure-path semantics of the enumeration: contained panics (visitor,
// worker, thief mid-handoff), context cancellation, and resource budgets.
// Every test asserts the two halves of the fail-safe contract — the run
// terminates cleanly (no hang, merge drained) and the cuts already visited
// are an exact prefix of the serial enumeration order. All of these run
// under -race in CI (`make test-race`, `make chaos`).

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"polyise/internal/dfg"
	"polyise/internal/enum"
	"polyise/internal/faultinject"
	"polyise/internal/workload"
)

// failGraph is the shared mid-size instance: rich enough to shard, steal
// and hit cut budgets, small enough to enumerate in milliseconds.
func failGraph(t *testing.T, seed int64, n int) (*dfg.Graph, []string) {
	t.Helper()
	g := workload.MiBenchLike(rand.New(rand.NewSource(seed)), n, workload.DefaultProfile())
	sopt := enum.DefaultOptions()
	sopt.Parallelism = 1
	serial := visitSequence(g, sopt)
	if len(serial) < 10 {
		t.Fatalf("seed %d yields only %d cuts; pick a richer seed", seed, len(serial))
	}
	return g, serial
}

// runBounded runs fn with a liveness bound: a fail-safe enumeration must
// terminate on its own well within any watchdog.
func runBounded(t *testing.T, what string, fn func() enum.Stats) enum.Stats {
	t.Helper()
	done := make(chan enum.Stats, 1)
	go func() { done <- fn() }()
	select {
	case s := <-done:
		return s
	case <-time.After(60 * time.Second):
		t.Fatalf("%s did not terminate", what)
		panic("unreachable")
	}
}

func isPrefix(got, full []string) bool {
	if len(got) > len(full) {
		return false
	}
	for i := range got {
		if got[i] != full[i] {
			return false
		}
	}
	return true
}

// TestFailurePanickingVisitorSerial: a panic thrown by the visitor itself
// is contained at the serial boundary, reported as a *PanicError with the
// stack, and the cuts delivered before it form the exact serial prefix.
func TestFailurePanickingVisitorSerial(t *testing.T) {
	g, serial := failGraph(t, 3, 60)
	k := len(serial) / 2
	opt := enum.DefaultOptions()
	opt.Parallelism = 1
	opt.KeepCuts = true
	var got []string
	stats := runBounded(t, "serial run with panicking visitor", func() enum.Stats {
		return enum.Enumerate(g, opt, func(c enum.Cut) bool {
			got = append(got, c.String())
			if len(got) == k {
				panic("visitor exploded")
			}
			return true
		})
	})
	var pe *enum.PanicError
	if !errors.As(stats.Err, &pe) {
		t.Fatalf("Stats.Err = %v, want *PanicError", stats.Err)
	}
	if pe.Value != "visitor exploded" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError = {%v, %d stack bytes}", pe.Value, len(pe.Stack))
	}
	if stats.StopReason != enum.StopError {
		t.Fatalf("StopReason = %v, want %v", stats.StopReason, enum.StopError)
	}
	if !reflect.DeepEqual(got, serial[:k]) {
		t.Fatalf("visited cuts diverge from the serial prefix (%d vs %d)", len(got), k)
	}
}

// TestFailurePanickingVisitorParallel: the same contract at the merge
// containment boundary — the drain keeps going so no producer is left
// blocked, and nothing is visited past the panic.
func TestFailurePanickingVisitorParallel(t *testing.T) {
	g, serial := failGraph(t, 3, 60)
	k := len(serial) / 2
	opt := enum.DefaultOptions()
	opt.Parallelism = 4
	var got []string
	stats := runBounded(t, "parallel run with panicking visitor", func() enum.Stats {
		return enum.Enumerate(g, opt, func(c enum.Cut) bool {
			got = append(got, c.String())
			if len(got) == k {
				panic("visitor exploded")
			}
			return true
		})
	})
	var pe *enum.PanicError
	if !errors.As(stats.Err, &pe) {
		t.Fatalf("Stats.Err = %v, want *PanicError", stats.Err)
	}
	if stats.StopReason != enum.StopError {
		t.Fatalf("StopReason = %v, want %v", stats.StopReason, enum.StopError)
	}
	if !reflect.DeepEqual(got, serial[:k]) {
		t.Fatalf("visited cuts diverge from the serial prefix (%d vs %d)", len(got), k)
	}
}

// TestFailurePanickingThiefMidHandoff forces interior stealing (one worker
// per top-level position) and kills the first thief right after it accepts
// a stolen range, before it reconstructs the donor's state. Containment
// must close the stranded stolen segment so the merge drains, and the
// visited cuts must still be a serial-order prefix. Steals are
// scheduling-dependent, so the test sweeps seeds and requires the fault to
// actually land at least once; a 20 µs delay in every input pick slows
// the search enough that idle workers find donors (as in
// TestParallelStealForced).
func TestFailurePanickingThiefMidHandoff(t *testing.T) {
	landed := 0
	for seed := int64(1); seed <= 4; seed++ {
		g, serial := failGraph(t, seed, 70)
		plan := faultinject.Install(faultinject.Injection{
			Site: faultinject.SiteStealClaim, Hit: 1, Action: faultinject.ActPanic,
		}, faultinject.Injection{
			Site: faultinject.SitePickInputs, Action: faultinject.ActDelay, Delay: 20 * time.Microsecond,
		})
		opt := enum.DefaultOptions()
		opt.Parallelism = g.N()
		var got []string
		stats := runBounded(t, "steal-forced run with panicking thief", func() enum.Stats {
			return enum.Enumerate(g, opt, func(c enum.Cut) bool {
				got = append(got, c.String())
				return true
			})
		})
		fired := plan.Fired(faultinject.SiteStealClaim)
		faultinject.Uninstall()

		if fired == 0 {
			// No steal happened on this schedule: the run must be untouched.
			if stats.Err != nil || !reflect.DeepEqual(got, serial) {
				t.Fatalf("seed %d: no injection fired yet run disturbed: err=%v", seed, stats.Err)
			}
			continue
		}
		landed++
		var pe *enum.PanicError
		if !errors.As(stats.Err, &pe) {
			t.Fatalf("seed %d: Stats.Err = %v, want *PanicError", seed, stats.Err)
		}
		ip, ok := pe.Value.(faultinject.InjectedPanic)
		if !ok || ip.Site != faultinject.SiteStealClaim {
			t.Fatalf("seed %d: contained value %v, want the injected stealClaim panic", seed, pe.Value)
		}
		if stats.StopReason != enum.StopError {
			t.Fatalf("seed %d: StopReason = %v, want %v", seed, stats.StopReason, enum.StopError)
		}
		if !isPrefix(got, serial) {
			t.Fatalf("seed %d: visited cuts are not a serial-order prefix (%d cuts)", seed, len(got))
		}
	}
	if landed == 0 {
		t.Fatal("no thief panic landed across the seed sweep — the stealing path is dead")
	}
}

// TestFailureContextCanceledMidRun cancels Options.Context from inside the
// visitor: the run must stop with StopCanceled, EnumerateContext must
// surface ctx.Err(), and the visited cuts stay a serial-order prefix at
// every worker count.
func TestFailureContextCanceledMidRun(t *testing.T) {
	g := workload.MiBenchLike(rand.New(rand.NewSource(5)), 300, workload.DefaultProfile())
	// The serial reference is computed lazily per run: cancellation lands at
	// a schedule-dependent point, and the full n=300 enumeration is far more
	// work than the canceled prefix, so the reference run is capped at
	// exactly the visited length with MaxCuts (whose serial-prefix exactness
	// TestFailureMaxCuts pins independently).
	serialPrefix := func(k int) []string {
		opt := enum.DefaultOptions()
		opt.Parallelism = 1
		opt.KeepCuts = true
		opt.MaxCuts = k
		var seq []string
		enum.Enumerate(g, opt, func(c enum.Cut) bool {
			seq = append(seq, c.String())
			return true
		})
		return seq
	}
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		opt := enum.DefaultOptions()
		opt.Parallelism = workers
		opt.KeepCuts = true
		var got []string
		var stats enum.Stats
		var err error
		runBounded(t, "canceled run", func() enum.Stats {
			stats, err = enum.EnumerateContext(ctx, g, opt, func(c enum.Cut) bool {
				got = append(got, c.String())
				if len(got) == 3 {
					cancel()
				}
				return true
			})
			return stats
		})
		cancel()
		if stats.StopReason != enum.StopCanceled {
			t.Fatalf("workers=%d: StopReason = %v, want %v", workers, stats.StopReason, enum.StopCanceled)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: EnumerateContext error = %v, want context.Canceled", workers, err)
		}
		if len(got) < 3 || !reflect.DeepEqual(got, serialPrefix(len(got))) {
			t.Fatalf("workers=%d: %d visited cuts are not a serial-order prefix", workers, len(got))
		}
	}
}

// TestFailureContextExpiredBeforeSteal starts a steal-forced run whose
// context is already expired: every worker must notice promptly — through
// the one shared Stopper primitive — and the run must report StopCanceled
// without hanging on the handoff protocol.
func TestFailureContextExpiredBeforeSteal(t *testing.T) {
	g := workload.MiBenchLike(rand.New(rand.NewSource(5)), 400, workload.DefaultProfile())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := enum.DefaultOptions()
	opt.Parallelism = g.N() // the steal-forced configuration
	var stats enum.Stats
	var err error
	runBounded(t, "steal-forced run with expired context", func() enum.Stats {
		stats, err = enum.EnumerateContext(ctx, g, opt, func(enum.Cut) bool { return true })
		return stats
	})
	if stats.StopReason != enum.StopCanceled {
		t.Fatalf("StopReason = %v, want %v", stats.StopReason, enum.StopCanceled)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
}

// TestFailureStopperSamplesFirstPoll pins that a Stopper samples its
// sources on its first Poll: in a steal-forced run a worker's whole share
// of the pruned search can be fewer steps than the sampling interval, and
// it must still see a context that expired before it started.
func TestFailureStopperSamplesFirstPoll(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := enum.DefaultOptions()
	opt.Context = ctx
	s := enum.NewStopper(opt)
	if r := s.Poll(); r != enum.StopCanceled {
		t.Fatalf("first Poll = %v, want %v", r, enum.StopCanceled)
	}
}

// TestFailureMaxCuts pins the exact-prefix semantics of the cut-count cap:
// at every worker count the visitor receives precisely the first MaxCuts
// serial cuts, Stats.Valid counts exactly those, and the stop is reported
// as StopBudget.
func TestFailureMaxCuts(t *testing.T) {
	g, serial := failGraph(t, 3, 60)
	for _, workers := range []int{1, 4, g.N()} {
		for _, k := range []int{1, 3, len(serial) / 2} {
			opt := enum.DefaultOptions()
			opt.Parallelism = workers
			opt.KeepCuts = true
			opt.MaxCuts = k
			var got []string
			stats := runBounded(t, "capped run", func() enum.Stats {
				return enum.Enumerate(g, opt, func(c enum.Cut) bool {
					got = append(got, c.String())
					return true
				})
			})
			if !reflect.DeepEqual(got, serial[:k]) {
				t.Fatalf("workers=%d MaxCuts=%d: got %d cuts, not the exact serial prefix", workers, k, len(got))
			}
			if stats.Valid != k {
				t.Fatalf("workers=%d MaxCuts=%d: Stats.Valid = %d", workers, k, stats.Valid)
			}
			if stats.StopReason != enum.StopBudget {
				t.Fatalf("workers=%d MaxCuts=%d: StopReason = %v", workers, k, stats.StopReason)
			}
		}
	}
}

// TestFailureEnumerateContextCompletes: a run that exhausts the search
// space under a live context reports no error and StopNone.
func TestFailureEnumerateContextCompletes(t *testing.T) {
	g, serial := failGraph(t, 3, 60)
	opt := enum.DefaultOptions()
	opt.Parallelism = 4
	opt.KeepCuts = true
	var got []string
	stats, err := enum.EnumerateContext(context.Background(), g, opt, func(c enum.Cut) bool {
		got = append(got, c.String())
		return true
	})
	if err != nil || stats.Err != nil || stats.StopReason != enum.StopNone {
		t.Fatalf("clean run reported err=%v stats.Err=%v reason=%v", err, stats.Err, stats.StopReason)
	}
	if !reflect.DeepEqual(got, serial) {
		t.Fatalf("clean run diverges from serial (%d vs %d cuts)", len(got), len(serial))
	}
}
