package enum_test

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"math/rand"

	"polyise/internal/enum"
	"polyise/internal/faultinject"
	"polyise/internal/workload"
)

// Concurrency behaviour of the sharded enumeration: early stop, stress
// beyond GOMAXPROCS, and deadline handling. All of these run under -race in
// CI (`make test-race`), which is what actually verifies the clone-per-shard
// state ownership — the assertions below only pin the observable semantics.

// TestParallelEarlyStop verifies the early-stop contract: a visitor that
// returns false after k cuts sees exactly the serial enumeration's first k
// cuts, and the enumeration terminates (shards are cancelled, the merge
// drains) rather than hanging.
func TestParallelEarlyStop(t *testing.T) {
	g := workload.MiBenchLike(rand.New(rand.NewSource(3)), 60, workload.DefaultProfile())
	sopt := enum.DefaultOptions()
	sopt.Parallelism = 1
	serial := visitSequence(g, sopt)
	if len(serial) < 10 {
		t.Fatalf("reference graph yields only %d cuts; pick a richer seed", len(serial))
	}

	for _, k := range []int{1, 3, len(serial) / 2} {
		popt := enum.DefaultOptions()
		popt.Parallelism = 4
		popt.KeepCuts = true
		var got []string
		done := make(chan struct{})
		go func() {
			defer close(done)
			enum.Enumerate(g, popt, func(c enum.Cut) bool {
				got = append(got, c.String())
				return len(got) < k
			})
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("k=%d: early-stopped parallel enumeration did not terminate", k)
		}
		if !reflect.DeepEqual(got, serial[:k]) {
			t.Fatalf("k=%d: stopped prefix diverges from serial\ngot  %v\nwant %v", k, got, serial[:k])
		}
	}
}

// TestParallelOversubscribed stress-tests worker counts far beyond
// GOMAXPROCS: correctness must not depend on shards actually running in
// parallel, only on the merge order.
func TestParallelOversubscribed(t *testing.T) {
	g := workload.MiBenchLike(rand.New(rand.NewSource(9)), 80, workload.DefaultProfile())
	sopt := enum.DefaultOptions()
	sopt.Parallelism = 1
	serial := visitSequence(g, sopt)

	workers := 4*runtime.GOMAXPROCS(0) + 3
	popt := enum.DefaultOptions()
	popt.Parallelism = workers
	if got := visitSequence(g, popt); !reflect.DeepEqual(serial, got) {
		t.Fatalf("workers=%d: sequence diverges (%d vs %d cuts)", workers, len(got), len(serial))
	}
}

// TestParallelManyShardsSmallGraph drives the degenerate split where there
// are more workers than top-level positions.
func TestParallelManyShardsSmallGraph(t *testing.T) {
	g := ladder(t)
	sopt := enum.DefaultOptions()
	sopt.Parallelism = 1
	serial := visitSequence(g, sopt)
	popt := enum.DefaultOptions()
	popt.Parallelism = 32
	if got := visitSequence(g, popt); !reflect.DeepEqual(serial, got) {
		t.Fatalf("32 workers on an 8-node graph diverge: %v vs %v", got, serial)
	}
}

// TestParallelExpiredDeadline checks that a deadline in the past stops all
// shards promptly and is reported, with no hang on the merge.
func TestParallelExpiredDeadline(t *testing.T) {
	g := workload.MiBenchLike(rand.New(rand.NewSource(5)), 400, workload.DefaultProfile())
	opt := enum.DefaultOptions()
	opt.Parallelism = 4
	opt.Deadline = time.Now().Add(-time.Second)
	done := make(chan enum.Stats, 1)
	go func() {
		done <- enum.Enumerate(g, opt, func(enum.Cut) bool { return true })
	}()
	select {
	case stats := <-done:
		if stats.StopReason != enum.StopDeadline {
			t.Fatalf("expired deadline not reported: %+v", stats)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("parallel enumeration ignored an expired deadline")
	}
}

// TestParallelVisitorGetsOwnedCuts verifies that parallel enumeration hands
// the visitor cuts whose node sets survive the callback (they crossed a
// goroutine boundary, so they are always clones), even with KeepCuts off.
func TestParallelVisitorGetsOwnedCuts(t *testing.T) {
	g := workload.MiBenchLike(rand.New(rand.NewSource(3)), 40, workload.DefaultProfile())
	opt := enum.DefaultOptions()
	opt.Parallelism = 3
	opt.KeepCuts = false
	var kept []enum.Cut
	enum.Enumerate(g, opt, func(c enum.Cut) bool {
		kept = append(kept, c)
		return true
	})
	seen := map[string]bool{}
	for _, c := range kept {
		if seen[c.Nodes.Signature()] {
			t.Fatal("a retained cut's node set was overwritten by a later one")
		}
		seen[c.Nodes.Signature()] = true
	}
	if len(kept) == 0 {
		t.Fatal("expected cuts")
	}
}

// TestParallelEarlyStopValidCount is the regression test for the Stats.Valid
// overcount after an early visitor stop: the merge used to keep counting
// distinct cuts drained after the stop, so Valid exceeded the number of cuts
// actually reported. Valid must equal exactly the cuts the visitor received
// — including the one it stopped on — at any worker count, matching the
// serial semantics.
func TestParallelEarlyStopValidCount(t *testing.T) {
	g := workload.MiBenchLike(rand.New(rand.NewSource(3)), 60, workload.DefaultProfile())
	sopt := enum.DefaultOptions()
	sopt.Parallelism = 1
	total := len(visitSequence(g, sopt))
	if total < 10 {
		t.Fatalf("reference graph yields only %d cuts; pick a richer seed", total)
	}
	for _, workers := range []int{1, 4, g.N()} {
		for _, k := range []int{1, 3, total / 2} {
			opt := enum.DefaultOptions()
			opt.Parallelism = workers
			visited := 0
			stats := enum.Enumerate(g, opt, func(enum.Cut) bool {
				visited++
				return visited < k
			})
			if visited != k {
				t.Fatalf("workers=%d k=%d: visitor ran %d times", workers, k, visited)
			}
			if stats.Valid != k {
				t.Fatalf("workers=%d k=%d: Stats.Valid = %d, want exactly the %d visited cuts",
					workers, k, stats.Valid, k)
			}
		}
	}
}

// TestParallelWorkerClampAllocs pins the worker clamp: asking for far more
// workers than there are first-output positions must not multiply the
// one-time per-worker setup (validator, traverser, scratch buffers), because
// the extra states could never hold distinct top-level work — load imbalance
// is work-stealing's job, not oversharding's.
func TestParallelWorkerClampAllocs(t *testing.T) {
	g := workload.MiBenchLike(rand.New(rand.NewSource(7)), 24, workload.DefaultProfile())
	run := func(workers int) float64 {
		opt := enum.DefaultOptions()
		opt.Parallelism = workers
		return testing.AllocsPerRun(5, func() {
			enum.Enumerate(g, opt, func(enum.Cut) bool { return true })
		})
	}
	base := run(g.N())
	over := run(4 * g.N())
	// Identical worker counts after clamping should allocate near-identically;
	// 1.3× absorbs scheduling noise (steal tasks allocate a little).
	if over > 1.3*base {
		t.Fatalf("workers=4n allocates %.0f/op vs %.0f/op at workers=n — clamp to min(workers, n) ineffective",
			over, base)
	}
}

// TestParallelStealForced runs the enumeration in the configuration where
// interior work-stealing is the only load-balancing mechanism left: one
// worker per first-output position, so every worker exhausts the top-level
// claims after a single subtree and all remaining balance comes from stolen
// next-output ranges. The visit sequence must still be bit-for-bit serial,
// and across the corpus at least one steal must actually occur.
//
// Without help the steal is a race: on a machine with few CPUs the heavy
// first-output subtrees can finish before any light one has run dry, so no
// donor ever sees a hungry peer. A delay at every PICK-INPUTS call takes
// the race away. Sleeping workers leave the CPUs to the rest, so every
// worker advances at the pace of its own search, not of the scheduler:
// the light subtrees end after a few calls and their workers wait hungry,
// while the heavy ones still have thousands of calls, and splittable
// ranges, ahead of them.
func TestParallelStealForced(t *testing.T) {
	steals := 0
	for seed := int64(1); seed <= 4; seed++ {
		g := workload.MiBenchLike(rand.New(rand.NewSource(seed)), 70, workload.DefaultProfile())
		sopt := enum.DefaultOptions()
		sopt.Parallelism = 1
		serial := visitSequence(g, sopt)

		popt := enum.DefaultOptions()
		popt.Parallelism = g.N()
		popt.KeepCuts = true
		var par []string
		stats := func() enum.Stats {
			faultinject.Install(faultinject.Injection{
				Site: faultinject.SitePickInputs, Action: faultinject.ActDelay, Delay: 20 * time.Microsecond,
			})
			defer faultinject.Uninstall()
			return enum.Enumerate(g, popt, func(c enum.Cut) bool {
				par = append(par, c.String())
				return true
			})
		}()
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("seed=%d workers=n: steal-forced sequence diverges (%d vs %d cuts)",
				seed, len(par), len(serial))
		}
		steals += stats.Steals
	}
	t.Logf("%d steals across the corpus", steals)
	if steals == 0 {
		t.Fatal("no steal occurred across the corpus at workers=n — the stealing path is dead")
	}
}

// TestParallelStealEarlyStop combines the two stress axes: a visitor that
// stops mid-stream while stealing is forced. The stopped prefix must be the
// serial prefix exactly, and Valid must count exactly the visited cuts.
func TestParallelStealEarlyStop(t *testing.T) {
	g := workload.MiBenchLike(rand.New(rand.NewSource(2)), 70, workload.DefaultProfile())
	sopt := enum.DefaultOptions()
	sopt.Parallelism = 1
	serial := visitSequence(g, sopt)
	if len(serial) < 8 {
		t.Fatalf("reference graph yields only %d cuts", len(serial))
	}
	for _, k := range []int{2, len(serial) / 2} {
		opt := enum.DefaultOptions()
		opt.Parallelism = g.N()
		opt.KeepCuts = true
		var got []string
		done := make(chan enum.Stats, 1)
		go func() {
			done <- enum.Enumerate(g, opt, func(c enum.Cut) bool {
				got = append(got, c.String())
				return len(got) < k
			})
		}()
		select {
		case stats := <-done:
			if !reflect.DeepEqual(got, serial[:k]) {
				t.Fatalf("k=%d: steal-forced stopped prefix diverges from serial", k)
			}
			if stats.Valid != k {
				t.Fatalf("k=%d: Stats.Valid = %d, want %d", k, stats.Valid, k)
			}
		case <-time.After(60 * time.Second):
			t.Fatalf("k=%d: steal-forced early stop did not terminate", k)
		}
	}
}
