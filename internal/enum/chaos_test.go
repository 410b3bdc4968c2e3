package enum_test

// The chaos suite: a deterministic fault-injection sweep over every
// protocol site of the enumeration at several worker counts. Each run
// must land in one of exactly two outcomes within the liveness bound:
//
//   - the injection never fired (the addressed traversal does not exist on
//     this schedule) and the result is bit-identical to the serial run, or
//   - the injection fired and the run terminated with a clean
//     *PanicError carrying the injected value, StopReason = StopError,
//     and a visited sequence that is an exact prefix of the serial order.
//
// Never a hang, never a deadlocked merge, never an out-of-order cut.
// Delay injections must not change the result at all. `make chaos` runs every TestChaos* under -race with a
// hard go-test timeout, and `make ci` includes it.

import (
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

// chaosRun executes one injected enumeration and checks the dichotomy
// against the serial reference. Returns whether the injection fired.
func chaosRun(t *testing.T, g *dfg.Graph, serial []string, workers int, inj faultinject.Injection) bool {
	t.Helper()
	plan := faultinject.Install(inj)
	defer faultinject.Uninstall()
	opt := enum.DefaultOptions()
	opt.Parallelism = workers
	opt.KeepCuts = true
	var got []string
	stats := runBounded(t, "chaos run", func() enum.Stats {
		return enum.Enumerate(g, opt, func(c enum.Cut) bool {
			got = append(got, c.String())
			return true
		})
	})
	fired := plan.Fired(inj.Site) >= inj.Hit && inj.Hit != 0

	label := func() string {
		return inj.Site.String() + "/" + inj.Action.String()
	}
	if stats.Err == nil {
		// Clean completion is legitimate only if no panic was injected on
		// this schedule (delays never produce errors).
		if inj.Action == faultinject.ActPanic && fired {
			t.Fatalf("%s workers=%d hit=%d: injection fired but no error surfaced", label(), workers, inj.Hit)
		}
		if !reflect.DeepEqual(got, serial) {
			t.Fatalf("%s workers=%d hit=%d: clean run diverges from serial (%d vs %d cuts)",
				label(), workers, inj.Hit, len(got), len(serial))
		}
		if stats.StopReason != enum.StopNone {
			t.Fatalf("%s workers=%d hit=%d: clean run reports StopReason %v", label(), workers, inj.Hit, stats.StopReason)
		}
		return fired
	}
	var pe *enum.PanicError
	if !errors.As(stats.Err, &pe) {
		t.Fatalf("%s workers=%d hit=%d: Stats.Err = %v, want *PanicError", label(), workers, inj.Hit, stats.Err)
	}
	ip, ok := pe.Value.(faultinject.InjectedPanic)
	if !ok || ip.Site != inj.Site {
		t.Fatalf("%s workers=%d hit=%d: contained %v, want the injected panic", label(), workers, inj.Hit, pe.Value)
	}
	if stats.StopReason != enum.StopError {
		t.Fatalf("%s workers=%d hit=%d: StopReason = %v, want %v", label(), workers, inj.Hit, stats.StopReason, enum.StopError)
	}
	if !isPrefix(got, serial) {
		t.Fatalf("%s workers=%d hit=%d: %d visited cuts are not a serial-order prefix", label(), workers, inj.Hit, len(got))
	}
	return fired
}

// TestChaosPanicMatrix sweeps an injected panic over every site × worker
// count × seed-addressed hit. Hits are derived from the seed with
// HitFromSeed, so different seeds kill different traversals of the same
// site without any global randomness.
func TestChaosPanicMatrix(t *testing.T) {
	type instance struct {
		g      *dfg.Graph
		serial []string
	}
	var instances []instance
	for _, seed := range []int64{2, 3} {
		g := workload.MiBenchLike(rand.New(rand.NewSource(seed)), 60, workload.DefaultProfile())
		sopt := enum.DefaultOptions()
		sopt.Parallelism = 1
		instances = append(instances, instance{g, visitSequence(g, sopt)})
	}

	firedTotal := 0
	for site := faultinject.Site(0); site < faultinject.NumSites; site++ {
		for _, workers := range []int{1, 4, 60} {
			for seed := int64(1); seed <= 3; seed++ {
				inst := instances[int(seed)%len(instances)]
				inj := faultinject.Injection{
					Site:   site,
					Hit:    faultinject.HitFromSeed(seed, site, 200),
					Action: faultinject.ActPanic,
				}
				if chaosRun(t, inst.g, inst.serial, workers, inj) {
					firedTotal++
				}
			}
		}
	}
	// The sweep is only meaningful if a healthy share of injections landed;
	// the steal sites are schedule-dependent, but the admission sites fire
	// thousands of times per run, so the sweep can never go all-vacuous.
	if firedTotal < int(faultinject.NumSites) {
		t.Fatalf("only %d of %d chaos injections fired — the sweep is near-vacuous",
			firedTotal, int(faultinject.NumSites)*3*3)
	}
}

// TestChaosFirstHitEverySite kills the very first traversal of each site
// at every worker count — the earliest, most protocol-fragile moment (a
// first steal handoff, the first merge splice, the first admission).
func TestChaosFirstHitEverySite(t *testing.T) {
	g := workload.MiBenchLike(rand.New(rand.NewSource(2)), 70, workload.DefaultProfile())
	sopt := enum.DefaultOptions()
	sopt.Parallelism = 1
	serial := visitSequence(g, sopt)
	for site := faultinject.Site(0); site < faultinject.NumSites; site++ {
		for _, workers := range []int{1, 4, 70} {
			chaosRun(t, g, serial, workers, faultinject.Injection{
				Site: site, Hit: 1, Action: faultinject.ActPanic,
			})
		}
	}
}

// TestChaosDelayPerturbation injects scheduling delays — every steal
// publish held, every merge splice held — and requires bit-identical
// results: delays reshape the steal schedule, which the determinism
// contract says must be invisible.
func TestChaosDelayPerturbation(t *testing.T) {
	g := workload.MiBenchLike(rand.New(rand.NewSource(3)), 60, workload.DefaultProfile())
	sopt := enum.DefaultOptions()
	sopt.Parallelism = 1
	serial := visitSequence(g, sopt)
	for _, site := range []faultinject.Site{faultinject.SiteStealPublish, faultinject.SiteMergeSplice, faultinject.SiteStealClaim} {
		for _, workers := range []int{4, 60} {
			chaosRun(t, g, serial, workers, faultinject.Injection{
				Site: site, Hit: 0, Action: faultinject.ActDelay, Delay: 50 * time.Microsecond,
			})
		}
	}
}
