// Package faultinject provides deterministic, seed-addressable fault
// injection for the enumeration engine's concurrency protocol. The chaos
// suite (internal/enum's Chaos tests, `make chaos`) uses it to prove the
// fail-safe contract: under a panic or a delay at any protocol site, the
// enumeration either completes bit-identical to the serial run or returns
// a clean error — never a hang, never a leaked merge segment or liveness
// token.
//
// # Hook discipline
//
// Each injection site is a package-level function variable that is nil in
// production, so the cost at a hot call site is one global load and a nil
// check — no atomics, no locks, no allocation. Hooks are installed before
// an enumeration starts and uninstalled after it returns; the run
// start/finish edges provide the happens-before ordering, so installing is
// race-free even under -race. The hook functions themselves may be called
// concurrently from every enumeration worker and must be internally
// synchronized (Plan's counters are atomic).
//
// Sites follow the enumeration's protocol boundaries:
//
//   - PickInputs / CheckCut: the two hot admission entries of the
//     incremental search — a panic here dies inside arbitrary search state.
//   - StealPublish: a donor about to split a range for a hungry peer — a
//     fault here lands in the middle of the handoff protocol.
//   - StealClaim: a thief that just accepted a stolen range, before it
//     reconstructs the donor's state — a panic here strands the stolen
//     segment unless containment releases it.
//   - MergeSplice: parallel.SplitOrdered.Split, before the segment list is
//     modified — a panic here must leave the merge list intact.
//   - CheckpointWrite: a durable snapshot about to be persisted
//     (enum.Options.CheckpointPath) — a panic here kills the run in the
//     middle of its checkpoint cadence, which is exactly the window the
//     atomic temp+rename write protocol must make survivable: the
//     crash-resume suite proves the previous snapshot still resumes.
//
// The session layer (internal/session, the polyised server) adds four
// service-boundary sites:
//
//   - CacheInsert: a frozen graph about to be published into the
//     content-addressed cache — a panic here must not corrupt the cache
//     map or strand the budget reservation.
//   - CacheEvict: an LRU victim about to be dropped under budget
//     pressure — a fault here lands while the cache lock is held.
//   - Admission: a request that just won an execution slot, before any
//     work starts — the window where shedding and shutdown race.
//   - ResponseWrite: a result row about to be streamed to the client —
//     a delay here models the slow-client backpressure path.
package faultinject

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Hook variables, nil when no injection is active (the production state).
// Call sites guard with `if h := faultinject.OnX; h != nil { h() }`.
var (
	OnPickInputs      func()
	OnCheckCut        func()
	OnStealPublish    func()
	OnStealClaim      func()
	OnMergeSplice     func()
	OnCheckpointWrite func()
	OnCacheInsert     func()
	OnCacheEvict      func()
	OnAdmission       func()
	OnResponseWrite   func()
)

// Site identifies one injection point.
type Site uint8

const (
	SitePickInputs Site = iota
	SiteCheckCut
	SiteStealPublish
	SiteStealClaim
	SiteMergeSplice
	SiteCheckpointWrite
	SiteCacheInsert
	SiteCacheEvict
	SiteAdmission
	SiteResponseWrite
	NumSites
)

func (s Site) String() string {
	switch s {
	case SitePickInputs:
		return "pickInputs"
	case SiteCheckCut:
		return "checkCut"
	case SiteStealPublish:
		return "stealPublish"
	case SiteStealClaim:
		return "stealClaim"
	case SiteMergeSplice:
		return "mergeSplice"
	case SiteCheckpointWrite:
		return "checkpointWrite"
	case SiteCacheInsert:
		return "cacheInsert"
	case SiteCacheEvict:
		return "cacheEvict"
	case SiteAdmission:
		return "admission"
	case SiteResponseWrite:
		return "responseWrite"
	}
	return fmt.Sprintf("site(%d)", uint8(s))
}

// Action is what an Injection does when its site fires.
type Action uint8

const (
	// ActPanic panics with an InjectedPanic value, which the containment
	// layer converts to a *enum.PanicError the tests can recognize.
	ActPanic Action = iota
	// ActDelay sleeps for Injection.Delay, perturbing worker schedules
	// (e.g. holding a donor mid-handoff, or starving workers into steals).
	ActDelay
)

func (a Action) String() string {
	switch a {
	case ActPanic:
		return "panic"
	case ActDelay:
		return "delay"
	}
	return fmt.Sprintf("action(%d)", uint8(a))
}

// InjectedPanic is the value ActPanic panics with, so recovery layers and
// assertions can distinguish injected faults from genuine bugs.
type InjectedPanic struct {
	Site Site
	Hit  uint64 // which traversal of the site fired (1-based)
}

func (p InjectedPanic) String() string {
	return fmt.Sprintf("faultinject: injected panic at %v (hit %d)", p.Site, p.Hit)
}

// Injection is one planned fault: on the Hit-th traversal of Site, perform
// Action. Hit is 1-based; Hit == 0 fires on every traversal (useful for
// delays). Which traversal is "the Hit-th" is deterministic given a
// deterministic schedule — in serial runs it addresses one exact search
// node; in parallel runs it is schedule-dependent, which is precisely the
// point of the chaos sweep.
type Injection struct {
	Site   Site
	Hit    uint64
	Action Action
	Delay  time.Duration
}

// Plan is an installed set of injections with per-site traversal counters.
type Plan struct {
	counters [NumSites]atomic.Uint64
	bySite   [NumSites][]Injection
}

// Install wires the given injections into the hook variables and returns
// the Plan. The caller must Uninstall after the run under test returns and
// must not run two plans concurrently. Sites without injections keep a
// counting hook so Fired reports coverage.
func Install(injs ...Injection) *Plan {
	p := &Plan{}
	for _, inj := range injs {
		if inj.Site >= NumSites {
			panic(fmt.Sprintf("faultinject: unknown site %d", inj.Site))
		}
		p.bySite[inj.Site] = append(p.bySite[inj.Site], inj)
	}
	OnPickInputs = func() { p.fire(SitePickInputs) }
	OnCheckCut = func() { p.fire(SiteCheckCut) }
	OnStealPublish = func() { p.fire(SiteStealPublish) }
	OnStealClaim = func() { p.fire(SiteStealClaim) }
	OnMergeSplice = func() { p.fire(SiteMergeSplice) }
	OnCheckpointWrite = func() { p.fire(SiteCheckpointWrite) }
	OnCacheInsert = func() { p.fire(SiteCacheInsert) }
	OnCacheEvict = func() { p.fire(SiteCacheEvict) }
	OnAdmission = func() { p.fire(SiteAdmission) }
	OnResponseWrite = func() { p.fire(SiteResponseWrite) }
	return p
}

// Uninstall clears every hook variable, returning the package to the
// production (nil, zero-cost) state.
func Uninstall() {
	OnPickInputs = nil
	OnCheckCut = nil
	OnStealPublish = nil
	OnStealClaim = nil
	OnMergeSplice = nil
	OnCheckpointWrite = nil
	OnCacheInsert = nil
	OnCacheEvict = nil
	OnAdmission = nil
	OnResponseWrite = nil
}

// fire advances the site's traversal counter and executes any injection
// scheduled for this hit.
func (p *Plan) fire(site Site) {
	hit := p.counters[site].Add(1)
	for _, inj := range p.bySite[site] {
		if inj.Hit != 0 && inj.Hit != hit {
			continue
		}
		switch inj.Action {
		case ActPanic:
			panic(InjectedPanic{Site: site, Hit: hit})
		case ActDelay:
			time.Sleep(inj.Delay)
		}
	}
}

// Fired reports how many times the site was traversed under this plan.
func (p *Plan) Fired(site Site) uint64 { return p.counters[site].Load() }

// HitFromSeed derives a deterministic 1-based hit index in [1, mod] for the
// given (seed, site) pair, so a chaos sweep can address different search
// nodes per seed without any global randomness. The mix is splitmix64.
func HitFromSeed(seed int64, site Site, mod uint64) uint64 {
	if mod == 0 {
		return 1
	}
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(site) + 1
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return 1 + x%mod
}
