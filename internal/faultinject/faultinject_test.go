package faultinject

import (
	"testing"
	"time"
)

func TestSiteStrings(t *testing.T) {
	want := map[Site]string{
		SitePickInputs:      "pickInputs",
		SiteCheckCut:        "checkCut",
		SiteStealPublish:    "stealPublish",
		SiteStealClaim:      "stealClaim",
		SiteMergeSplice:     "mergeSplice",
		SiteCheckpointWrite: "checkpointWrite",
		SiteCacheInsert:     "cacheInsert",
		SiteCacheEvict:      "cacheEvict",
		SiteAdmission:       "admission",
		SiteResponseWrite:   "responseWrite",
	}
	if len(want) != int(NumSites) {
		t.Fatalf("test covers %d sites, package declares %d", len(want), NumSites)
	}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("Site(%d).String() = %q, want %q", s, s.String(), name)
		}
	}
	if NumSites.String() == "" {
		t.Error("out-of-range Site produced an empty String")
	}
	if ActPanic.String() != "panic" || ActDelay.String() != "delay" {
		t.Errorf("Action strings: %q, %q", ActPanic, ActDelay)
	}
}

func TestInstallUninstall(t *testing.T) {
	p := Install()
	defer Uninstall()
	for s := Site(0); s < NumSites; s++ {
		if p.Fired(s) != 0 {
			t.Fatalf("fresh plan reports %d hits at %v", p.Fired(s), s)
		}
	}
	// Counting hooks are wired for every site even with no injections.
	hooks := []func(){OnPickInputs, OnCheckCut, OnStealPublish, OnStealClaim, OnMergeSplice, OnCheckpointWrite,
		OnCacheInsert, OnCacheEvict, OnAdmission, OnResponseWrite}
	if len(hooks) != int(NumSites) {
		t.Fatalf("test drives %d hooks, package declares %d sites", len(hooks), NumSites)
	}
	for i, h := range hooks {
		if h == nil {
			t.Fatalf("hook %v nil after Install", Site(i))
		}
		h()
		h()
		if got := p.Fired(Site(i)); got != 2 {
			t.Fatalf("site %v fired %d times, want 2", Site(i), got)
		}
	}
	Uninstall()
	if OnPickInputs != nil || OnCheckCut != nil || OnStealPublish != nil ||
		OnStealClaim != nil || OnMergeSplice != nil ||
		OnCheckpointWrite != nil || OnCacheInsert != nil || OnCacheEvict != nil ||
		OnAdmission != nil || OnResponseWrite != nil {
		t.Fatal("Uninstall left a hook installed")
	}
}

func TestInjectionPanicsOnExactHit(t *testing.T) {
	Install(Injection{Site: SiteCheckCut, Hit: 3, Action: ActPanic})
	defer Uninstall()
	OnCheckCut()
	OnCheckCut()
	func() {
		defer func() {
			v := recover()
			ip, ok := v.(InjectedPanic)
			if !ok {
				t.Fatalf("recovered %T (%v), want InjectedPanic", v, v)
			}
			if ip.Site != SiteCheckCut || ip.Hit != 3 {
				t.Fatalf("InjectedPanic = %+v, want site checkCut hit 3", ip)
			}
			if ip.String() == "" {
				t.Fatal("empty InjectedPanic string")
			}
		}()
		OnCheckCut()
		t.Fatal("third traversal did not panic")
	}()
}

func TestInjectionDelayEveryHit(t *testing.T) {
	p := Install(Injection{Site: SiteStealPublish, Hit: 0, Action: ActDelay, Delay: time.Millisecond})
	defer Uninstall()
	start := time.Now()
	OnStealPublish()
	OnStealPublish()
	if d := time.Since(start); d < 2*time.Millisecond {
		t.Fatalf("two every-hit delays of 1ms took only %v", d)
	}
	if p.Fired(SiteStealPublish) != 2 {
		t.Fatalf("fired %d, want 2", p.Fired(SiteStealPublish))
	}
}

func TestHitFromSeedDeterministicAndInRange(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		for s := Site(0); s < NumSites; s++ {
			for _, mod := range []uint64{1, 7, 1000} {
				h := HitFromSeed(seed, s, mod)
				if h != HitFromSeed(seed, s, mod) {
					t.Fatalf("HitFromSeed(%d, %v, %d) not deterministic", seed, s, mod)
				}
				if h < 1 || h > mod {
					t.Fatalf("HitFromSeed(%d, %v, %d) = %d out of [1, %d]", seed, s, mod, h, mod)
				}
			}
		}
	}
	if HitFromSeed(1, SiteCheckCut, 0) != 1 {
		t.Fatal("mod=0 must degrade to hit 1")
	}
	// Different seeds must actually address different hits somewhere.
	varied := false
	for seed := int64(0); seed < 16 && !varied; seed++ {
		varied = HitFromSeed(seed, SiteCheckCut, 1000) != HitFromSeed(seed+1, SiteCheckCut, 1000)
	}
	if !varied {
		t.Fatal("HitFromSeed constant across seeds")
	}
}
