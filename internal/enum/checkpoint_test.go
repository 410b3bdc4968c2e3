package enum_test

// Checkpoint/resume identity suite: the durable-snapshot contract says the
// snapshot's delivered prefix concatenated with the resumed run's sequence
// is bit-identical to an uninterrupted serial run — at any Parallelism on
// either side of the seam, resuming from final snapshots (clean stops,
// contained panics) and from mid-run periodic snapshots (the hard-crash
// case), with MaxCuts and the CheckpointEvery cadence counting globally
// across the seam. TestCrashResume* are part of `make crash`.

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"polyise/internal/checkpoint"
	"polyise/internal/dfg"
	"polyise/internal/enum"
	"polyise/internal/faultinject"
	"polyise/internal/workload"
)

// ckptOpt is the standard checkpointing configuration of this suite.
func ckptOpt(path string, workers, every int) enum.Options {
	opt := enum.DefaultOptions()
	opt.KeepCuts = true
	opt.Parallelism = workers
	opt.CheckpointPath = path
	opt.CheckpointEvery = every
	return opt
}

// runCollect executes one enumeration, collecting the visit sequence.
func runCollect(g *dfg.Graph, opt enum.Options) ([]string, enum.Stats) {
	var got []string
	stats := enum.Enumerate(g, opt, func(c enum.Cut) bool {
		got = append(got, c.String())
		return true
	})
	return got, stats
}

// resumeCollect resumes from a decoded snapshot, collecting the sequence.
func resumeCollect(t *testing.T, g *dfg.Graph, opt enum.Options, snap *checkpoint.Snapshot) ([]string, enum.Stats) {
	t.Helper()
	var got []string
	stats, err := enum.ResumeEnumerate(g, opt, snap, func(c enum.Cut) bool {
		got = append(got, c.String())
		return true
	})
	if err != nil {
		t.Fatalf("ResumeEnumerate: %v", err)
	}
	return got, stats
}

func readSnap(t *testing.T, path string) *checkpoint.Snapshot {
	t.Helper()
	snap, err := checkpoint.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile(%s): %v", path, err)
	}
	return snap
}

// TestResumeAfterBudgetStop drives the seam through budget stops: a run
// capped at k cuts leaves a final snapshot, a resume under the same cap
// delivers nothing and leaves the frontier where it was, a resume capped
// at k+m must deliver exactly serial[k:k+m] — MaxCuts counts the whole
// logical run, not the resumed process — and a chained resume finishes the
// sequence. Every (interrupt, resume) worker-count pair crosses the seam.
func TestResumeAfterBudgetStop(t *testing.T) {
	g := workload.MiBenchLike(rand.New(rand.NewSource(1)), 35, workload.DefaultProfile())
	sopt := enum.DefaultOptions()
	sopt.Parallelism = 1
	serial := visitSequence(g, sopt)
	if len(serial) < 30 {
		t.Fatalf("test graph yields only %d cuts; too small to cut twice", len(serial))
	}
	k := len(serial) / 3
	m := 7

	for _, wA := range []int{1, 4} {
		for _, wB := range []int{1, 4} {
			dir := t.TempDir()
			p1 := filepath.Join(dir, "a.ckpt")
			opt := ckptOpt(p1, wA, 0)
			opt.MaxCuts = k
			got1, stats1 := runCollect(g, opt)
			if stats1.StopReason != enum.StopBudget {
				t.Fatalf("wA=%d: capped run stopped with %v", wA, stats1.StopReason)
			}
			if !reflect.DeepEqual(got1, serial[:k]) {
				t.Fatalf("wA=%d: capped run delivered %d cuts, not the serial k-prefix", wA, len(got1))
			}
			snap1 := readSnap(t, p1)
			if snap1.Visited != int64(k) || snap1.Done {
				t.Fatalf("wA=%d: snapshot Visited=%d Done=%v, want %d false", wA, snap1.Visited, snap1.Done, k)
			}

			// Resume under the same cap: the snapshot already holds k cuts,
			// so the run stops before its search starts, delivers nothing,
			// and its final snapshot keeps the input's frontier.
			p0 := filepath.Join(dir, "same.ckpt")
			copt := ckptOpt(p0, wB, 0)
			copt.MaxCuts = k
			got0, stats0 := resumeCollect(t, g, copt, snap1)
			if len(got0) != 0 || stats0.Valid != k || stats0.StopReason != enum.StopBudget {
				t.Fatalf("wA=%d wB=%d: resume at the cap delivered %d cuts, Valid=%d reason=%v; want 0, %d, budget",
					wA, wB, len(got0), stats0.Valid, stats0.StopReason, k)
			}
			snap0 := readSnap(t, p0)
			if snap0.Visited != int64(k) || snap0.CurTop != snap1.CurTop || snap0.Done {
				t.Fatalf("wA=%d wB=%d: resume at the cap wrote Visited=%d CurTop=%d Done=%v, want %d %d false",
					wA, wB, snap0.Visited, snap0.CurTop, snap0.Done, k, snap1.CurTop)
			}

			// Resume with a further budget, from the capped resume's own
			// snapshot: the cap is global across the seam.
			p2 := filepath.Join(dir, "b.ckpt")
			ropt := ckptOpt(p2, wB, 0)
			ropt.MaxCuts = k + m
			got2, stats2 := resumeCollect(t, g, ropt, snap0)
			if stats2.StopReason != enum.StopBudget || stats2.Valid != k+m {
				t.Fatalf("wA=%d wB=%d: capped resume Valid=%d reason=%v, want %d budget-stop",
					wA, wB, stats2.Valid, stats2.StopReason, k+m)
			}
			if !reflect.DeepEqual(got2, serial[k:k+m]) {
				t.Fatalf("wA=%d wB=%d: capped resume delivered %d cuts, not serial[%d:%d]",
					wA, wB, len(got2), k, k+m)
			}

			// Chain a second resume to completion off the resumed run's own
			// final snapshot.
			snap2 := readSnap(t, p2)
			fopt := ckptOpt(p2, wB, 0)
			got3, stats3 := resumeCollect(t, g, fopt, snap2)
			if stats3.StopReason != enum.StopNone || stats3.Valid != len(serial) {
				t.Fatalf("wA=%d wB=%d: final resume Valid=%d reason=%v, want %d clean",
					wA, wB, stats3.Valid, stats3.StopReason, len(serial))
			}
			whole := append(append(append([]string(nil), got1...), got2...), got3...)
			if !reflect.DeepEqual(whole, serial) {
				t.Fatalf("wA=%d wB=%d: prefix+resume+resume diverges from serial (%d vs %d cuts)",
					wA, wB, len(whole), len(serial))
			}

			// The completed resume wrote a Done snapshot: nothing to resume.
			if _, err := enum.ResumeEnumerate(g, fopt, readSnap(t, p2), nil); !errors.Is(err, enum.ErrCompleted) {
				t.Fatalf("resume of a completed run: err = %v, want ErrCompleted", err)
			}
		}
	}
}

// TestResumeFromMidRunSnapshot is the hard-crash case: a periodic snapshot
// copied away mid-run (as a crashed process would leave it, behind the
// delivered frontier) must resume to exactly the remaining serial suffix.
// The serial × CheckpointEvery=1 case snapshots at every visit point, so
// the replay of the frontier subtree must suppress pre-snapshot cuts from
// every depth of the search.
func TestResumeFromMidRunSnapshot(t *testing.T) {
	g := workload.MiBenchLike(rand.New(rand.NewSource(2)), 35, workload.DefaultProfile())
	sopt := enum.DefaultOptions()
	sopt.Parallelism = 1
	serial := visitSequence(g, sopt)
	const copyAt = 17
	if len(serial) <= copyAt {
		t.Fatalf("test graph yields only %d cuts", len(serial))
	}

	for _, wA := range []int{1, 4} {
		for _, every := range []int{1, 7} {
			dir := t.TempDir()
			live := filepath.Join(dir, "live.ckpt")
			crash := filepath.Join(dir, "crash.ckpt")
			opt := ckptOpt(live, wA, every)
			opt.KeepCuts = true
			count := 0
			stats := enum.Enumerate(g, opt, func(c enum.Cut) bool {
				count++
				if count == copyAt {
					b, err := os.ReadFile(live)
					if err != nil {
						t.Errorf("wA=%d every=%d: no periodic snapshot by cut %d: %v", wA, every, copyAt, err)
						return false
					}
					if err := os.WriteFile(crash, b, 0o644); err != nil {
						t.Errorf("copy snapshot: %v", err)
						return false
					}
				}
				return true
			})
			if t.Failed() {
				t.FailNow()
			}
			if stats.StopReason != enum.StopNone || count != len(serial) {
				t.Fatalf("wA=%d every=%d: base run delivered %d cuts, reason %v", wA, every, count, stats.StopReason)
			}

			snap := readSnap(t, crash)
			if snap.Visited < 1 || snap.Visited >= int64(copyAt) {
				t.Fatalf("wA=%d every=%d: mid-run snapshot Visited=%d, want in [1,%d)", wA, every, snap.Visited, copyAt)
			}
			for _, wB := range []int{1, 4} {
				ropt := enum.DefaultOptions()
				ropt.KeepCuts = true
				ropt.Parallelism = wB
				got, rstats := resumeCollect(t, g, ropt, snap)
				if !reflect.DeepEqual(got, serial[snap.Visited:]) {
					t.Fatalf("wA=%d every=%d wB=%d: resume from Visited=%d diverges (%d cuts, want %d)",
						wA, every, wB, snap.Visited, len(got), len(serial)-int(snap.Visited))
				}
				if rstats.Valid != len(serial) {
					t.Fatalf("wA=%d every=%d wB=%d: resumed Valid=%d, want global %d",
						wA, every, wB, rstats.Valid, len(serial))
				}
			}
		}
	}
}

// TestCheckpointStopChannel exercises the cooperative preemption hook: a
// closed CheckpointStop channel stops the run with StopCheckpoint, the
// final snapshot resumes to the remaining suffix.
func TestCheckpointStopChannel(t *testing.T) {
	g := workload.MiBenchLike(rand.New(rand.NewSource(3)), 35, workload.DefaultProfile())
	sopt := enum.DefaultOptions()
	sopt.Parallelism = 1
	serial := visitSequence(g, sopt)
	if len(serial) < 20 {
		t.Fatalf("test graph yields only %d cuts", len(serial))
	}

	for _, workers := range []int{1, 4} {
		path := filepath.Join(t.TempDir(), "stop.ckpt")
		opt := ckptOpt(path, workers, 0)
		ch := make(chan struct{})
		opt.CheckpointStop = ch
		closed := false
		var got1 []string
		stats := enum.Enumerate(g, opt, func(c enum.Cut) bool {
			got1 = append(got1, c.String())
			if !closed && len(got1) == 9 {
				closed = true
				close(ch)
			}
			return true
		})
		if stats.StopReason != enum.StopCheckpoint {
			t.Fatalf("workers=%d: StopReason = %v, want %v", workers, stats.StopReason, enum.StopCheckpoint)
		}
		if len(got1) < 9 || len(got1) >= len(serial) || !isPrefix(got1, serial) {
			t.Fatalf("workers=%d: preempted run delivered %d cuts (of %d), not a proper prefix",
				workers, len(got1), len(serial))
		}
		snap := readSnap(t, path)
		if snap.Visited != int64(len(got1)) {
			t.Fatalf("workers=%d: snapshot Visited=%d, delivered %d", workers, snap.Visited, len(got1))
		}
		ropt := enum.DefaultOptions()
		ropt.KeepCuts = true
		ropt.Parallelism = workers
		got2, rstats := resumeCollect(t, g, ropt, snap)
		if rstats.StopReason != enum.StopNone {
			t.Fatalf("workers=%d: resumed run reason %v", workers, rstats.StopReason)
		}
		if whole := append(append([]string(nil), got1...), got2...); !reflect.DeepEqual(whole, serial) {
			t.Fatalf("workers=%d: prefix+resume diverges from serial (%d vs %d cuts)",
				workers, len(whole), len(serial))
		}
	}
}

// TestResumeValidation pins the refusal paths: wrong graph, wrong semantic
// options, a paper-mode snapshot, completed snapshot, corrupt frontier,
// negative delivered count — each a typed error, no enumeration started.
func TestResumeValidation(t *testing.T) {
	g := workload.MiBenchLike(rand.New(rand.NewSource(4)), 30, workload.DefaultProfile())
	path := filepath.Join(t.TempDir(), "v.ckpt")
	opt := ckptOpt(path, 1, 0)
	opt.MaxCuts = 10
	if _, stats := runCollect(g, opt); stats.StopReason != enum.StopBudget {
		t.Fatalf("setup run stopped with %v", stats.StopReason)
	}
	snap := readSnap(t, path)
	noVisit := func(enum.Cut) bool { t.Error("validation failure must not enumerate"); return false }

	g2 := workload.MiBenchLike(rand.New(rand.NewSource(5)), 30, workload.DefaultProfile())
	var mm *checkpoint.MismatchError
	if _, err := enum.ResumeEnumerate(g2, opt, snap, noVisit); !errors.As(err, &mm) || mm.Field != "graph" {
		t.Fatalf("wrong graph: err = %v, want graph MismatchError", err)
	}
	opt2 := opt
	opt2.MaxInputs++
	if _, err := enum.ResumeEnumerate(g, opt2, snap, noVisit); !errors.As(err, &mm) || mm.Field != "options" {
		t.Fatalf("wrong options: err = %v, want options MismatchError", err)
	}
	// A snapshot parked under the retired paper mode (the two approximate
	// §5.3 prunings on) carries a fingerprint no Options can produce any
	// more: its cut set differs, so it must be refused, not resumed.
	paper := *snap
	paper.OptHash = 0xbe0a39a6b1137ffa
	if _, err := enum.ResumeEnumerate(g, opt, &paper, noVisit); !errors.As(err, &mm) || mm.Field != "options" {
		t.Fatalf("paper-mode snapshot: err = %v, want options MismatchError", err)
	}
	done := *snap
	done.Done = true
	if _, err := enum.ResumeEnumerate(g, opt, &done, noVisit); !errors.Is(err, enum.ErrCompleted) {
		t.Fatalf("done snapshot: err = %v, want ErrCompleted", err)
	}
	// Identity outranks Done: a completed snapshot for a different graph is
	// a mismatch, not "nothing to resume" for this one.
	if _, err := enum.ResumeEnumerate(g2, opt, &done, noVisit); !errors.As(err, &mm) || mm.Field != "graph" {
		t.Fatalf("done snapshot, wrong graph: err = %v, want graph MismatchError", err)
	}
	bad := *snap
	bad.CurTop = g.N() + 1
	var fe *checkpoint.FormatError
	if _, err := enum.ResumeEnumerate(g, opt, &bad, noVisit); !errors.As(err, &fe) {
		t.Fatalf("corrupt frontier: err = %v, want FormatError", err)
	}
	// A negative delivered count would rewind the seam-global MaxCuts
	// count and deliver far more than the cap.
	neg := *snap
	neg.Visited = -1000
	if _, err := enum.ResumeEnumerate(g, opt, &neg, noVisit); !errors.As(err, &fe) {
		t.Fatalf("negative visited count: err = %v, want FormatError", err)
	}
}

// TestCrashResumeEverySite is the crash-resume chaos matrix: an injected
// panic at every protocol site of a checkpointing run, then a resume from
// the snapshot the contained crash left behind — at the OTHER worker count,
// so every crash/resume pair also crosses the serial↔parallel seam. The invariant: crashed prefix + resumed suffix ≡ serial, no
// duplicate and no missing cuts. SiteCheckpointWrite crashes inside the
// snapshot writer itself, proving the previous snapshot survives a failed
// atomic write.
func TestCrashResumeEverySite(t *testing.T) {
	g := workload.MiBenchLike(rand.New(rand.NewSource(2)), 60, workload.DefaultProfile())
	sopt := enum.DefaultOptions()
	sopt.Parallelism = 1
	serial := visitSequence(g, sopt)

	fired := 0
	for site := faultinject.Site(0); site < faultinject.NumSites; site++ {
		for _, workers := range []int{1, 4} {
			path := filepath.Join(t.TempDir(), "crash.ckpt")
			opt := ckptOpt(path, workers, 5)
			inj := faultinject.Injection{
				Site:   site,
				Hit:    faultinject.HitFromSeed(int64(workers), site, 50),
				Action: faultinject.ActPanic,
			}
			plan := faultinject.Install(inj)
			var got1 []string
			stats := runBounded(t, "crash run", func() enum.Stats {
				return enum.Enumerate(g, opt, func(c enum.Cut) bool {
					got1 = append(got1, c.String())
					return true
				})
			})
			faultinject.Uninstall()

			if stats.Err == nil {
				// The addressed traversal does not exist on this schedule
				// (e.g. steal sites in a serial run): the run must be clean
				// and complete.
				if plan.Fired(site) >= inj.Hit {
					t.Fatalf("%v workers=%d: injection fired but no error surfaced", site, workers)
				}
				if !reflect.DeepEqual(got1, serial) {
					t.Fatalf("%v workers=%d: clean run diverges from serial", site, workers)
				}
				continue
			}
			fired++
			var pe *enum.PanicError
			if !errors.As(stats.Err, &pe) {
				t.Fatalf("%v workers=%d: Stats.Err = %v, want *PanicError", site, workers, stats.Err)
			}
			if !isPrefix(got1, serial) {
				t.Fatalf("%v workers=%d: crashed run's %d cuts are not a serial prefix", site, workers, len(got1))
			}

			// The contained crash still wrote a final snapshot; resume at the
			// other worker count.
			snap := readSnap(t, path)
			if snap.Visited != int64(len(got1)) {
				t.Fatalf("%v workers=%d: snapshot Visited=%d, crashed run delivered %d",
					site, workers, snap.Visited, len(got1))
			}
			ropt := enum.DefaultOptions()
			ropt.KeepCuts = true
			ropt.Parallelism = 5 - workers // 1↔4: always cross the seam
			got2, rstats := resumeCollect(t, g, ropt, snap)
			if rstats.StopReason != enum.StopNone {
				t.Fatalf("%v workers=%d: resumed run stopped with %v", site, workers, rstats.StopReason)
			}
			if whole := append(append([]string(nil), got1...), got2...); !reflect.DeepEqual(whole, serial) {
				t.Fatalf("%v workers=%d: crash prefix (%d) + resume (%d) diverges from serial (%d)",
					site, workers, len(got1), len(got2), len(serial))
			}
		}
	}
	if fired < 4 {
		t.Fatalf("only %d crash injections fired — the matrix is near-vacuous", fired)
	}
}

// TestSnapshotSizeIndependentOfCuts pins the fixed snapshot size: a
// snapshot records counts and a frontier, never the delivered cuts, so a
// run stopped after one cut, one stopped halfway and a completed run all
// leave files of one size, serial or parallel.
func TestSnapshotSizeIndependentOfCuts(t *testing.T) {
	g := workload.MiBenchLike(rand.New(rand.NewSource(6)), 60, workload.DefaultProfile())
	sopt := enum.DefaultOptions()
	sopt.Parallelism = 1
	total := len(visitSequence(g, sopt))
	if total < 100 {
		t.Fatalf("test graph yields only %d cuts", total)
	}
	size := int64(-1)
	for _, workers := range []int{1, 4} {
		for _, maxCuts := range []int{1, total / 2, 0} {
			path := filepath.Join(t.TempDir(), "size.ckpt")
			opt := ckptOpt(path, workers, 0)
			opt.MaxCuts = maxCuts
			if _, stats := runCollect(g, opt); stats.Err != nil {
				t.Fatal(stats.Err)
			}
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if size >= 0 && fi.Size() != size {
				t.Fatalf("workers=%d MaxCuts=%d: snapshot of %d bytes, earlier ones %d", workers, maxCuts, fi.Size(), size)
			}
			size = fi.Size()
		}
	}
}
