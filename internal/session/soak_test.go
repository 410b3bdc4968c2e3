package session

// The soak test: chaos under load for the whole session layer. A saturated
// service handles a mixed storm — healthy enumerations, capped runs,
// poison (panicking) visitors, oversized submissions, graphs the memory
// budget cannot hold, mid-run cancellations, HTTP streaming clients — while delay
// injections perturb the session fault sites (cache insert/evict,
// admission, response write). The invariants, checked continuously or per
// request:
//
//   - every bad-request class fails with its typed error, nothing else;
//   - every healthy run is bit-identical to the serial library reference
//     (cached graph, shared instance, any interleaving);
//   - the memory budget is never exceeded, while eviction is actually
//     exercised;
//   - after the storm the service drains: no slots leaked, budget back to
//     cache-resident bytes only;
//   - shutdown parks an in-flight durable run and a fresh service resumes
//     it bit-exactly (the restart leg).
//
// `make soak` runs this under -race; `make ci` includes it.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"polyise/internal/dfg"
	"polyise/internal/enum"
	"polyise/internal/faultinject"
	"polyise/internal/graphio"
	"polyise/internal/workload"
)

func TestSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak storm is covered by make soak / make ci")
	}
	// Graph pool: distinct sizes so footprints differ and eviction has
	// texture. References are the plain serial library runs.
	sizes := []int{35, 45, 55, 65}
	graphs := make([]*dfg.Graph, len(sizes))
	refs := make([][]string, len(sizes))
	var maxFootprint int64
	for i, n := range sizes {
		graphs[i] = workload.MiBenchLike(rand.New(rand.NewSource(int64(100+i))), n, workload.DefaultProfile())
		refs[i] = serialReference(t, graphs[i], enum.DefaultOptions())
		if len(refs[i]) == 0 {
			t.Fatalf("graph %d has no cuts; useless for the soak", i)
		}
		if b := graphs[i].FootprintBytes(); b > maxFootprint {
			maxFootprint = b
		}
	}

	// Budget: two and a half graphs — tight enough that the storm
	// constantly evicts. A graph within the node limit but larger than the
	// whole budget is the memory-shed class.
	budget := 2*maxFootprint + maxFootprint/2
	huge := workload.MiBenchLike(rand.New(rand.NewSource(998)), 190, workload.DefaultProfile())
	if huge.FootprintBytes() <= budget {
		t.Fatalf("memory-shed graph needs %d bytes, within the %d-byte budget", huge.FootprintBytes(), budget)
	}
	dir := t.TempDir()
	s := NewService(Config{
		MaxConcurrent: 4,
		QueueDepth:    4,
		MemoryBudget:  budget,
		Limits:        graphio.Limits{MaxNodes: 200, MaxPreds: 16, MaxLineBytes: 512},
		CheckpointDir: dir,
		RetryAfter:    10 * time.Millisecond,
	})
	ts := httptest.NewServer(NewHandler(s, HandlerConfig{WriteTimeout: 10 * time.Second}))
	defer ts.Close()

	// Delay injections at every session site, firing on every traversal,
	// to widen race windows inside the cache and admission paths.
	faultinject.Install(
		faultinject.Injection{Site: faultinject.SiteCacheInsert, Hit: 0, Action: faultinject.ActDelay, Delay: 50 * time.Microsecond},
		faultinject.Injection{Site: faultinject.SiteCacheEvict, Hit: 0, Action: faultinject.ActDelay, Delay: 50 * time.Microsecond},
		faultinject.Injection{Site: faultinject.SiteAdmission, Hit: 0, Action: faultinject.ActDelay, Delay: 20 * time.Microsecond},
		faultinject.Injection{Site: faultinject.SiteResponseWrite, Hit: 0, Action: faultinject.ActDelay, Delay: 10 * time.Microsecond},
	)
	defer faultinject.Uninstall()

	ids := make([]GraphID, len(graphs))
	for i, g := range graphs {
		ids[i] = submitGraph(t, s, g)
	}

	// Continuous budget monitor.
	stopMonitor := make(chan struct{})
	monitorDone := make(chan struct{})
	go func() {
		defer close(monitorDone)
		for {
			select {
			case <-stopMonitor:
				return
			default:
			}
			if used := s.budget.Used(); budget > 0 && used > budget {
				t.Errorf("budget oversubscribed: %d > %d", used, budget)
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	// enumerateRetrying runs one request, absorbing queue sheds (the
	// legitimate overload answer) with the hinted backoff.
	enumerateRetrying := func(req Request, visit func(enum.Cut) bool) (enum.Stats, error) {
		for {
			stats, err := s.Enumerate(context.Background(), req, visit)
			var over *OverloadError
			if errors.As(err, &over) && over.Cause == CauseQueue {
				time.Sleep(over.RetryAfter)
				continue
			}
			return stats, err
		}
	}

	const workers = 8
	const perWorker = 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				gi := r.Intn(len(graphs))
				req := Request{Graph: ids[gi], Options: enum.DefaultOptions()}
				switch r.Intn(6) {
				case 0, 1: // healthy full run: bit-exact or a legal refusal
					var got []string
					_, err := enumerateRetrying(req, collectStrings(&got))
					var nf *NotFoundError
					if errors.As(err, &nf) {
						// Evicted under pressure: resubmit (content address
						// is stable) and let a later iteration cover it. The
						// cache may itself be too contended to re-admit the
						// graph right now; that refusal is also legal.
						var buf bytes.Buffer
						if werr := graphio.Write(&buf, graphs[gi]); werr == nil {
							s.SubmitGraph(&buf)
						}
						continue
					}
					if err != nil {
						t.Errorf("healthy run: %v", err)
						return
					}
					if !reflect.DeepEqual(got, refs[gi]) {
						t.Errorf("healthy run diverged from serial reference (%d vs %d cuts)", len(got), len(refs[gi]))
						return
					}
				case 2: // capped run: exact prefix
					cap := 1 + r.Intn(len(refs[gi]))
					req.MaxCuts = cap
					var got []string
					_, err := enumerateRetrying(req, collectStrings(&got))
					if err != nil {
						continue
					}
					if !reflect.DeepEqual(got, refs[gi][:len(got)]) || len(got) > cap {
						t.Errorf("capped run is not a serial prefix (got %d, cap %d)", len(got), cap)
						return
					}
				case 3: // poison visitor: contained, typed, isolated
					_, err := enumerateRetrying(req, func(enum.Cut) bool { panic("soak poison") })
					var pe *enum.PanicError
					var nf *NotFoundError
					// An eviction can legally refuse the request before the
					// visitor ever runs; otherwise the panic must surface
					// contained and typed.
					if !errors.As(err, &pe) && !errors.As(err, &nf) {
						t.Errorf("poison request: err = %v, want *enum.PanicError", err)
						return
					}
				case 4: // bad-request classes: oversized submit, unaffordable graph
					if r.Intn(2) == 0 {
						var buf bytes.Buffer
						graphio.Write(&buf, workload.MiBenchLike(rand.New(rand.NewSource(999)), 201, workload.DefaultProfile()))
						_, _, err := s.SubmitGraph(&buf)
						var le *graphio.LimitError
						if !errors.As(err, &le) {
							t.Errorf("oversized submit: err = %v, want *graphio.LimitError", err)
							return
						}
					} else {
						var buf bytes.Buffer
						graphio.Write(&buf, huge)
						_, _, err := s.SubmitGraph(&buf)
						var over *OverloadError
						if !errors.As(err, &over) || over.Cause != CauseMemory {
							t.Errorf("unaffordable graph: err = %v, want *OverloadError(memory)", err)
							return
						}
					}
				case 5: // canceled mid-run, or an HTTP streaming client
					if r.Intn(2) == 0 {
						ctx, cancel := context.WithCancel(context.Background())
						n := 0
						_, err := s.Enumerate(ctx, req, func(enum.Cut) bool {
							n++
							if n == 3 {
								cancel()
							}
							return true
						})
						cancel()
						if err != nil && !errors.Is(err, context.Canceled) {
							var over *OverloadError
							var nf *NotFoundError
							if !errors.As(err, &over) && !errors.As(err, &nf) {
								t.Errorf("canceled run: err = %v", err)
								return
							}
						}
					} else {
						resp, err := http.Post(ts.URL+"/v1/graphs/"+ids[gi].String()+"/enumerate", "", nil)
						if err != nil {
							t.Errorf("http enumerate: %v", err)
							return
						}
						rows, ok := countNDJSONCuts(t, resp)
						resp.Body.Close()
						if ok && rows != len(refs[gi]) {
							t.Errorf("http stream delivered %d cuts, want %d", rows, len(refs[gi]))
							return
						}
					}
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	close(stopMonitor)
	<-monitorDone
	if t.Failed() {
		return
	}

	st := s.Stats()
	if st.Cache.Evictions == 0 {
		t.Error("storm produced no evictions; budget pressure was not exercised")
	}
	if st.Running != 0 {
		t.Errorf("Running = %d after storm drained", st.Running)
	}
	if used, cached := s.budget.Used(), s.Cache().Stats().Bytes; used != cached {
		t.Errorf("budget used %d != cache bytes %d after storm", used, cached)
	}

	// Restart leg: park a durable run via shutdown, resume on a fresh
	// service over the same directory, and demand bit-exact continuation.
	big := workload.MiBenchLike(rand.New(rand.NewSource(17)), 100, workload.DefaultProfile())
	bigRef := serialReference(t, big, enum.DefaultOptions())
	bigID := submitGraph(t, s, big)
	req := Request{Graph: bigID, Options: enum.DefaultOptions(), Durable: true, RunID: "soak-park", CheckpointEvery: 32}
	var first []string
	_, err := s.Enumerate(context.Background(), req, func(c enum.Cut) bool {
		first = append(first, c.String())
		if len(first) == 40 {
			go s.Shutdown(context.Background())
			for !s.Draining() {
				time.Sleep(100 * time.Microsecond)
			}
		}
		return true
	})
	var susp *SuspendedError
	if !errors.As(err, &susp) {
		t.Fatalf("durable storm run: err = %v, want *SuspendedError", err)
	}
	s2 := NewService(Config{CheckpointDir: dir})
	if id := submitGraph(t, s2, big); id != bigID {
		t.Fatalf("content address changed across restart")
	}
	var rest []string
	if _, err := s2.Resume(context.Background(), req, collectStrings(&rest)); err != nil {
		t.Fatalf("resume after restart: %v", err)
	}
	if got := append(append([]string{}, first...), rest...); !reflect.DeepEqual(got, bigRef) {
		t.Fatalf("prefix(%d)+resumed(%d) != uninterrupted run (%d cuts)", len(first), len(rest), len(bigRef))
	}
}

// countNDJSONCuts drains an enumerate stream, returning the cut-row count
// and whether the stream completed cleanly (done terminal record).
func countNDJSONCuts(t *testing.T, resp *http.Response) (int, bool) {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		return 0, false // shed or evicted under load: legal
	}
	rows, clean := 0, false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Errorf("bad stream line %q: %v", line, err)
			return rows, false
		}
		if d, ok := rec["done"]; ok {
			clean = d == true
			continue
		}
		rows++
	}
	return rows, clean
}
