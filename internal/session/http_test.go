package session

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"polyise/internal/dfg"
	"polyise/internal/enum"
	"polyise/internal/faultinject"
	"polyise/internal/graphio"
	"polyise/internal/workload"
)

func graphText(t testing.TB, g *dfg.Graph) string {
	t.Helper()
	var buf bytes.Buffer
	if err := graphio.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func httpSubmit(t *testing.T, ts *httptest.Server, body string) (string, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/graphs", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return "", resp
	}
	var out struct {
		ID    string `json:"id"`
		Nodes int    `json:"nodes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("submit response: %v", err)
	}
	return out.ID, resp
}

func TestHTTPSubmitAndEnumerateStream(t *testing.T) {
	g := workload.MiBenchLike(rand.New(rand.NewSource(31)), 50, workload.DefaultProfile())
	want := serialReference(t, g, enum.DefaultOptions())
	s := NewService(Config{})
	ts := httptest.NewServer(NewHandler(s, HandlerConfig{}))
	defer ts.Close()

	id, _ := httpSubmit(t, ts, graphText(t, g))
	if id == "" {
		t.Fatal("submit failed")
	}
	// Resubmission is idempotent: same content, same id.
	id2, _ := httpSubmit(t, ts, graphText(t, g))
	if id2 != id {
		t.Fatalf("resubmission id %s != %s", id2, id)
	}

	resp, err := http.Post(ts.URL+"/v1/graphs/"+id+"/enumerate", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("enumerate status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q", ct)
	}
	var rows int
	var sawDone bool
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64), 1<<20)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad NDJSON line: %v: %s", err, sc.Text())
		}
		if done, ok := rec["done"]; ok {
			if done != true {
				t.Fatalf("terminal record not done: %s", sc.Text())
			}
			stats := rec["stats"].(map[string]any)
			if int(stats["valid"].(float64)) != len(want) {
				t.Fatalf("stream stats valid = %v, want %d", stats["valid"], len(want))
			}
			sawDone = true
			continue
		}
		if _, ok := rec["nodes"]; !ok {
			t.Fatalf("cut record without nodes: %s", sc.Text())
		}
		rows++
	}
	if rows != len(want) {
		t.Fatalf("streamed %d cuts, library produced %d", rows, len(want))
	}
	if !sawDone {
		t.Fatal("stream ended without a terminal record")
	}
}

func TestHTTPEnumerateMaxCuts(t *testing.T) {
	g := workload.MiBenchLike(rand.New(rand.NewSource(31)), 50, workload.DefaultProfile())
	s := NewService(Config{})
	ts := httptest.NewServer(NewHandler(s, HandlerConfig{}))
	defer ts.Close()
	id, _ := httpSubmit(t, ts, graphText(t, g))
	resp, err := http.Post(ts.URL+"/v1/graphs/"+id+"/enumerate?max_cuts=5", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 6 {
		t.Fatalf("max_cuts=5: got %d lines, want 5 cuts + terminal", len(lines))
	}
	if !strings.Contains(lines[5], `"budget"`) {
		t.Fatalf("terminal record should report the budget stop: %s", lines[5])
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	g := workload.MiBenchLike(rand.New(rand.NewSource(3)), 30, workload.DefaultProfile())
	s := NewService(Config{Limits: graphio.Limits{MaxNodes: 64, MaxPreds: 8, MaxLineBytes: 256}})
	ts := httptest.NewServer(NewHandler(s, HandlerConfig{}))
	defer ts.Close()

	// Over-limit submission → 413 with the limit named.
	_, resp := httpSubmit(t, ts, strings.Repeat("node var\n", 65))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-limit submit: status %d, want 413", resp.StatusCode)
	}

	// Malformed graph → 400.
	_, resp = httpSubmit(t, ts, "node bogus-op\n")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed submit: status %d, want 400", resp.StatusCode)
	}

	// Unknown (but well-formed) id → 404.
	missing := strings.Repeat("0", 31) + "1"
	resp, err := http.Post(ts.URL+"/v1/graphs/"+missing+"/enumerate", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown graph: status %d, want 404", resp.StatusCode)
	}

	// Malformed id → 400.
	resp, err = http.Post(ts.URL+"/v1/graphs/nothex/enumerate", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed id: status %d, want 400", resp.StatusCode)
	}

	// Bad query parameter → 400.
	id, _ := httpSubmit(t, ts, graphText(t, g))
	resp, err = http.Post(ts.URL+"/v1/graphs/"+id+"/enumerate?max_cuts=banana", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad query: status %d, want 400", resp.StatusCode)
	}

	// A zero port budget → 400 naming the parameter, not an empty stream
	// that reads as complete.
	for _, c := range []struct{ query, param string }{
		{"nin=0&nout=2", "nin"},
		{"nin=4&nout=0", "nout"},
	} {
		resp, err = http.Post(ts.URL+"/v1/graphs/"+id+"/enumerate?"+c.query, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), c.param+"=") {
			t.Fatalf("%s: status %d body %q, want 400 naming %s", c.query, resp.StatusCode, body, c.param)
		}
	}
}

func TestHTTPOverloadAndShutdownStatuses(t *testing.T) {
	g := workload.MiBenchLike(rand.New(rand.NewSource(3)), 40, workload.DefaultProfile())
	s := NewService(Config{MaxConcurrent: 1, QueueDepth: 1, RetryAfter: 3 * time.Second})
	ts := httptest.NewServer(NewHandler(s, HandlerConfig{}))
	defer ts.Close()
	id, _ := httpSubmit(t, ts, graphText(t, g))
	gid, err := ParseGraphID(id)
	if err != nil {
		t.Fatal(err)
	}

	// Saturate: one run holding the slot, one queued. The inSlot handshake
	// guarantees the holder owns the slot before the waiter launches.
	inSlot := make(chan struct{}, 1)
	unblock := make(chan struct{})
	holderDone := make(chan struct{})
	go func() {
		defer close(holderDone)
		s.Enumerate(context.Background(), Request{Graph: gid, Options: enum.DefaultOptions()}, func(enum.Cut) bool {
			select {
			case inSlot <- struct{}{}:
			default:
			}
			<-unblock
			return false
		})
	}()
	<-inSlot
	waiterCtx, cancelWaiter := context.WithCancel(context.Background())
	waiterDone := make(chan struct{})
	go func() {
		defer close(waiterDone)
		s.Enumerate(waiterCtx, Request{Graph: gid, Options: enum.DefaultOptions()}, func(enum.Cut) bool { return false })
	}()
	deadline := time.After(5 * time.Second)
	for s.inflight.Load() < 2 {
		select {
		case <-deadline:
			t.Fatal("saturation never reached")
		default:
			time.Sleep(time.Millisecond)
		}
	}

	resp, err := http.Post(ts.URL+"/v1/graphs/"+id+"/enumerate", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}

	cancelWaiter()
	close(unblock)
	<-holderDone
	<-waiterDone

	// Drained service → 503.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/graphs/"+id+"/enumerate", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shutdown: status %d, want 503", resp.StatusCode)
	}
}

func TestHTTPSelectAndStats(t *testing.T) {
	g := workload.MiBenchLike(rand.New(rand.NewSource(13)), 60, workload.DefaultProfile())
	s := NewService(Config{})
	ts := httptest.NewServer(NewHandler(s, HandlerConfig{}))
	defer ts.Close()
	id, _ := httpSubmit(t, ts, graphText(t, g))

	resp, err := http.Post(ts.URL+"/v1/graphs/"+id+"/select", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("select: status %d", resp.StatusCode)
	}
	var sel struct {
		Chosen  []json.RawMessage `json:"chosen"`
		Speedup float64           `json:"speedup"`
		Stats   map[string]any    `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sel); err != nil {
		t.Fatalf("select response: %v", err)
	}
	if sel.Speedup < 1 {
		t.Fatalf("speedup %v < 1", sel.Speedup)
	}
	if sel.Stats["stop"] != "none" {
		t.Fatalf("selection enumeration stop = %v", sel.Stats["stop"])
	}

	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats Stats
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatalf("stats response: %v", err)
	}
	if stats.Admitted == 0 || stats.Cache.Entries != 1 {
		t.Fatalf("stats = %+v, want admissions and one cached graph", stats)
	}
}

// TestHTTPDurableResumeOverHTTP drives the park/resume cycle through the
// HTTP surface: enumerate?run=… interrupted by shutdown answers with a
// terminal "suspended" record, and a second server over the same
// checkpoint directory resumes to completion with the exact remaining
// cuts. The shutdown starts on the server side once 50 rows are written
// (the response-write site fires before each row): rows reach the client
// in batches, so a client that counted 50 rows first could find the whole
// run already written.
func TestHTTPDurableResumeOverHTTP(t *testing.T) {
	g := workload.MiBenchLike(rand.New(rand.NewSource(17)), 100, workload.DefaultProfile())
	want := serialReference(t, g, enum.DefaultOptions())
	dir := t.TempDir()
	s := NewService(Config{CheckpointDir: dir})
	ts := httptest.NewServer(NewHandler(s, HandlerConfig{}))
	id, _ := httpSubmit(t, ts, graphText(t, g))

	// Shutdown closes the drain before it waits for the runs, so with a
	// context that is already done it returns at once, and the run parks at
	// the visit point of the row about to be written.
	var rows atomic.Int64
	drained, stop := context.WithCancel(context.Background())
	stop()
	faultinject.OnResponseWrite = func() {
		if rows.Add(1) == 51 {
			s.Shutdown(drained)
		}
	}
	defer faultinject.Uninstall()
	resp, err := http.Post(ts.URL+"/v1/graphs/"+id+"/enumerate?run=httppark&checkpoint_every=64", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var prefix int
	var suspended bool
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64), 1<<20)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad line: %v", err)
		}
		if _, ok := rec["suspended"]; ok {
			suspended = true
			break
		}
		if _, ok := rec["done"]; ok {
			break
		}
		prefix++
	}
	resp.Body.Close()
	faultinject.OnResponseWrite = nil
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	if !suspended {
		t.Fatalf("stream ended without suspension after %d cuts (graph too small?)", prefix)
	}
	if prefix >= len(want) {
		t.Fatal("entire enumeration delivered before suspension")
	}

	// Restart: new service, same directory; resubmit (same id) and resume.
	s2 := NewService(Config{CheckpointDir: dir})
	ts2 := httptest.NewServer(NewHandler(s2, HandlerConfig{}))
	defer ts2.Close()
	if id2, _ := httpSubmit(t, ts2, graphText(t, g)); id2 != id {
		t.Fatalf("id changed across restart: %s vs %s", id2, id)
	}
	resp2, err := http.Post(ts2.URL+"/v1/graphs/"+id+"/resume?run=httppark", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp2.Body)
		t.Fatalf("resume: status %d: %s", resp2.StatusCode, body)
	}
	var rest, done int
	sc2 := bufio.NewScanner(resp2.Body)
	sc2.Buffer(make([]byte, 0, 64), 1<<20)
	for sc2.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc2.Bytes(), &rec); err != nil {
			t.Fatalf("bad resume line: %v", err)
		}
		if d, ok := rec["done"]; ok {
			if d != true {
				t.Fatalf("resume terminal record: %s", sc2.Text())
			}
			done++
			continue
		}
		rest++
	}
	if done != 1 {
		t.Fatal("resume stream missing terminal record")
	}
	if prefix+rest != len(want) {
		t.Fatalf("prefix %d + resumed %d != %d total cuts", prefix, rest, len(want))
	}
}
