package session

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"polyise/internal/bitset"
	"polyise/internal/enum"
	"polyise/internal/faultinject"
	"polyise/internal/workload"
)

// jsonRow is the row as encoding/json writes the map the stream used to
// encode, the byte-for-byte reference for appendRow.
func jsonRow(t testing.TB, c enum.Cut) []byte {
	t.Helper()
	b, err := json.Marshal(map[string]any{
		"nodes":   c.Nodes.Members(),
		"inputs":  c.Inputs,
		"outputs": c.Outputs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestStreamRowsMatchJSON streams every cut of both gap-regression
// instances through visit and compares each row, as written to the
// response, with the encoding/json reference. Synthetic cuts cover what
// the search never hands over: nil and empty slices, an empty node set and
// members on both sides of a word boundary.
func TestStreamRowsMatchJSON(t *testing.T) {
	check := func(t *testing.T, rec *httptest.ResponseRecorder, st *stream, c enum.Cut) {
		t.Helper()
		mark := rec.Body.Len()
		if !st.visit(c) {
			t.Fatalf("visit refused %v", c)
		}
		if got, want := rec.Body.Bytes()[mark:], jsonRow(t, c); !bytes.Equal(got, want) {
			t.Fatalf("row of %v:\n got %s\nwant %s", c, got, want)
		}
	}
	for _, gi := range workload.GapRegressionInstances() {
		t.Run(gi.Name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			st := newStream(rec, time.Minute)
			opt := enum.DefaultOptions()
			opt.KeepCuts = false // as the service runs: the visitor sees the shared scratch cut
			stats := enum.Enumerate(gi.Graph(), opt, func(c enum.Cut) bool {
				check(t, rec, st, c)
				return true
			})
			st.finish(stats, nil)
			if stats.Valid != gi.WantCuts {
				t.Fatalf("%d cuts, want %d", stats.Valid, gi.WantCuts)
			}
		})
	}
	t.Run("synthetic", func(t *testing.T) {
		rec := httptest.NewRecorder()
		st := newStream(rec, time.Minute)
		for _, c := range []enum.Cut{
			{Nodes: bitset.FromMembers(130, 0, 63, 64, 127, 128, 129), Inputs: nil, Outputs: []int{129}},
			{Nodes: bitset.New(5), Inputs: []int{}, Outputs: nil},
			{Nodes: bitset.FromMembers(70, 69), Inputs: []int{0, 12, 345}, Outputs: []int{}},
		} {
			check(t, rec, st, c)
		}
		st.finish(enum.Stats{}, nil)
	})
}

// sink is a ResponseWriter that keeps no bytes and allocates nothing, so
// the allocation test measures visit alone.
type sink struct {
	h       http.Header
	written int
}

func (s *sink) Header() http.Header              { return s.h }
func (s *sink) WriteHeader(int)                  {}
func (s *sink) Write(b []byte) (int, error)      { s.written += len(b); return len(b), nil }
func (s *sink) FlushError() error                { return nil }
func (s *sink) SetWriteDeadline(time.Time) error { return nil }

// TestStreamVisitZeroAlloc pins the row path's steady state: once the row
// scratch has grown and the latency timer exists, a row allocates nothing.
func TestStreamVisitZeroAlloc(t *testing.T) {
	gi := workload.GapRegressionInstances()[0]
	opt := enum.DefaultOptions()
	opt.Parallelism = 1
	var cuts []enum.Cut
	enum.Enumerate(gi.Graph(), opt, func(c enum.Cut) bool {
		cuts = append(cuts, c)
		return len(cuts) < 64
	})
	w := &sink{h: http.Header{}}
	st := newStream(w, time.Minute)
	defer st.finish(enum.Stats{}, nil)
	for _, c := range cuts {
		st.visit(c) // warm-up: status line, row scratch, timer
	}
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		if !st.visit(cuts[i%len(cuts)]) {
			t.Fatal("visit refused a row")
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("visit allocates %.1f times per row", allocs)
	}
	if w.written == 0 {
		t.Fatal("nothing written")
	}
}

// TestStreamLatencyBound checks the latency bound over HTTP: a row found
// just before a long silent stretch of the search reaches the client
// before the stretch ends, though the rows written so far fill no buffer.
// The first pickInputs traversal after the first row pauses for 500 ms.
// The run is serial (one P, so the service's default of one worker per P
// is one worker): in a sharded run the pause could land before the first
// row, and other workers' rows could fill the buffer during it.
func TestStreamLatencyBound(t *testing.T) {
	const pause = 500 * time.Millisecond
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g := workload.MiBenchLike(rand.New(rand.NewSource(31)), 24, workload.DefaultProfile())
	s := NewService(Config{})
	ts := httptest.NewServer(NewHandler(s, HandlerConfig{}))
	defer ts.Close()
	id, _ := httpSubmit(t, ts, graphText(t, g))

	var delivered, paused atomic.Bool
	pauseOver := make(chan struct{})
	faultinject.OnResponseWrite = func() { delivered.Store(true) }
	faultinject.OnPickInputs = func() {
		if delivered.Load() && paused.CompareAndSwap(false, true) {
			time.Sleep(pause)
			close(pauseOver)
		}
	}
	defer faultinject.Uninstall()

	start := time.Now()
	resp, err := http.Post(ts.URL+"/v1/graphs/"+id+"/enumerate?nin=2&nout=1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	first, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	firstAt := time.Since(start)
	select {
	case <-pauseOver:
		t.Fatalf("first row arrived after the %v pause ended (%v after the request)", pause, firstAt)
	default:
	}
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	if !paused.Load() {
		t.Fatal("the search never paused after the first row; pick a block with more cuts")
	}
	if n := len(first) + len(rest); n >= 2048 {
		t.Fatalf("the stream is %d bytes: a full buffer, not the latency timer, could deliver the first row", n)
	}
	t.Logf("first row after %v, the stream ended after %v", firstAt, time.Since(start))
}

// TestStreamStalledClientReleasesSlot: a client that stops reading has
// its run stopped by the write deadline and its slot released, though the
// connection stays open. Both ends keep small socket buffers, so a few
// hundred rows fill them.
func TestStreamStalledClientReleasesSlot(t *testing.T) {
	gi := workload.GapRegressionInstances()[0]
	s := NewService(Config{MaxConcurrent: 1})
	ts := httptest.NewUnstartedServer(NewHandler(s, HandlerConfig{WriteTimeout: 100 * time.Millisecond}))
	ts.Config.ConnContext = func(ctx context.Context, c net.Conn) context.Context {
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetWriteBuffer(4096)
		}
		return ctx
	}
	ts.Start()
	defer ts.Close()
	id, _ := httpSubmit(t, ts, graphText(t, gi.Graph()))

	var rows atomic.Int64
	faultinject.OnResponseWrite = func() { rows.Add(1) }
	defer faultinject.Uninstall()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.(*net.TCPConn).SetReadBuffer(4096)
	if _, err := conn.Write([]byte("POST /v1/graphs/" + id + "/enumerate HTTP/1.1\r\nHost: polyised\r\nContent-Length: 0\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	// Read nothing. The run must end by itself.
	deadline := time.Now().Add(20 * time.Second)
	for s.Stats().Completed == 0 || s.Stats().Running != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("the stalled client still holds its slot after 20 s (%d rows written)", rows.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := rows.Load(); n == 0 || n >= int64(gi.WantCuts) {
		t.Fatalf("%d rows handed to the stream, want a proper prefix of %d", n, gi.WantCuts)
	}
	t.Logf("run stopped after %d of %d rows", rows.Load(), gi.WantCuts)
}
