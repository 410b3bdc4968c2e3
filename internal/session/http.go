package session

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"net/http"
	"strconv"
	"sync"
	"time"

	"polyise/internal/checkpoint"
	"polyise/internal/enum"
	"polyise/internal/faultinject"
	"polyise/internal/graphio"
	"polyise/internal/ise"
)

// HandlerConfig tunes the HTTP front end.
type HandlerConfig struct {
	// WriteTimeout bounds each response write, so one stalled client
	// cannot pin an enumeration slot forever: when a streamed write blocks
	// past it the run is stopped (the client has by then received an exact
	// serial-order prefix). The stream sets its deadline once per latency
	// window (streamLatency), so a stalled client is cut off within
	// WriteTimeout + streamLatency. 0 means 30 s.
	WriteTimeout time.Duration
}

// NewHandler translates HTTP onto a Service.
//
//	POST /v1/graphs                     submit a graph (text format body)
//	POST /v1/graphs/{id}/enumerate      stream cuts as NDJSON
//	POST /v1/graphs/{id}/select         run ISE selection, return JSON
//	POST /v1/graphs/{id}/resume         continue a parked durable run
//	GET  /v1/stats                      service counters
//
// Enumeration parameters ride in the query string: nin, nout, max_cuts,
// deadline_ms, connected, run (making the request durable under that id),
// checkpoint_every.
//
// Typed service errors map onto statuses: *graphio.LimitError → 413,
// *OverloadError → 429 (503 under shutdown) with Retry-After,
// *NotFoundError → 404, *checkpoint.MismatchError → 409, parse errors →
// 400, *enum.PanicError → 500. A *SuspendedError ends an already-started
// stream with a terminal "suspended" record instead.
func NewHandler(s *Service, hc HandlerConfig) http.Handler {
	if hc.WriteTimeout <= 0 {
		hc.WriteTimeout = 30 * time.Second
	}
	h := &handler{s: s, cfg: hc}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/graphs", h.submit)
	mux.HandleFunc("POST /v1/graphs/{id}/enumerate", h.enumerate)
	mux.HandleFunc("POST /v1/graphs/{id}/select", h.selectISE)
	mux.HandleFunc("POST /v1/graphs/{id}/resume", h.resume)
	mux.HandleFunc("GET /v1/stats", h.stats)
	return mux
}

type handler struct {
	s   *Service
	cfg HandlerConfig
}

func (h *handler) submit(w http.ResponseWriter, r *http.Request) {
	id, nodes, err := h.s.SubmitGraph(r.Body)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	json.NewEncoder(w).Encode(map[string]any{"id": id.String(), "nodes": nodes})
}

func (h *handler) enumerate(w http.ResponseWriter, r *http.Request) {
	req, err := requestFromHTTP(r)
	if err != nil {
		writeError(w, err)
		return
	}
	st := newStream(w, h.cfg.WriteTimeout)
	stats, err := h.s.Enumerate(r.Context(), req, st.visit)
	st.finish(stats, err)
}

func (h *handler) resume(w http.ResponseWriter, r *http.Request) {
	req, err := requestFromHTTP(r)
	if err != nil {
		writeError(w, err)
		return
	}
	if req.RunID == "" {
		writeError(w, fmt.Errorf("session: resume requires the run query parameter"))
		return
	}
	st := newStream(w, h.cfg.WriteTimeout)
	stats, err := h.s.Resume(r.Context(), req, st.visit)
	st.finish(stats, err)
}

func (h *handler) selectISE(w http.ResponseWriter, r *http.Request) {
	req, err := requestFromHTTP(r)
	if err != nil {
		writeError(w, err)
		return
	}
	sel, stats, err := h.s.Select(r.Context(), req, ise.DefaultModel(), ise.DefaultSelectOptions())
	if err != nil {
		writeError(w, err)
		return
	}
	chosen := make([]map[string]any, 0, len(sel.Chosen))
	for _, e := range sel.Chosen {
		chosen = append(chosen, map[string]any{
			"nodes":   e.Cut.Nodes.Members(),
			"inputs":  e.Cut.Inputs,
			"outputs": e.Cut.Outputs,
			"saving":  e.Saving,
			"area":    e.Area,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"chosen":        chosen,
		"cycles_before": sel.BlockCyclesBefore,
		"cycles_after":  sel.BlockCyclesAfter,
		"speedup":       sel.Speedup(),
		"area":          sel.TotalArea,
		"stats":         statsJSON(stats),
	})
}

func (h *handler) stats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(h.s.Stats())
}

// requestFromHTTP decodes the path graph id and query parameters.
func requestFromHTTP(r *http.Request) (Request, error) {
	id, err := ParseGraphID(r.PathValue("id"))
	if err != nil {
		return Request{}, err
	}
	q := r.URL.Query()
	req := Request{Graph: id, Options: enum.DefaultOptions()}
	// intq reads an integer parameter that must be at least min. The port
	// budgets start at 1: a zero budget admits no cut, and its empty stream
	// would end in a terminal record that reads as a complete result.
	intq := func(key string, min int, dst *int) error {
		if v := q.Get(key); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < min {
				return fmt.Errorf("session: bad %s=%q: want an integer >= %d", key, v, min)
			}
			*dst = n
		}
		return nil
	}
	if err := errors.Join(
		intq("nin", 1, &req.Options.MaxInputs),
		intq("nout", 1, &req.Options.MaxOutputs),
		intq("max_cuts", 0, &req.MaxCuts),
		intq("checkpoint_every", 0, &req.CheckpointEvery),
	); err != nil {
		return Request{}, err
	}
	if v := q.Get("deadline_ms"); v != "" {
		ms, err := strconv.Atoi(v)
		if err != nil || ms < 0 {
			return Request{}, fmt.Errorf("session: bad deadline_ms=%q", v)
		}
		req.Deadline = time.Duration(ms) * time.Millisecond
	}
	if v := q.Get("connected"); v == "1" || v == "true" {
		req.Options.ConnectedOnly = true
	}
	if run := q.Get("run"); run != "" {
		req.Durable, req.RunID = true, run
	}
	// The visitor encodes the cut inside the callback, so the shared
	// scratch cut is safe and per-cut clones are skipped.
	req.Options.KeepCuts = false
	return req, nil
}

// streamLatency bounds how long a streamed row waits in the response
// buffer before it reaches the client. Rows are appended to the buffer,
// which net/http writes out whenever it fills; a row in a buffer that has
// not filled is flushed by a timer this long after the first row since the
// last flush (the window). The same window paces the write deadline.
const streamLatency = 10 * time.Millisecond

// stream writes the NDJSON cut stream. A row costs an append to the
// response buffer, not a syscall: the buffer is flushed when it fills and
// otherwise once per latency window, by a timer, after the pattern of
// net/http/httputil's maxLatencyWriter. The HTTP status line is committed
// lazily: errors before the first row still get a real status code, errors
// after it become a terminal record.
//
// mu serializes visit, the timer and finish, since the timer flushes from
// a goroutine of its own. A write or flush error, from visit or from the
// timer, is kept in err, and the next visit returns false, so a client that
// stops reading releases the enumeration slot.
type stream struct {
	w       http.ResponseWriter
	rc      *http.ResponseController
	timeout time.Duration

	mu      sync.Mutex
	started bool        // the status line is committed
	pending bool        // rows written since the last flush: a window is open
	done    bool        // finish ran; the timer must not touch w any more
	timer   *time.Timer // flushes the open window
	err     error       // the first write or flush error
	row     []byte      // scratch for one encoded row
}

func newStream(w http.ResponseWriter, timeout time.Duration) *stream {
	return &stream{w: w, rc: http.NewResponseController(w), timeout: timeout}
}

// start commits the status line before the first record.
func (st *stream) start() {
	if !st.started {
		st.started = true
		st.w.Header().Set("Content-Type", "application/x-ndjson")
		st.w.WriteHeader(http.StatusOK)
	}
}

func (st *stream) visit(c enum.Cut) bool {
	if h := faultinject.OnResponseWrite; h != nil {
		h()
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.err != nil {
		return false
	}
	st.start()
	if !st.pending {
		// The first row since the last flush opens a window and sets its
		// write deadline, the slow-client bound: a client that stops
		// reading stalls a write (a full buffer's or the timer's flush)
		// until the deadline kills the connection, and the error ends the
		// run. The window lasts streamLatency, so a write gets at least the
		// timeout, and a stalled client is cut off within timeout +
		// streamLatency of the stall.
		st.pending = true
		st.rc.SetWriteDeadline(time.Now().Add(st.timeout + streamLatency))
		if st.timer == nil {
			st.timer = time.AfterFunc(streamLatency, st.flushWindow)
		} else {
			st.timer.Reset(streamLatency)
		}
	}
	st.row = appendRow(st.row[:0], c)
	if _, err := st.w.Write(st.row); err != nil {
		st.err = err
		return false
	}
	return true
}

// flushWindow is the timer: it closes the open window by flushing its rows.
func (st *stream) flushWindow() {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.done {
		return
	}
	st.pending = false
	if err := st.rc.Flush(); err != nil && st.err == nil {
		st.err = err
	}
}

// finish terminates the response: an HTTP error status when nothing was
// streamed yet, a terminal NDJSON record otherwise, written and flushed
// here with the timer stopped.
func (st *stream) finish(stats enum.Stats, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.done = true
	if st.timer != nil {
		st.timer.Stop()
	}
	var susp *SuspendedError
	if err != nil && !errors.As(err, &susp) && !st.started {
		writeError(st.w, err)
		return
	}
	st.start()
	st.rc.SetWriteDeadline(time.Now().Add(st.timeout))
	final := map[string]any{"done": true, "stats": statsJSON(stats)}
	if susp != nil {
		final["done"] = false
		final["suspended"] = map[string]any{"run": susp.RunID, "visited": susp.Visited, "durable": susp.SnapshotPath != ""}
	} else if err != nil {
		final["done"] = false
		final["error"] = err.Error()
	}
	json.NewEncoder(st.w).Encode(final)
	st.rc.Flush()
}

// appendRow appends the NDJSON row of c to b: byte for byte what
// encoding/json writes for the map {"nodes", "inputs", "outputs"}, keys in
// sorted order, a nil slice as null, ending in a newline. Nodes is read
// word by word, so a row allocates nothing once b has grown.
func appendRow(b []byte, c enum.Cut) []byte {
	b = append(b, `{"inputs":`...)
	b = appendInts(b, c.Inputs)
	b = append(b, `,"nodes":[`...)
	first := len(b)
	for wi, w := range c.Nodes.Words() {
		for w != 0 {
			if len(b) > first {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(wi<<6+bits.TrailingZeros64(w)), 10)
			w &= w - 1
		}
	}
	b = append(b, `],"outputs":`...)
	b = appendInts(b, c.Outputs)
	return append(b, "}\n"...)
}

func appendInts(b []byte, xs []int) []byte {
	if xs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}

func statsJSON(stats enum.Stats) map[string]any {
	out := map[string]any{
		"valid":      stats.Valid,
		"candidates": stats.Candidates,
		"stop":       stats.StopReason.String(),
	}
	if stats.Err != nil {
		out["err"] = stats.Err.Error()
	}
	return out
}

// writeError maps typed service errors onto HTTP statuses.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var (
		lim      *graphio.LimitError
		over     *OverloadError
		notFound *NotFoundError
		mismatch *checkpoint.MismatchError
		panicked *enum.PanicError
		susp     *SuspendedError
	)
	switch {
	case errors.As(err, &lim):
		status = http.StatusRequestEntityTooLarge
	case errors.As(err, &over):
		status = http.StatusTooManyRequests
		if over.Cause == CauseShutdown {
			status = http.StatusServiceUnavailable
		}
		if over.RetryAfter > 0 {
			secs := int((over.RetryAfter + time.Second - 1) / time.Second)
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
	case errors.As(err, &notFound):
		status = http.StatusNotFound
	case errors.As(err, &mismatch):
		status = http.StatusConflict
	case errors.Is(err, enum.ErrCompleted):
		status = http.StatusGone
	case errors.As(err, &susp):
		status = http.StatusServiceUnavailable
	case errors.As(err, &panicked):
		status = http.StatusInternalServerError
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]any{"error": err.Error()})
}
