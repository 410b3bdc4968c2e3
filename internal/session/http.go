package session

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"polyise/internal/checkpoint"
	"polyise/internal/enum"
	"polyise/internal/faultinject"
	"polyise/internal/graphio"
	"polyise/internal/ise"
)

// HandlerConfig tunes the HTTP front end.
type HandlerConfig struct {
	// WriteTimeout bounds each individual response write, so one stalled
	// client cannot pin an enumeration slot forever: when a streamed write
	// blocks past it the run is stopped (the client has by then received
	// an exact serial-order prefix). 0 means 30 s.
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
	st := newStream(w, r, h.cfg.WriteTimeout)
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
	st := newStream(w, r, h.cfg.WriteTimeout)
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
	intq := func(key string, dst *int) error {
		if v := q.Get(key); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return fmt.Errorf("session: bad %s=%q", key, v)
			}
			*dst = n
		}
		return nil
	}
	if err := errors.Join(
		intq("nin", &req.Options.MaxInputs),
		intq("nout", &req.Options.MaxOutputs),
		intq("max_cuts", &req.MaxCuts),
		intq("checkpoint_every", &req.CheckpointEvery),
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
	// The visitor marshals the cut inside the callback, so the shared
	// scratch cut is safe and per-cut clones are skipped.
	req.Options.KeepCuts = false
	return req, nil
}

// stream writes the NDJSON cut stream with per-write deadlines. The HTTP
// status line is committed lazily: errors before the first row still get a
// real status code, errors after it become a terminal record.
type stream struct {
	w       http.ResponseWriter
	rc      *http.ResponseController
	enc     *json.Encoder
	timeout time.Duration
	started bool
	n       int
}

func newStream(w http.ResponseWriter, r *http.Request, timeout time.Duration) *stream {
	return &stream{w: w, rc: http.NewResponseController(w), enc: json.NewEncoder(w), timeout: timeout}
}

func (st *stream) visit(c enum.Cut) bool {
	if !st.started {
		st.started = true
		st.w.Header().Set("Content-Type", "application/x-ndjson")
		st.w.WriteHeader(http.StatusOK)
	}
	if h := faultinject.OnResponseWrite; h != nil {
		h()
	}
	// The write deadline is the slow-client bound: a client that stops
	// reading stalls this write until the deadline kills the connection,
	// and the false return below releases the enumeration slot.
	st.rc.SetWriteDeadline(time.Now().Add(st.timeout))
	if err := st.enc.Encode(map[string]any{
		"nodes":   c.Nodes.Members(),
		"inputs":  c.Inputs,
		"outputs": c.Outputs,
	}); err != nil {
		return false
	}
	st.rc.Flush()
	st.n++
	return true
}

// finish terminates the response: an HTTP error status when nothing was
// streamed yet, a terminal NDJSON record otherwise.
func (st *stream) finish(stats enum.Stats, err error) {
	var susp *SuspendedError
	if err != nil && !errors.As(err, &susp) && !st.started {
		writeError(st.w, err)
		return
	}
	if !st.started {
		st.started = true
		st.w.Header().Set("Content-Type", "application/x-ndjson")
		st.w.WriteHeader(http.StatusOK)
	}
	st.rc.SetWriteDeadline(time.Now().Add(st.timeout))
	final := map[string]any{"done": true, "stats": statsJSON(stats)}
	if susp != nil {
		final["done"] = false
		final["suspended"] = map[string]any{"run": susp.RunID, "visited": susp.Visited, "durable": susp.SnapshotPath != ""}
	} else if err != nil {
		final["done"] = false
		final["error"] = err.Error()
	}
	st.enc.Encode(final)
	st.rc.Flush()
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
