// Package session turns the polyise enumeration library into a hardened
// long-running service: enumeration-as-a-service. It layers, over the
// library's existing fail-safe machinery (panic containment, budgets,
// deadlines, durable checkpoints), the concerns a server process has that a
// library call does not:
//
//   - Content-addressed graph caching. Frozen graphs are identified by
//     checkpoint.GraphDigest — the same hash that gates checkpoint resume —
//     so a client submits a graph once and every later request addresses it
//     by id. Identical submissions deduplicate to one cached instance, which
//     concurrent enumerations share safely (everything a Freeze computes is
//     immutable; the lazily built Augmented structures are sync.Once-guarded).
//
//   - One global memory budget. Cached graphs draw reservations from a
//     single Budget; an enumeration keeps no record of the cuts it has
//     delivered, so its memory does not grow with the cut count and the
//     cache is the process's dominant memory consumer. Under pressure the
//     cache evicts idle (refcount-zero) graphs in LRU order; when eviction
//     cannot free enough, the submission is refused with a typed
//     OverloadError instead of growing without bound.
//
//   - Admission control. A bounded slot pool caps concurrent enumerations
//     and a bounded wait queue absorbs bursts; past that, requests are shed
//     immediately with an OverloadError carrying a retry-after hint —
//     load shedding, not load collapse.
//
//   - Per-request isolation. Every request runs under the PR 7 containment
//     contract: a panic anywhere in request handling surfaces as a
//     *enum.PanicError on that request alone, never as a dead server.
//
//   - Graceful degradation on shutdown. Shutdown closes a drain channel
//     that doubles as every running enumeration's Options.CheckpointStop:
//     short runs finish, durable runs park a snapshot on disk
//     (SuspendedError names it) and resume bit-exactly — possibly in a
//     different process — via ResumeEnumerate, and non-durable runs end
//     cleanly having delivered an exact serial-order prefix.
//
// The HTTP front end (http.go, cmd/polyised) is a thin translation onto
// this layer; everything above is exercisable — and chaos-tested — without
// a socket.
package session

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"polyise/internal/checkpoint"
	"polyise/internal/enum"
	"polyise/internal/faultinject"
	"polyise/internal/graphio"
	"polyise/internal/ise"
)

// GraphID is the content address of a cached graph: checkpoint.GraphDigest
// of the frozen graph, so equal graphs get equal ids in every process.
type GraphID [2]uint64

// String renders the id as 32 hex digits, the wire form.
func (id GraphID) String() string { return checkpoint.DigestString(id) }

// ParseGraphID inverts GraphID.String.
func ParseGraphID(s string) (GraphID, error) {
	d, err := checkpoint.ParseDigest(s)
	return GraphID(d), err
}

// Config sizes a Service. The zero value is usable: unlimited memory, caps
// derived from GOMAXPROCS, no checkpoint directory (Durable requests are
// refused).
type Config struct {
	// MaxConcurrent caps enumerations running at once; 0 means GOMAXPROCS.
	MaxConcurrent int
	// QueueDepth caps requests waiting for a slot beyond MaxConcurrent;
	// a request arriving past the queue is shed immediately. 0 means a
	// queue as deep as the slot pool.
	QueueDepth int
	// MemoryBudget bounds, in bytes, the cached graphs. 0 means
	// unlimited.
	MemoryBudget int64
	// Limits caps graph submissions (graphio.ReadLimited). Zero fields are
	// unlimited — production configs should set all three.
	Limits graphio.Limits
	// DefaultDeadline bounds a request that does not set its own; 0 means
	// none.
	DefaultDeadline time.Duration
	// MaxCutsCeiling caps any request's MaxCuts (and applies when a
	// request sets none). 0 means no ceiling.
	MaxCutsCeiling int
	// CheckpointDir is where Durable runs park their snapshots; empty
	// refuses Durable requests.
	CheckpointDir string
	// RetryAfter is the backoff hint attached to shed requests; 0 means
	// one second.
	RetryAfter time.Duration
	// StallTimeout overrides enum.Options.StealStallTimeout per request so
	// a broken run frees its slot quickly; 0 keeps the library default.
	StallTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = c.MaxConcurrent
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// Request names one enumeration (or selection) over a cached graph.
type Request struct {
	// Graph addresses the cached graph (SubmitGraph's return).
	Graph GraphID
	// Options carries the enumeration configuration. The budget fields
	// (MaxCuts, Deadline, Context, Checkpoint*) are owned
	// by the service and overwritten from the fields below.
	Options enum.Options
	// MaxCuts caps delivered cuts; capped by Config.MaxCutsCeiling.
	MaxCuts int
	// Deadline bounds the run; 0 takes Config.DefaultDeadline.
	Deadline time.Duration
	// Durable parks the run on shutdown (and checkpoints periodically)
	// instead of just stopping it; requires RunID and Config.CheckpointDir.
	Durable bool
	// RunID names the durable run's snapshot file; must be non-empty for
	// Durable requests and is restricted to [a-zA-Z0-9._-].
	RunID string
	// CheckpointEvery is the durable run's snapshot cadence in delivered
	// cuts; 0 writes only the stop-time snapshot.
	CheckpointEvery int
}

// Stats is a point-in-time summary of a Service.
type Stats struct {
	Admitted  uint64 // requests that won an execution slot
	Shed      uint64 // requests refused by admission control
	Completed uint64 // runs that returned to the client
	Panics    uint64 // runs that died to a contained panic
	Suspended uint64 // durable runs parked by shutdown
	Resumed   uint64 // runs continued from a snapshot
	Running   int64  // runs holding a slot right now

	Cache       CacheStats
	BudgetUsed  int64
	BudgetTotal int64 // 0 = unlimited
}

// Service is the enumeration session layer. All methods are safe for
// concurrent use.
type Service struct {
	cfg    Config
	budget *Budget
	cache  *Cache

	slots chan struct{}
	// inflight counts requests holding or waiting for a slot; admission
	// sheds when it would exceed MaxConcurrent+QueueDepth.
	inflight atomic.Int64
	drain    chan struct{}
	closing  atomic.Bool
	wg       sync.WaitGroup

	admitted  atomic.Uint64
	shed      atomic.Uint64
	completed atomic.Uint64
	panics    atomic.Uint64
	suspended atomic.Uint64
	resumed   atomic.Uint64
	running   atomic.Int64
}

// NewService builds a Service from cfg (see Config for zero-value
// semantics).
func NewService(cfg Config) *Service {
	cfg = cfg.withDefaults()
	b := NewBudget(cfg.MemoryBudget)
	return &Service{
		cfg:    cfg,
		budget: b,
		cache:  NewCache(b),
		slots:  make(chan struct{}, cfg.MaxConcurrent),
		drain:  make(chan struct{}),
	}
}

// Cache exposes the graph cache (tests and the stats endpoint).
func (s *Service) Cache() *Cache { return s.cache }

// Stats returns a consistent-enough snapshot of the service counters.
func (s *Service) Stats() Stats {
	return Stats{
		Admitted:    s.admitted.Load(),
		Shed:        s.shed.Load(),
		Completed:   s.completed.Load(),
		Panics:      s.panics.Load(),
		Suspended:   s.suspended.Load(),
		Resumed:     s.resumed.Load(),
		Running:     s.running.Load(),
		Cache:       s.cache.Stats(),
		BudgetUsed:  s.budget.Used(),
		BudgetTotal: s.budget.Total(),
	}
}

// SubmitGraph parses a graph from r under the configured Limits, freezes
// it, and publishes it into the content-addressed cache, evicting idle
// graphs if the budget demands it. It returns the graph's id and node
// count. Resubmitting an identical graph is a cache hit returning the same
// id. Errors are typed: *graphio.LimitError for an over-limit submission,
// *OverloadError when the graph cannot be cached within the budget,
// *enum.PanicError for a contained panic.
func (s *Service) SubmitGraph(r io.Reader) (id GraphID, nodes int, err error) {
	defer s.contain(&err)
	g, err := graphio.ReadLimited(r, s.cfg.Limits)
	if err != nil {
		return GraphID{}, 0, err
	}
	id, err = s.cache.Put(g)
	if err != nil {
		return GraphID{}, 0, err
	}
	return id, g.N(), nil
}

// Enumerate runs one enumeration request, streaming every cut to visit
// exactly as the library would (the serial-order determinism contract holds
// unchanged — the service adds no reordering). It blocks in the admission
// queue when the service is saturated; a shed request fails fast with
// *OverloadError. A durable run interrupted by Shutdown returns
// *SuspendedError naming the parked snapshot.
func (s *Service) Enumerate(ctx context.Context, req Request, visit func(enum.Cut) bool) (stats enum.Stats, err error) {
	defer s.contain(&err)
	release, err := s.admit(ctx)
	if err != nil {
		return enum.Stats{}, err
	}
	defer release()
	return s.run(ctx, req, nil, visit)
}

// Resume continues a durable run parked by a previous Shutdown (possibly
// of a previous process). req.RunID names the snapshot; req.Graph and the
// semantic fields of req.Options must match the original request or the
// resume is refused with a *checkpoint.MismatchError. The visitor receives
// exactly the cuts the uninterrupted run would have delivered after the
// snapshot prefix.
func (s *Service) Resume(ctx context.Context, req Request, visit func(enum.Cut) bool) (stats enum.Stats, err error) {
	defer s.contain(&err)
	if !req.Durable || req.RunID == "" {
		return enum.Stats{}, fmt.Errorf("session: Resume requires a Durable request with a RunID")
	}
	path, err := s.snapshotPath(req.RunID)
	if err != nil {
		return enum.Stats{}, err
	}
	snap, err := checkpoint.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return enum.Stats{}, &NotFoundError{Kind: "run", ID: req.RunID}
		}
		return enum.Stats{}, err
	}
	if GraphID(snap.GraphHash) != req.Graph {
		return enum.Stats{}, &checkpoint.MismatchError{
			Field: "graph",
			Want:  GraphID(snap.GraphHash).String(),
			Got:   req.Graph.String(),
		}
	}
	release, err := s.admit(ctx)
	if err != nil {
		return enum.Stats{}, err
	}
	defer release()
	s.resumed.Add(1)
	return s.run(ctx, req, snap, visit)
}

// Select enumerates under req and runs instruction selection over the
// collected cuts — the end-to-end ISE identification flow as one request.
// The enumeration leg honors every budget exactly like Enumerate; the
// returned Stats describe it.
func (s *Service) Select(ctx context.Context, req Request, m ise.Model, sopt ise.SelectOptions) (sel ise.Selection, stats enum.Stats, err error) {
	defer s.contain(&err)
	release, err := s.admit(ctx)
	if err != nil {
		return ise.Selection{}, enum.Stats{}, err
	}
	defer release()
	req.Options.KeepCuts = true
	var cuts []enum.Cut
	stats, err = s.run(ctx, req, nil, func(c enum.Cut) bool {
		cuts = append(cuts, c)
		return true
	})
	if err != nil {
		return ise.Selection{}, stats, err
	}
	g, ok := s.cache.Acquire(req.Graph)
	if !ok {
		return ise.Selection{}, stats, &NotFoundError{Kind: "graph", ID: req.Graph.String()}
	}
	defer s.cache.Release(req.Graph)
	return ise.Select(g, m, cuts, sopt), stats, nil
}

// Shutdown drains the service: new admissions are refused, the drain
// channel stops every running enumeration at its next quiescent point
// (durable runs park a snapshot first), and Shutdown returns when the last
// run has released its slot or ctx expires. It is idempotent.
func (s *Service) Shutdown(ctx context.Context) error {
	if s.closing.CompareAndSwap(false, true) {
		close(s.drain)
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether Shutdown has begun.
func (s *Service) Draining() bool { return s.closing.Load() }

// admit implements admission control: it acquires an execution slot or
// fails with a typed error, never blocking past the bounded queue. On
// success it returns the slot-release func and registers the run with the
// drain group.
func (s *Service) admit(ctx context.Context) (func(), error) {
	if s.closing.Load() {
		return nil, &OverloadError{Cause: CauseShutdown}
	}
	if s.inflight.Add(1) > int64(s.cfg.QueueDepth)+int64(s.cfg.MaxConcurrent) {
		s.inflight.Add(-1)
		s.shed.Add(1)
		return nil, &OverloadError{Cause: CauseQueue, RetryAfter: s.cfg.RetryAfter}
	}
	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		s.inflight.Add(-1)
		return nil, ctx.Err()
	case <-s.drain:
		s.inflight.Add(-1)
		s.shed.Add(1)
		return nil, &OverloadError{Cause: CauseShutdown}
	}
	s.wg.Add(1)
	s.admitted.Add(1)
	s.running.Add(1)
	var once sync.Once
	release := func() {
		once.Do(func() {
			s.running.Add(-1)
			s.inflight.Add(-1)
			<-s.slots
			s.wg.Done()
		})
	}
	// The admission fault site fires with the slot held; a panic here must
	// release it or the injected fault leaks capacity forever.
	if h := faultinject.OnAdmission; h != nil {
		func() {
			defer func() {
				if r := recover(); r != nil {
					release()
					panic(r)
				}
			}()
			h()
		}()
	}
	return release, nil
}

// run executes one enumeration with the service budgets wired in; the
// caller holds an admission slot. snap non-nil resumes instead of starting.
func (s *Service) run(ctx context.Context, req Request, snap *checkpoint.Snapshot, visit func(enum.Cut) bool) (enum.Stats, error) {
	g, ok := s.cache.Acquire(req.Graph)
	if !ok {
		return enum.Stats{}, &NotFoundError{Kind: "graph", ID: req.Graph.String()}
	}
	defer s.cache.Release(req.Graph)

	opt := req.Options
	opt.Context = ctx
	opt.CheckpointStop = s.drain
	if s.cfg.StallTimeout > 0 && opt.StealStallTimeout == 0 {
		opt.StealStallTimeout = s.cfg.StallTimeout
	}

	opt.MaxCuts = req.MaxCuts
	if s.cfg.MaxCutsCeiling > 0 && (opt.MaxCuts == 0 || opt.MaxCuts > s.cfg.MaxCutsCeiling) {
		opt.MaxCuts = s.cfg.MaxCutsCeiling
	}
	if dl := req.Deadline; dl > 0 {
		opt.Deadline = time.Now().Add(dl)
	} else if s.cfg.DefaultDeadline > 0 {
		opt.Deadline = time.Now().Add(s.cfg.DefaultDeadline)
	}

	opt.CheckpointPath, opt.CheckpointEvery = "", 0
	if req.Durable {
		path, err := s.snapshotPath(req.RunID)
		if err != nil {
			return enum.Stats{}, err
		}
		opt.CheckpointPath = path
		opt.CheckpointEvery = req.CheckpointEvery
	}

	var stats enum.Stats
	if snap != nil {
		var err error
		stats, err = enum.ResumeEnumerate(g, opt, snap, visit)
		if err != nil && stats.StopReason != enum.StopCheckpoint {
			s.completed.Add(1)
			return stats, err
		}
	} else {
		stats = enum.Enumerate(g, opt, visit)
	}
	s.completed.Add(1)
	switch {
	case stats.Err != nil:
		return stats, stats.Err
	case stats.StopReason == enum.StopCheckpoint:
		s.suspended.Add(1)
		return stats, &SuspendedError{RunID: req.RunID, SnapshotPath: opt.CheckpointPath, Visited: stats.Valid}
	case stats.StopReason == enum.StopCanceled && ctx.Err() != nil:
		return stats, ctx.Err()
	}
	return stats, nil
}

// snapshotPath validates a run id and maps it into CheckpointDir. The
// character restriction is what keeps client-chosen ids from escaping the
// directory.
func (s *Service) snapshotPath(runID string) (string, error) {
	if s.cfg.CheckpointDir == "" {
		return "", fmt.Errorf("session: durable runs disabled (no CheckpointDir configured)")
	}
	if runID == "" {
		return "", fmt.Errorf("session: durable run requires a RunID")
	}
	for _, c := range runID {
		ok := c == '.' || c == '_' || c == '-' ||
			(c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !ok {
			return "", fmt.Errorf("session: run id %q: only [a-zA-Z0-9._-] allowed", runID)
		}
	}
	if strings.Trim(runID, ".") == "" {
		return "", fmt.Errorf("session: run id %q is not a file name", runID)
	}
	return filepath.Join(s.cfg.CheckpointDir, runID+".ckpt"), nil
}

// contain is the request-boundary panic barrier: it converts a panic in
// request handling (including injected faults at the session sites) into a
// *enum.PanicError on that request, keeping the process alive.
func (s *Service) contain(err *error) {
	if r := recover(); r != nil {
		s.panics.Add(1)
		*err = &enum.PanicError{Value: r, Stack: debug.Stack()}
	}
}
