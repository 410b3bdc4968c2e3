// Command polyised serves the polyise enumeration engine over HTTP:
// enumeration-as-a-service with content-addressed graph caching, a global
// memory budget, admission control with load shedding, per-request
// deadlines and budgets, and graceful shutdown that parks durable runs as
// resumable checkpoints.
//
//	polyised -addr :8080 -budget 256MiB -checkpoint-dir /var/lib/polyised
//
//	# submit a graph (text format), then enumerate it
//	ID=$(curl -s --data-binary @block.dfg localhost:8080/v1/graphs | jq -r .id)
//	curl -s "localhost:8080/v1/graphs/$ID/enumerate?nin=4&nout=2&max_cuts=1000"
//
// A first SIGINT/SIGTERM drains: running enumerations stop at their next
// quiescent point, durable runs (run=<id> requests) write a snapshot that a
// restarted server resumes bit-exactly via POST .../resume?run=<id>. A
// second signal exits immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"polyise/internal/graphio"
	"polyise/internal/session"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		budget     = flag.String("budget", "0", "memory budget for cached graphs (bytes; suffixes KiB/MiB/GiB; 0 = unlimited)")
		maxConc    = flag.Int("max-concurrent", 0, "max concurrent enumerations (0 = GOMAXPROCS)")
		queueDepth = flag.Int("queue", 0, "admission queue depth beyond the slot pool (0 = slot count)")
		ckptDir    = flag.String("checkpoint-dir", "", "directory for durable run snapshots (empty disables durable runs)")
		maxNodes   = flag.Int("max-nodes", 100000, "graph submission cap: nodes (0 = unlimited)")
		maxPreds   = flag.Int("max-preds", 1024, "graph submission cap: operands per node (0 = unlimited)")
		maxLine    = flag.Int("max-line", 1<<16, "graph submission cap: bytes per line (0 = unlimited)")
		deadline   = flag.Duration("default-deadline", 0, "deadline applied to requests that set none (0 = none)")
		maxCuts    = flag.Int("max-cuts-ceiling", 0, "hard cap on any request's max_cuts (0 = none)")
		writeTO    = flag.Duration("write-timeout", 30*time.Second, "per-write deadline for streamed responses")
		drainTO    = flag.Duration("drain-timeout", time.Minute, "how long shutdown waits for in-flight runs")
	)
	flag.Parse()

	budgetBytes, err := parseBytes(*budget)
	if err != nil {
		log.Fatalf("polyised: -budget: %v", err)
	}
	svc := session.NewService(session.Config{
		MaxConcurrent:   *maxConc,
		QueueDepth:      *queueDepth,
		MemoryBudget:    budgetBytes,
		Limits:          graphio.Limits{MaxNodes: *maxNodes, MaxPreds: *maxPreds, MaxLineBytes: *maxLine},
		DefaultDeadline: *deadline,
		MaxCutsCeiling:  *maxCuts,
		CheckpointDir:   *ckptDir,
	})
	srv := newServer(*addr, session.NewHandler(svc, session.HandlerConfig{WriteTimeout: *writeTO}))

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		log.Printf("polyised: draining (in-flight runs stop at their next quiescent point; durable runs park)")
		go func() {
			<-sigs
			log.Printf("polyised: second signal, exiting now")
			os.Exit(130)
		}()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			log.Printf("polyised: drain incomplete: %v", err)
		}
		srv.Shutdown(ctx)
	}()

	log.Printf("polyised: listening on %s (budget=%s, checkpoint-dir=%q)", *addr, *budget, *ckptDir)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatalf("polyised: %v", err)
	}
}

// How long a connection may take to send a request's headers, and how
// long a kept-alive connection may wait for its next request. Neither is
// a flag: a client that needs longer is holding a goroutine and a file
// descriptor outside the admission pool. Streamed responses are bounded
// by -write-timeout instead.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newServer builds the HTTP server for handler h on addr.
func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// parseBytes reads "0", "1048576", "256KiB", "1MiB", "2GiB".
func parseBytes(s string) (int64, error) {
	mult := int64(1)
	upper := strings.ToUpper(strings.TrimSpace(s))
	for suffix, m := range map[string]int64{"KIB": 1 << 10, "MIB": 1 << 20, "GIB": 1 << 30} {
		if strings.HasSuffix(upper, suffix) {
			mult, upper = m, strings.TrimSuffix(upper, suffix)
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(upper), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad byte count %q", s)
	}
	return n * mult, nil
}
