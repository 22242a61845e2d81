// Command ipusimd runs the experiment service: a long-running HTTP/JSON
// daemon that accepts simulation jobs (single runs, sweep cells, matrices,
// sensitivity sweeps), executes them on a bounded worker pool backed by
// the precondition-snapshot cache, and exposes job lifecycle endpoints
// plus a live progress stream.
//
// Usage:
//
//	ipusimd [-addr :8077] [-workers N] [-queue 64] [-timeout 10m]
//	        [-drain 30s] [-scale 0.05] [-maxjobs 1024] [-cache 256]
//	        [-data DIR] [-coordinator URL,URL,...]
//
// With -data the daemon is durable: job records and results persist under
// DIR (atomic write-then-rename), a restarted daemon serves completed
// results from disk and re-enqueues interrupted jobs, which re-run to
// bit-identical output. With -coordinator the daemon routes every job to
// the listed worker daemons by consistent hashing — a run or cell as one
// sub-job, a matrix, sensitivity or contention sweep as one sub-job per
// cell — follows each on the worker's progress stream and assembles the
// same response a single daemon produces; a failed worker is dropped
// from the ring and its sub-jobs are re-placed or, with no worker left,
// run locally.
//
// -workers bounds the simulations a daemon runs in-process at once,
// whatever its kind. A plain daemon also runs at most -workers jobs at
// once; a coordinator holds up to -queue jobs waiting on the fleet.
//
// Endpoints (see internal/server):
//
//	GET  /healthz               liveness probe
//	GET  /v1/schemes            registered scheme names
//	GET  /v1/stats              service counters
//	GET  /v1/cluster            coordinator fleet view
//	GET  /v1/jobs               list jobs
//	POST /v1/jobs               submit a job
//	GET  /v1/jobs/{id}          job status
//	POST /v1/jobs/{id}/cancel   cancel a job
//	GET  /v1/jobs/{id}/result   result of a finished job
//	GET  /v1/jobs/{id}/stream   live progress (server-sent events)
//
// On SIGINT/SIGTERM the daemon stops accepting jobs, drains in-flight
// work for up to -drain, then cancels whatever remains and exits (a
// durable daemon persists the cancelled jobs as queued, so the next start
// resumes them).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ipusim/internal/server"
)

func main() {
	var (
		addr    = flag.String("addr", ":8077", "listen address")
		workers = flag.Int("workers", 0, "concurrent in-process simulations (default GOMAXPROCS), and on a plain daemon concurrent jobs")
		queue   = flag.Int("queue", 64, "bounded job queue capacity (full queue returns 429)")
		timeout = flag.Duration("timeout", 10*time.Minute, "default per-job wall-clock timeout")
		drain   = flag.Duration("drain", 30*time.Second, "shutdown drain budget before in-flight jobs are cancelled")
		scale   = flag.Float64("scale", 0.05, "default trace scale for jobs that omit it")
		maxJobs = flag.Int("maxjobs", 1024, "retained job records (older terminal jobs are evicted)")
		cache   = flag.Int("cache", 256, "in-memory result cache capacity (entries)")
		data    = flag.String("data", "", "data directory for durable jobs and results (empty = in-memory only)")
		coord   = flag.String("coordinator", "", "comma-separated worker base URLs; every job is placed on them, sweeps cell by cell")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts := server.Options{
		Workers:      *workers,
		QueueCap:     *queue,
		JobTimeout:   *timeout,
		DefaultScale: *scale,
		MaxJobs:      *maxJobs,
		CacheCap:     *cache,
		DataDir:      *data,
		WorkerURLs:   splitURLs(*coord),
	}
	if err := run(ctx, *addr, opts, *drain, nil); err != nil {
		fmt.Fprintln(os.Stderr, "ipusimd:", err)
		os.Exit(1)
	}
}

// splitURLs parses the -coordinator flag: comma-separated worker base
// URLs, empty segments and surrounding whitespace ignored.
func splitURLs(s string) []string {
	var urls []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}
	return urls
}

// run serves until ctx is cancelled (the signal context in production) or
// the listener fails. A non-nil ready receives the bound address once the
// daemon is listening — the test hook for -addr :0.
func run(ctx context.Context, addr string, opts server.Options, drain time.Duration, ready chan<- string) error {
	svc, err := server.Open(opts)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		// The service already started its workers; stop them before failing.
		stopCtx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		svc.Shutdown(stopCtx)
		return err
	}
	mode := "worker pool"
	if len(opts.WorkerURLs) > 0 {
		mode = fmt.Sprintf("coordinator over %d workers", len(opts.WorkerURLs))
	}
	log.Printf("ipusimd: serving on %s (%s, workers %d, queue %d)",
		ln.Addr(), mode, svc.Stats().Workers, svc.Stats().QueueCap)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	log.Printf("ipusimd: shutting down (drain %v)", drain)

	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	// Drain jobs first so in-flight work finishes (or is cancelled at the
	// deadline), then close the HTTP listener: streams of finishing jobs
	// stay readable during the drain.
	svcErr := svc.Shutdown(drainCtx)
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if svcErr != nil {
		log.Printf("ipusimd: drain cut short: %v (in-flight jobs cancelled)", svcErr)
	}
	log.Printf("ipusimd: bye")
	return nil
}
