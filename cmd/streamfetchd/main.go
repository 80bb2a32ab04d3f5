// Command streamfetchd serves the streamfetch simulation pipeline as a
// concurrent HTTP/JSON service: clients submit runs and grid sweeps,
// poll job status and progress, fetch final reports, and cancel jobs.
// Sessions are cached across requests, so repeated configurations skip
// workload, profile and layout preparation; the worker pool shares the
// process-wide simulation budget with intra-job shard workers, so
// concurrent jobs never oversubscribe the machine.
//
// Usage:
//
//	streamfetchd [-addr :8329] [-queue 64] [-workers 0] [-drain 60s]
//	             [-store-dir DIR] [-session-cache 64]
//	             [-max-job-time 1h] [-watchdog 2m]
//
// With -store-dir the daemon is durable: accepted jobs are journaled
// (fsync'd) before the 202, terminal results become content-addressed
// blobs, identical requests are answered from the cache or coalesced onto
// an in-flight twin, and a daemon restarted on the same directory
// re-enqueues unfinished journaled jobs and keeps serving finished ones.
// Without it the same caching and coalescing run on an in-memory store
// that dies with the process.
//
// Endpoints (see the streamfetch package docs and README for bodies):
//
//	POST   /v1/runs       submit one simulation
//	POST   /v1/sweeps     submit a benchmark × layout × engine × width grid
//	GET    /v1/runs/{id}  poll status/progress; carries the Report when done
//	DELETE /v1/runs/{id}  cancel
//	GET    /v1/engines    list engines, benchmarks and layouts
//	GET    /healthz       queue, worker, pool, store and SLO figures
//	GET    /metrics       the same figures as Prometheus text, plus stage latencies and uptime
//
// SLO scheduling: requests may carry priority (higher runs first) and
// deadline_ms. The daemon keeps an online cost model of simulation
// throughput per (engine, width, mode); a submission whose predicted
// completion — queue-delay estimate plus predicted execution time —
// cannot meet its deadline is shed up front with HTTP 422 and the
// prediction in the body, instead of being accepted only to fail.
// Accepted envelopes carry predicted_seconds and queue_delay_seconds,
// and terminal envelopes a per-stage timing breakdown
// (queue/prepare/warmup/measure/merge).
//
// On SIGINT/SIGTERM the daemon drains: new submissions get 503 while
// queued and in-flight jobs finish (bounded by -drain, after which they
// are cancelled — and, with -store-dir, re-enqueued by the next start),
// polls keep answering, then the process exits.
//
// Robustness: every job's execution time is capped by -max-job-time (a
// request's timeout_ms can tighten but not exceed it), -watchdog cancels
// jobs making no measurable progress, an engine panic fails only its own
// job, and a persistently failing store flips the daemon into degraded
// memory-only acceptance (visible on /healthz) instead of taking it
// down. The HTTP server itself carries header/read/write timeouts so a
// stuck client cannot pin a connection forever.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"streamfetch"
)

func main() {
	addr := flag.String("addr", ":8329", "listen address")
	queue := flag.Int("queue", 64, "bounded job queue depth (full queue: HTTP 429)")
	workers := flag.Int("workers", 0, "max concurrently executing jobs (0 = GOMAXPROCS)")
	drain := flag.Duration("drain", 60*time.Second, "graceful shutdown drain timeout")
	storeDir := flag.String("store-dir", "", "durable store directory: job journal + content-addressed result cache (empty = in-memory)")
	sessionCache := flag.Int("session-cache", 64, "prepared-session LRU capacity (must be positive)")
	maxJobTime := flag.Duration("max-job-time", time.Hour, "cap on any job's execution time (0 = unbounded); expired jobs fail with their partial report")
	watchdog := flag.Duration("watchdog", 2*time.Minute, "cancel jobs with no measurable progress for this long (0 = disabled)")
	flag.Parse()

	opts := []streamfetch.ServerOption{
		streamfetch.WithQueueDepth(*queue),
		streamfetch.WithWorkers(*workers),
		streamfetch.WithSessionCacheSize(*sessionCache),
		streamfetch.WithMaxJobTime(*maxJobTime),
		streamfetch.WithWatchdog(*watchdog),
	}
	if *storeDir != "" {
		opts = append(opts, streamfetch.WithStoreDir(*storeDir))
	}
	srv, err := streamfetch.NewServer(opts...)
	if err != nil {
		log.Fatalf("streamfetchd: %v", err)
	}
	hs := &http.Server{
		Addr:    *addr,
		Handler: srv.Handler(),
		// A client that stalls mid-headers or never reads its response
		// must not pin a connection (and its goroutine) forever. Writes
		// get the long budget: a sweep report can be large and a poll can
		// land on a loaded box.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	storeDesc := "in-memory store"
	if *storeDir != "" {
		storeDesc = "store " + *storeDir
	}
	log.Printf("streamfetchd listening on %s (queue %d, workers flag %d, %s)",
		*addr, *queue, *workers, storeDesc)

	select {
	case err := <-errc:
		log.Fatalf("streamfetchd: %v", err)
	case <-ctx.Done():
		stop() // a second signal kills the process the default way
	}

	log.Printf("streamfetchd draining (up to %s); new submissions get 503", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		log.Printf("streamfetchd: drain cut short: %v", err)
	}
	// Jobs are done (or cancelled); now close the listener and let
	// straggling poll responses flush.
	hctx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer hcancel()
	if err := hs.Shutdown(hctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("streamfetchd: http shutdown: %v", err)
	}
	log.Printf("streamfetchd stopped")
}
