// The streamfetchd HTTP/JSON surface: long-lived service access to the
// session API, so preparation (program synthesis, profiling, layouts,
// decode tables) is paid once per configuration and amortized across many
// requests, the way a serving deployment would want it.
//
//	POST   /v1/runs        submit one simulation        → 202 JobEnvelope (200 on cache hit)
//	POST   /v1/sweeps      submit a grid sweep          → 202 JobEnvelope (200 on cache hit)
//	GET    /v1/runs/{id}   poll any job                 → 200 JobEnvelope
//	DELETE /v1/runs/{id}   cancel a job                 → 200 JobEnvelope
//	GET    /v1/engines     axes: engines, benchmarks, layouts
//	GET    /healthz        queue, worker, pool, store and SLO figures (Health)
//	GET    /metrics        the same figures, stage latencies and uptime as Prometheus text
//
// (/v1/sweeps/{id} is an alias for /v1/runs/{id}: every job lives in one
// registry.) Submissions during shutdown get 503, a full queue 429, a
// deadline the server predicts it cannot meet 422 (the body carries the
// prediction; see RunRequest.DeadlineMS), and all carry a JSON
// {"error": ...} body.
//
// Runs are deterministic for a fixed configuration and seed, so the
// service answers repeats instead of recomputing them: a submission whose
// normalized request matches an in-flight job coalesces onto it (same job
// id, one simulation, shared result — cancelling it cancels for every
// submitter), and one matching a stored terminal result is answered
// immediately from the content-addressed cache (a fresh terminal job, 200,
// Cached set, never enqueued). With a filesystem store (WithStoreDir)
// accepted jobs are journaled durably before the 202: a restarted daemon
// re-enqueues journaled unfinished jobs and keeps serving terminal ones
// from disk.
package streamfetch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"streamfetch/internal/metrics"
	"streamfetch/internal/store"
)

// Server is the streamfetchd service: a job queue, a worker pool, a
// session cache and a durability store behind an http.Handler. Create
// with NewServer, mount Handler, and Shutdown to drain.
type Server struct {
	mgr *jobManager
	mux *http.ServeMux
}

// NewServer builds a service instance and starts its worker pool,
// recovering any journaled state from the configured store first: jobs
// journaled as accepted but never finished are re-enqueued, terminal jobs
// keep serving their results. The store is, in precedence order, the one
// installed by WithStore, a filesystem store at the WithStoreDir path, a
// filesystem store in a fresh subdirectory of $STREAMFETCH_STORE_DIR
// (a testing knob that exercises the durable backend without sharing
// state between servers), or an in-memory store.
func NewServer(opts ...ServerOption) (*Server, error) {
	// The one place the defaults live; an option given 0 keeps them.
	cfg := serverConfig{
		queueDepth: 64,
		workers:    runtime.GOMAXPROCS(0),
		retainJobs: 1024,
		sessionCap: maxCachedSessions,
		probeEvery: 2 * time.Second,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.err != nil {
		return nil, cfg.err
	}
	st, ownStore, err := openStore(&cfg)
	if err != nil {
		return nil, err
	}
	mgr, err := newJobManager(cfg, st, ownStore)
	if err != nil {
		if ownStore {
			st.Close()
		}
		return nil, err
	}
	s := &Server{mgr: mgr}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/runs", handleSubmit(mgr.submitRun))
	s.mux.HandleFunc("POST /v1/sweeps", handleSubmit(mgr.submitSweep))
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleGet)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/runs/{id}", s.handleCancel)
	s.mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/engines", s.handleEngines)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// openStore resolves the configured durability backend. The second
// return reports ownership: a store the server opened itself is closed at
// shutdown, one installed via WithStore belongs to the caller.
func openStore(cfg *serverConfig) (store.Store, bool, error) {
	switch {
	case cfg.store != nil:
		return cfg.store, false, nil
	case cfg.storeDir != "":
		st, err := store.Open(cfg.storeDir)
		if err != nil {
			return nil, false, err
		}
		return st, true, nil
	}
	if dir := os.Getenv("STREAMFETCH_STORE_DIR"); dir != "" {
		// Testing knob: exercise the filesystem backend for every server
		// without sharing journals (and job ids) between them — each
		// server gets a fresh subdirectory. Restart/resume needs a stable
		// path: use WithStoreDir.
		if err := os.MkdirAll(dir, 0o777); err != nil {
			return nil, false, fmt.Errorf("streamfetch: store dir: %w", err)
		}
		sub, err := os.MkdirTemp(dir, "streamfetchd-*")
		if err != nil {
			return nil, false, fmt.Errorf("streamfetch: store dir: %w", err)
		}
		st, err := store.Open(sub)
		if err != nil {
			return nil, false, err
		}
		return st, true, nil
	}
	return store.NewMem(), true, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains the service: new submissions are rejected with 503
// immediately, queued and in-flight jobs run to completion, and every
// worker goroutine exits before return. If ctx expires first, remaining
// jobs are cancelled (they finish as cancelled, releasing their pool
// tokens) and ctx's error is returned once the workers have unwound.
// Polling endpoints keep answering throughout, so clients can collect
// results while the service drains.
func (s *Server) Shutdown(ctx context.Context) error { return s.mgr.shutdown(ctx) }

// Health is the GET /healthz body: liveness plus the saturation figures
// that matter for capacity (queue fill and par-pool usage). It is also
// the /metrics table: every numeric field is a Prometheus sample, named
// with its type and labels by its metric tag and described by its help
// tag, and each scrape of either endpoint renders one snapshot. A new
// figure is one tagged field; the stage histograms and the uptime are
// the only samples kept elsewhere.
type Health struct {
	Status string `json:"status"` // "ok" or "draining"
	// QueueDepth is the admission queue's occupancy: queued jobs plus
	// submissions holding a slot while being admitted. At QueueCap new
	// submissions are refused and the probe answers 503.
	QueueDepth int `json:"queue_depth" metric:"streamfetch_queue_depth,gauge" help:"Admission queue occupancy: queued jobs plus submissions being admitted."`
	QueueCap   int `json:"queue_cap" metric:"streamfetch_queue_capacity,gauge" help:"Admission queue capacity."`
	Workers    int `json:"workers" metric:"streamfetch_workers,gauge" help:"Concurrent job execution cap."`

	// The SLO surface: PredictedBacklogSeconds sums the cost model's
	// predicted execution work-seconds over queued and running jobs;
	// QueueDelaySeconds spreads that over the workers — the wait a new
	// submission should expect, and the figure admission control holds
	// against deadline_ms. JobsShed counts submissions rejected up front
	// as deadline-infeasible. SLOPredictionErrorRatio is the EWMA of the
	// model's relative error over finished predicted jobs (0 until the
	// first): how much to trust predicted_seconds.
	PredictedBacklogSeconds float64 `json:"predicted_backlog_seconds" metric:"streamfetch_predicted_backlog_seconds,gauge" help:"Sum of predicted execution work-seconds over queued and running jobs."`
	QueueDelaySeconds       float64 `json:"queue_delay_seconds" metric:"streamfetch_queue_delay_seconds,gauge" help:"Predicted wait a new submission sees: backlog work spread over the workers."`
	JobsShed                int64   `json:"jobs_shed,omitempty" metric:"streamfetch_shed_total,counter" help:"Submissions shed at admission as deadline-infeasible."`
	SLOPredictionErrorRatio float64 `json:"slo_prediction_error_ratio" metric:"streamfetch_slo_prediction_error_ratio,gauge" help:"EWMA of |actual-predicted|/predicted execution time over finished predicted jobs."`

	JobsQueued   int `json:"jobs_queued" metric:"streamfetch_jobs,gauge,state=queued" help:"Jobs in the registry by state."`
	JobsRunning  int `json:"jobs_running" metric:"streamfetch_jobs,gauge,state=running" help:"Jobs in the registry by state."`
	JobsFinished int `json:"jobs_finished" metric:"streamfetch_jobs,gauge,state=terminal" help:"Jobs in the registry by state."`

	Sessions   int `json:"sessions" metric:"streamfetch_sessions_cached,gauge" help:"Prepared sessions held by the LRU cache, one per benchmark and training input."`
	SessionCap int `json:"session_cap" metric:"streamfetch_sessions_capacity,gauge" help:"Prepared-session LRU capacity."`

	// ParInUse is the claimed extra-worker tokens of the process-wide
	// simulation pool; ParBudget its capacity (GOMAXPROCS-1 by default).
	// Total simulation concurrency is at most ParInUse+1.
	ParInUse  int `json:"par_in_use" metric:"streamfetch_par_tokens_in_use,gauge" help:"Claimed extra-worker tokens of the process-wide simulation pool."`
	ParBudget int `json:"par_budget" metric:"streamfetch_par_tokens_budget,gauge" help:"Extra-worker token capacity of the process-wide simulation pool."`

	// The durability/cache surface. Store names the backend ("mem",
	// "fs"); StoreHits counts submissions answered from the
	// content-addressed result cache without enqueuing a simulation,
	// StoreMisses submissions that enqueued one, and StoreCoalesced
	// submissions folded into an identical in-flight job (one
	// simulation, shared result). StoreJournalDepth is the journaled
	// jobs not yet terminal (what a restart would re-enqueue),
	// StoreBlobs/StoreBytes the cached results and the store's total
	// footprint on disk (or in memory for the "mem" backend).
	// StoreErrors counts store writes that failed after exhausting the
	// retry policy (or whose record could not be encoded), StoreRetries
	// the individual retry attempts behind them; serving continues,
	// durability is degraded. A failing store.Stats read is not a write
	// error: it zeroes StoreJournalDepth, StoreBlobs and StoreBytes.
	Store             string `json:"store"`
	StoreHits         int64  `json:"store_hits" metric:"streamfetch_cache_hits_total,counter" help:"Submissions answered from the content-addressed result cache."`
	StoreMisses       int64  `json:"store_misses" metric:"streamfetch_cache_misses_total,counter" help:"Submissions that enqueued a simulation."`
	StoreCoalesced    int64  `json:"store_coalesced" metric:"streamfetch_coalesced_total,counter" help:"Submissions folded onto an identical in-flight job."`
	StoreJournalDepth int    `json:"store_journal_depth" metric:"streamfetch_store_journal_depth,gauge" help:"Journaled jobs not yet terminal: what a restart would re-enqueue."`
	StoreBlobs        int    `json:"store_blobs" metric:"streamfetch_store_blobs,gauge" help:"Results held by the content-addressed store."`
	StoreBytes        int64  `json:"store_bytes" metric:"streamfetch_store_bytes,gauge" help:"Store footprint in bytes, on disk or in memory."`
	StoreErrors       int64  `json:"store_errors,omitempty" metric:"streamfetch_store_errors_total,counter" help:"Store writes that failed after exhausting retries."`
	StoreRetries      int64  `json:"store_retries,omitempty" metric:"streamfetch_store_retries_total,counter" help:"Individual store-write retry attempts."`

	// Warm-state checkpointing (summed over executed jobs that ran with
	// checkpoints): CheckpointHits counts trace intervals that restored
	// their warm state from the store in O(state), CheckpointMisses
	// intervals that functionally replayed their prefix and published a
	// checkpoint for the next run. A warming hit rate near 1 means the
	// O(shards × prefix) term is gone for the current workload mix.
	CheckpointHits   int64 `json:"checkpoint_hits,omitempty" metric:"streamfetch_checkpoint_hits_total,counter" help:"Warm-state checkpoint restores across executed jobs."`
	CheckpointMisses int64 `json:"checkpoint_misses,omitempty" metric:"streamfetch_checkpoint_misses_total,counter" help:"Intervals that warmed functionally and published a checkpoint."`

	// Degraded mode: StoreDegraded reports that store writes are
	// persistently failing and the server has fallen back to memory-only
	// acceptance — submissions succeed but do not survive a restart, and
	// a background probe keeps testing the store until a write lands.
	// StoreLastError/StoreLastErrorTime describe the most recent failure
	// (kept after recovery as forensics; StoreDegraded says whether it is
	// still happening).
	StoreDegraded      bool      `json:"store_degraded,omitempty" metric:"streamfetch_store_degraded,gauge" help:"1 while the store is degraded (journal writes failing), else 0."`
	StoreLastError     string    `json:"store_last_error,omitempty"`
	StoreLastErrorTime time.Time `json:"store_last_error_time,omitzero"`
}

// handleHealthz serves the health snapshot. Only saturation fails the
// probe: a full queue means new work has nowhere to go, so load
// balancers should back off. A degraded store is reported but keeps the
// 200 — the server is still serving.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.mgr.health()
	code := http.StatusOK
	if h.QueueDepth >= h.QueueCap {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

// handleMetrics serves the Prometheus text exposition of the health
// snapshot plus the per-stage latency histograms and the uptime.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metrics.ContentType)
	// A failed write means the scraper went away; there is no one to tell.
	_, _ = s.mgr.writeMetrics(w, s.mgr.health())
}

func (s *Server) handleEngines(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Engines    []string `json:"engines"`
		Benchmarks []string `json:"benchmarks"`
		Layouts    []string `json:"layouts"`
	}{Engines(), Benchmarks(), Layouts()})
}

// handleSubmit serves one submission route: the body decodes strictly as
// the route's request type R, and submit accepts or refuses it. The
// status is 202 for a job that still has work ahead of it (fresh or
// coalesced onto an in-flight twin), 200 for a store-cache hit whose
// envelope already carries the terminal result.
func handleSubmit[R any](submit func(R) (*job, *JobEnvelope, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req R
		if !decodeBody(w, r, &req) {
			return
		}
		_, env, err := submit(req)
		if err != nil {
			writeSubmitError(w, err)
			return
		}
		code := http.StatusAccepted
		if env.Cached {
			code = http.StatusOK
		}
		writeJSON(w, code, env)
	}
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j := s.mgr.get(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, errors.New("unknown job id"))
		return
	}
	writeJSON(w, http.StatusOK, j.envelope())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.mgr.get(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, errors.New("unknown job id"))
		return
	}
	s.mgr.cancelJob(j)
	writeJSON(w, http.StatusOK, j.envelope())
}

// submitStatus maps a submission error to its HTTP status: shutdown 503,
// backpressure 429, an infeasible deadline 422, a failed durability
// write 500, anything else a client error.
func submitStatus(err error) int {
	var inf *InfeasibleError
	switch {
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.As(err, &inf):
		return http.StatusUnprocessableEntity
	case errors.Is(err, ErrStore):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// writeSubmitError renders a submission rejection. A deadline-infeasible
// shed carries the server's prediction alongside the error, so the
// client can resubmit with a feasible deadline (or drop the request)
// without a second round trip.
func writeSubmitError(w http.ResponseWriter, err error) {
	var inf *InfeasibleError
	if errors.As(err, &inf) {
		writeJSON(w, http.StatusUnprocessableEntity, struct {
			Error string `json:"error"`
			*InfeasibleError
		}{err.Error(), inf})
		return
	}
	writeError(w, submitStatus(err), err)
}

// decodeBody strictly decodes a JSON request body, rejecting unknown
// fields so config typos fail loudly instead of silently running defaults.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// A failed write means the client went away; there is no one to tell.
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, struct {
		Error string `json:"error"`
	}{err.Error()})
}
