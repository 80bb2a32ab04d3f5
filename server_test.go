package streamfetch_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamfetch"
	"streamfetch/internal/par"
	"streamfetch/internal/store"
)

// newTestServer builds a Server, failing the test on configuration
// errors.
func newTestServer(t *testing.T, opts ...streamfetch.ServerOption) *streamfetch.Server {
	t.Helper()
	srv, err := streamfetch.NewServer(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// serviceClient wraps an httptest server with JSON helpers.
type serviceClient struct {
	t  *testing.T
	ts *httptest.Server
	c  *http.Client
}

func newServiceClient(t *testing.T, srv *streamfetch.Server) *serviceClient {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &serviceClient{t: t, ts: ts, c: ts.Client()}
}

// do issues one request, decodes the JSON response into out (when non-nil)
// and returns the status code.
func (sc *serviceClient) do(method, path string, body, out any) int {
	sc.t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			sc.t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, sc.ts.URL+path, rd)
	if err != nil {
		sc.t.Fatal(err)
	}
	resp, err := sc.c.Do(req)
	if err != nil {
		sc.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			sc.t.Fatalf("%s %s: decoding response: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

// submit posts a job and asserts 202.
func (sc *serviceClient) submit(path string, req any) *streamfetch.JobEnvelope {
	sc.t.Helper()
	var env streamfetch.JobEnvelope
	if code := sc.do("POST", path, req, &env); code != http.StatusAccepted {
		sc.t.Fatalf("POST %s: status %d, want 202", path, code)
	}
	if env.ID == "" || env.State != streamfetch.JobQueued {
		sc.t.Fatalf("submit envelope: %+v", env)
	}
	return &env
}

// await polls a job until it reaches a terminal state.
func (sc *serviceClient) await(id string, timeout time.Duration) *streamfetch.JobEnvelope {
	sc.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var env streamfetch.JobEnvelope
		if code := sc.do("GET", "/v1/runs/"+id, nil, &env); code != http.StatusOK {
			sc.t.Fatalf("GET /v1/runs/%s: status %d", id, code)
		}
		if env.State.Terminal() {
			return &env
		}
		if time.Now().After(deadline) {
			sc.t.Fatalf("job %s still %s after %s", id, env.State, timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// reportJSON renders a report exactly as the golden tests do. Stage
// timings are wall-clock telemetry the daemon adds, not results: strip
// them so byte-identity comparisons see only the model's output.
func reportJSON(t *testing.T, rep *streamfetch.Report) []byte {
	t.Helper()
	if rep == nil {
		t.Fatal("nil report")
	}
	clone := *rep
	clone.Timings = nil
	rep = &clone
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServiceDifferentialOracle: for a grid of configurations — including
// a sharded one — the Report that comes back through the HTTP service is
// byte-identical to Session.RunWith called directly with the same seed.
// The service must add routing, queueing and concurrency, never model
// drift.
func TestServiceDifferentialOracle(t *testing.T) {
	srv := newTestServer(t, streamfetch.WithQueueDepth(8), streamfetch.WithWorkers(2))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	sc := newServiceClient(t, srv)

	cases := []streamfetch.RunRequest{
		{Benchmark: "164.gzip", Engine: "streams", Layout: "optimized", Width: 8, Insts: 300_000},
		{Benchmark: "164.gzip", Engine: "ev8", Layout: "base", Width: 4, Insts: 300_000},
		{Benchmark: "175.vpr", Engine: "tcache", Layout: "optimized", Width: 8, Insts: 200_000, MaxInsts: 150_000},
		{Benchmark: "164.gzip", Engine: "streams", Layout: "base", Width: 8, Insts: 400_000,
			Shards: 3, Warmup: 20_000},
	}
	for _, req := range cases {
		req := req
		name := fmt.Sprintf("%s/%s/%s/w%d/shards%d", req.Benchmark, req.Engine, req.Layout, req.Width, req.Shards)
		t.Run(name, func(t *testing.T) {
			env := sc.submit("/v1/runs", req)
			got := sc.await(env.ID, 3*time.Minute)
			if got.State != streamfetch.JobDone {
				t.Fatalf("job finished %s (error %q), want done", got.State, got.Error)
			}
			if got.StartedAt.IsZero() || got.FinishedAt.IsZero() || got.EnqueuedAt.IsZero() {
				t.Errorf("missing timings in terminal envelope: %+v", got)
			}

			direct := streamfetch.New(req.Benchmark, streamfetch.WithInstructions(req.Insts))
			opts := []streamfetch.Option{
				streamfetch.WithEngine(req.Engine),
				streamfetch.WithLayout(req.Layout),
				streamfetch.WithWidth(req.Width),
			}
			if req.MaxInsts > 0 {
				opts = append(opts, streamfetch.WithMaxInstructions(req.MaxInsts))
			}
			if req.Shards > 0 {
				opts = append(opts, streamfetch.WithShards(req.Shards))
			}
			if req.Warmup > 0 {
				opts = append(opts, streamfetch.WithWarmup(req.Warmup))
			}
			if req.Warmup > 0 && req.Shards > 1 {
				// The service runs warmed sharded jobs with warm-state
				// checkpoints against its store; mirror that (on a fresh
				// store, so the same all-miss pattern) for byte-identity.
				opts = append(opts, streamfetch.WithCheckpoints(store.NewMem()))
			}
			want, err := direct.RunWith(context.Background(), opts...)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := reportJSON(t, got.Report), reportJSON(t, want); !bytes.Equal(g, w) {
				t.Errorf("service report diverged from direct run\nservice:\n%s\ndirect:\n%s", g, w)
			}
		})
	}
}

// TestServiceSweepOracle: sweep cells carry the same reports a direct
// session run produces, cell for cell.
func TestServiceSweepOracle(t *testing.T) {
	srv := newTestServer(t)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	sc := newServiceClient(t, srv)

	req := streamfetch.SweepRequest{
		Benchmarks: []string{"164.gzip"},
		Layouts:    []string{"base", "optimized"},
		Engines:    []string{"streams"},
		Widths:     []int{4},
		Insts:      200_000,
	}
	env := sc.submit("/v1/sweeps", req)
	got := sc.await(env.ID, 3*time.Minute)
	if got.State != streamfetch.JobDone {
		t.Fatalf("sweep finished %s (error %q), want done", got.State, got.Error)
	}
	if len(got.Cells) != 2 {
		t.Fatalf("sweep returned %d cells, want 2", len(got.Cells))
	}
	if got.Progress == nil || got.Progress.CellsDone != 2 || got.Progress.CellsTotal != 2 {
		t.Errorf("sweep progress = %+v, want 2/2 cells", got.Progress)
	}
	direct := streamfetch.New("164.gzip", streamfetch.WithInstructions(req.Insts))
	for _, cell := range got.Cells {
		want, err := direct.RunWith(context.Background(),
			streamfetch.WithEngine(cell.Engine),
			streamfetch.WithLayout(cell.Layout),
			streamfetch.WithWidth(cell.Width),
		)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := reportJSON(t, cell.Report), reportJSON(t, want); !bytes.Equal(g, w) {
			t.Errorf("cell %s/%s diverged from direct run", cell.Layout, cell.Engine)
		}
	}
}

// TestServiceBackpressureAndCancel: a full queue answers 429, cancelling a
// queued job keeps it from running, and cancelling a running job stops it
// promptly with its partial report marked aborted.
func TestServiceBackpressureAndCancel(t *testing.T) {
	srv := newTestServer(t, streamfetch.WithQueueDepth(1), streamfetch.WithWorkers(1))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	sc := newServiceClient(t, srv)

	long := streamfetch.RunRequest{Benchmark: "164.gzip", Engine: "streams", Insts: 500_000_000}
	running := sc.submit("/v1/runs", long)
	// Wait for the dispatcher to pop it (empty queue) AND for the sim to
	// make measurable progress, so the later cancellation lands mid-run.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var env streamfetch.JobEnvelope
		sc.do("GET", "/v1/runs/"+running.ID, nil, &env)
		if env.State == streamfetch.JobRunning && env.Progress != nil && env.Progress.Retired > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never made progress (state %s)", running.ID, env.State)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Fill the pending capacity until the queue pushes back. The depth-1
	// queue plus the dispatcher's single placement slot (it may have
	// popped one job it cannot place yet) bound acceptance at two more
	// submissions; the 429 must arrive by the third.
	var pending []string
	var errBody struct {
		Error string `json:"error"`
	}
	got429 := false
	for i := 0; i < 3 && !got429; i++ {
		// Distinct seeds: identical bodies would coalesce onto the
		// running job instead of exercising the queue.
		fill := long
		fill.Seed = uint64(1 + i)
		var env streamfetch.JobEnvelope
		switch code := sc.do("POST", "/v1/runs", fill, &env); code {
		case http.StatusAccepted:
			pending = append(pending, env.ID)
			// Let the dispatcher pull at most one into its placement slot.
			time.Sleep(50 * time.Millisecond)
		case http.StatusTooManyRequests:
			got429 = true
		default:
			t.Fatalf("submission %d: status %d", i, code)
		}
	}
	if !got429 {
		t.Fatalf("queue never pushed back: %d pending submissions all accepted", len(pending))
	}
	// The queue is still full: issue one more distinct submission to check
	// the 429 carries a JSON error body.
	refill := long
	refill.Seed = 77
	if code := sc.do("POST", "/v1/runs", refill, &errBody); code != http.StatusTooManyRequests {
		t.Fatalf("refill submission: status %d, want 429", code)
	}
	if errBody.Error == "" {
		t.Error("429 carried no error body")
	}

	// Cancel the pending jobs: with the single worker slot occupied by
	// the running job, none of them may ever start.
	var env streamfetch.JobEnvelope
	for _, id := range pending {
		if code := sc.do("DELETE", "/v1/runs/"+id, nil, &env); code != http.StatusOK {
			t.Fatalf("DELETE pending %s: status %d", id, code)
		}
		got := sc.await(id, 10*time.Second)
		if got.State != streamfetch.JobCancelled {
			t.Fatalf("cancelled pending job state = %s", got.State)
		}
		if !got.StartedAt.IsZero() {
			t.Error("cancelled pending job has a start time; it must never run")
		}
	}

	// Cancel the running 500M-instruction job: it must stop long before
	// the simulation could finish, keeping its partial aborted report.
	if code := sc.do("DELETE", "/v1/runs/"+running.ID, nil, &env); code != http.StatusOK {
		t.Fatalf("DELETE running: status %d", code)
	}
	got := sc.await(running.ID, 30*time.Second)
	if got.State != streamfetch.JobCancelled {
		t.Fatalf("cancelled running job state = %s (error %q)", got.State, got.Error)
	}
	if got.Report == nil || !got.Report.Aborted {
		t.Errorf("cancelled running job should carry a partial aborted report, got %+v", got.Report)
	}

	if code := sc.do("DELETE", "/v1/runs/nope", nil, nil); code != http.StatusNotFound {
		t.Errorf("DELETE unknown id: status %d, want 404", code)
	}
	if code := sc.do("GET", "/v1/runs/nope", nil, nil); code != http.StatusNotFound {
		t.Errorf("GET unknown id: status %d, want 404", code)
	}
}

// TestServiceRejectsUnbuildableGeometry: a run or sweep whose cache
// geometry cannot be built is a 400 at submission, never an accepted job
// that fails in its worker.
func TestServiceRejectsUnbuildableGeometry(t *testing.T) {
	sc := newServiceClient(t, newTestServer(t))
	for _, req := range []any{
		streamfetch.RunRequest{Benchmark: "164.gzip", Insts: 10_000, Width: 3},
		streamfetch.RunRequest{Benchmark: "164.gzip", Insts: 10_000, ICacheLineBytes: 48},
		streamfetch.RunRequest{Benchmark: "164.gzip", Insts: 10_000, ICacheLineBytes: -8},
	} {
		if code := sc.do("POST", "/v1/runs", req, nil); code != http.StatusBadRequest {
			t.Errorf("%+v: status %d, want 400", req, code)
		}
	}
	sweep := streamfetch.SweepRequest{Benchmarks: []string{"164.gzip"}, Insts: 10_000, Widths: []int{8, 6}}
	if code := sc.do("POST", "/v1/sweeps", sweep, nil); code != http.StatusBadRequest {
		t.Errorf("sweep with width 6: status %d, want 400", code)
	}
}

// TestServiceEnginesAndHealth covers the discovery and liveness surface.
func TestServiceEnginesAndHealth(t *testing.T) {
	srv := newTestServer(t, streamfetch.WithQueueDepth(4), streamfetch.WithWorkers(2))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	sc := newServiceClient(t, srv)

	var axes struct {
		Engines    []string `json:"engines"`
		Benchmarks []string `json:"benchmarks"`
		Layouts    []string `json:"layouts"`
	}
	if code := sc.do("GET", "/v1/engines", nil, &axes); code != http.StatusOK {
		t.Fatalf("GET /v1/engines: status %d", code)
	}
	if len(axes.Engines) < 4 || len(axes.Benchmarks) == 0 || len(axes.Layouts) != 2 {
		t.Fatalf("axes: %+v", axes)
	}

	var h streamfetch.Health
	if code := sc.do("GET", "/healthz", nil, &h); code != http.StatusOK {
		t.Fatalf("GET /healthz: status %d", code)
	}
	if h.Status != "ok" || h.QueueCap != 4 || h.Workers != 2 {
		t.Fatalf("health: %+v", h)
	}
	if h.ParBudget != par.Budget() || h.ParInUse > h.ParBudget {
		t.Fatalf("health pool metrics: %+v (budget %d)", h, par.Budget())
	}
}

// TestServiceWorkersRunConcurrently: WithWorkers(n) means n jobs actually
// execute at once when the pool has tokens for them — two long runs must
// both reach the running state with live progress before either finishes.
func TestServiceWorkersRunConcurrently(t *testing.T) {
	par.SetBudget(4)
	t.Cleanup(func() { par.SetBudget(runtime.GOMAXPROCS(0) - 1) })

	srv := newTestServer(t, streamfetch.WithQueueDepth(4), streamfetch.WithWorkers(2))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	sc := newServiceClient(t, srv)

	// Distinct seeds so the two submissions are distinct jobs rather than
	// coalescing onto one in-flight run.
	long := streamfetch.RunRequest{Benchmark: "164.gzip", Engine: "streams", Layout: "base", Insts: 500_000_000, Seed: 1}
	long2 := long
	long2.Seed = 2
	a := sc.submit("/v1/runs", long)
	b := sc.submit("/v1/runs", long2)
	deadline := time.Now().Add(30 * time.Second)
	for {
		var ea, eb streamfetch.JobEnvelope
		sc.do("GET", "/v1/runs/"+a.ID, nil, &ea)
		sc.do("GET", "/v1/runs/"+b.ID, nil, &eb)
		running := func(e streamfetch.JobEnvelope) bool {
			return e.State == streamfetch.JobRunning && e.Progress != nil && e.Progress.Retired > 0
		}
		if running(ea) && running(eb) {
			break
		}
		if ea.State.Terminal() || eb.State.Terminal() {
			t.Fatalf("a 500M-instruction job finished before both ran: a=%s b=%s", ea.State, eb.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs never ran concurrently with workers=2: a=%s b=%s", ea.State, eb.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	sc.do("DELETE", "/v1/runs/"+a.ID, nil, nil)
	sc.do("DELETE", "/v1/runs/"+b.ID, nil, nil)
	sc.await(a.ID, 30*time.Second)
	sc.await(b.ID, 30*time.Second)
}

// TestServiceJobRetention: terminal jobs are evicted oldest-first beyond
// the retention bound, so a long-lived daemon's registry cannot grow
// without limit; evicted ids answer 404 while retained ones keep serving
// their reports.
//
// A job reads done before it is retired: runJob finishes it, then writes
// its result and journal record, then retires it, evicting the oldest.
// With one worker the next job starts only after that, so eviction follows
// submission order; the test waits (bounded) until /healthz counts only
// the retained terminal jobs, so the 404 below does not race the last
// job's retirement.
func TestServiceJobRetention(t *testing.T) {
	const retain = 2
	srv := newTestServer(t, streamfetch.WithJobRetention(retain), streamfetch.WithWorkers(1))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	sc := newServiceClient(t, srv)

	req := streamfetch.RunRequest{Benchmark: "164.gzip", Engine: "streams", Layout: "base", Insts: 20_000}
	var ids []string
	for i := 0; i < 3; i++ {
		// Distinct seeds: a repeated identical body would be a cache hit
		// (HTTP 200, no new job), not a fresh terminal job to retain.
		req.Seed = uint64(100 + i)
		env := sc.submit("/v1/runs", req)
		got := sc.await(env.ID, time.Minute)
		if got.State != streamfetch.JobDone {
			t.Fatalf("job %s finished %s", env.ID, got.State)
		}
		ids = append(ids, env.ID)
	}
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(5 * time.Millisecond) {
		var h streamfetch.Health
		sc.do("GET", "/healthz", nil, &h)
		if h.JobsFinished == retain {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d terminal jobs in the registry a minute after the last finished, want %d", h.JobsFinished, retain)
		}
	}
	if code := sc.do("GET", "/v1/runs/"+ids[0], nil, nil); code != http.StatusNotFound {
		t.Errorf("oldest job past retention: status %d, want 404", code)
	}
	for _, id := range ids[1:] {
		var env streamfetch.JobEnvelope
		if code := sc.do("GET", "/v1/runs/"+id, nil, &env); code != http.StatusOK || env.Report == nil {
			t.Errorf("retained job %s: status %d, report %v", id, code, env.Report != nil)
		}
	}
}

// TestServiceSubmitEnvelopeQueued: a fresh submission's 202 body says
// queued even when an idle worker starts the job at once — the envelope
// is taken before the job reaches the queue, not after.
func TestServiceSubmitEnvelopeQueued(t *testing.T) {
	srv := newTestServer(t, streamfetch.WithWorkers(1))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	sc := newServiceClient(t, srv)
	req := streamfetch.RunRequest{Benchmark: "164.gzip", Engine: "streams", Layout: "base", Insts: 2_000}
	for i := 0; i < 40; i++ {
		req.Seed = uint64(500 + i)        // distinct: a repeat would be a cache hit
		env := sc.submit("/v1/runs", req) // fails unless 202 and queued
		sc.await(env.ID, time.Minute)
	}
	sweep := streamfetch.SweepRequest{Benchmarks: []string{"164.gzip"}, Engines: []string{"ev8"}, Insts: 2_000}
	for i := 0; i < 10; i++ {
		sweep.Seed = uint64(900 + i)
		env := sc.submit("/v1/sweeps", sweep)
		sc.await(env.ID, time.Minute)
	}
}

// TestJobQueueRaceStress: 8 concurrent sweep submissions plus concurrent
// cancellations, with the par saturation metric sampled throughout — the
// shared budget must never oversubscribe (InUse ≤ Budget, so simulation
// concurrency ≤ GOMAXPROCS under the default budget), cancelled jobs must
// release their tokens, and shutdown must leave zero service goroutines.
// Run under -race in CI.
func TestJobQueueRaceStress(t *testing.T) {
	// A multi-token pool even on 1-core CI runners, so token traffic is
	// actually exercised; restored below.
	par.SetBudget(3)
	t.Cleanup(func() { par.SetBudget(runtime.GOMAXPROCS(0) - 1) })

	before := runtime.NumGoroutine()
	srv := newTestServer(t, streamfetch.WithQueueDepth(32), streamfetch.WithWorkers(4))
	sc := newServiceClient(t, srv)

	// Sample pool saturation while the stress runs.
	var maxInUse atomic.Int64
	stopSampling := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stopSampling:
				return
			default:
			}
			if n := int64(par.InUse()); n > maxInUse.Load() {
				maxInUse.Store(n)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	sweep := streamfetch.SweepRequest{
		Benchmarks: []string{"164.gzip"},
		Layouts:    []string{"base"},
		Engines:    []string{"streams", "ev8"},
		Widths:     []int{4},
		Insts:      60_000,
	}
	const nSweeps = 8
	ids := make([]string, nSweeps)
	var wg sync.WaitGroup
	for i := 0; i < nSweeps; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct seeds: 8 identical sweeps would coalesce into one
			// job and the stress would exercise nothing.
			s := sweep
			s.Seed = uint64(1000 + i)
			env := sc.submit("/v1/sweeps", s)
			ids[i] = env.ID
			if i%2 == 1 {
				// Cancel half of them mid-flight, racing the run.
				sc.do("DELETE", "/v1/runs/"+env.ID, nil, nil)
			}
		}(i)
	}
	wg.Wait()

	for i, id := range ids {
		got := sc.await(id, 3*time.Minute)
		switch got.State {
		case streamfetch.JobDone:
			if len(got.Cells) != 2 {
				t.Errorf("job %s done with %d cells, want 2", id, len(got.Cells))
			}
		case streamfetch.JobCancelled:
			if i%2 == 0 {
				t.Errorf("job %s cancelled but never deleted", id)
			}
		default:
			t.Errorf("job %s finished %s (error %q)", id, got.State, got.Error)
		}
	}

	close(stopSampling)
	sampler.Wait()
	if got, budget := maxInUse.Load(), int64(par.Budget()); got > budget {
		t.Errorf("pool saturation reached %d tokens, budget is %d (oversubscription)", got, budget)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if n := par.InUse(); n != 0 {
		t.Errorf("%d pool tokens still held after shutdown; cancelled jobs must release them", n)
	}

	// New submissions during/after drain are refused with 503.
	if code := sc.do("POST", "/v1/sweeps", sweep, nil); code != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown submission: status %d, want 503", code)
	}

	// Zero leaked goroutines: once the HTTP server and its idle conns are
	// gone, the count settles back to where it started.
	sc.ts.Close()
	sc.c.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked after shutdown: %d, started with %d\n%s",
				n, before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}
