// Chaos tests for the service's job-isolation promises, driven through
// the public HTTP surface: an engine panic fails only its own job (with
// the stack in the envelope) while the daemon keeps serving, per-job
// deadlines fail overrunning jobs with their partial reports, the
// watchdog reaps jobs that stop making progress, and /healthz returns
// 503 only for queue saturation.
//
// The chaos engines register at test time, not init time: init-registered
// engines would leak into every sweep over Engines(), including the CI
// bench smoke run.
package streamfetch_test

import (
	"context"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"streamfetch"
	"streamfetch/internal/frontend"
	"streamfetch/internal/isa"
)

// chaosEngine is a deliberately misbehaving fetch engine: "panic" mode
// panics on the first cycle, "stall" mode fetches nothing forever.
type chaosEngine struct{ mode string }

func (e *chaosEngine) Name() string { return "chaos-" + e.mode }

func (e *chaosEngine) Cycle(out []frontend.FetchedInst) []frontend.FetchedInst {
	if e.mode == "panic" {
		panic("chaos: injected engine panic")
	}
	return out // stall: never fetch, never retire
}

func (e *chaosEngine) Redirect(isa.Addr, bool)         {}
func (e *chaosEngine) Commit(frontend.Committed)       {}
func (e *chaosEngine) FetchStats() frontend.FetchStats { return frontend.FetchStats{} }

func (e *chaosEngine) AppendWarmState(dst []byte) []byte { return dst }
func (e *chaosEngine) LoadWarmState([]byte) error        { return nil }

var chaosEnginesOnce sync.Once

func registerChaosEngines() {
	chaosEnginesOnce.Do(func() {
		for _, mode := range []string{"panic", "stall"} {
			mode := mode
			frontend.Register("chaos-"+mode, func(frontend.BuildEnv, any) (frontend.Engine, error) {
				return &chaosEngine{mode: mode}, nil
			})
		}
	})
}

// waitRunning polls a job until it is running with retired instructions —
// the point past which it is guaranteed to carry a partial report.
func waitRunning(sc *serviceClient, id string, timeout time.Duration) {
	sc.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var env streamfetch.JobEnvelope
		sc.do("GET", "/v1/runs/"+id, nil, &env)
		if env.State == streamfetch.JobRunning && env.Progress != nil && env.Progress.Retired > 0 {
			return
		}
		if env.State.Terminal() {
			sc.t.Fatalf("job %s reached %s (error %q) before running", id, env.State, env.Error)
		}
		if time.Now().After(deadline) {
			sc.t.Fatalf("job %s never started retiring within %s", id, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosEnginePanic: a panicking engine fails its own job — terminal
// failed envelope carrying the panic message and stack — and nothing
// else: the daemon keeps accepting and finishing jobs, and shutdown
// leaves zero leaked goroutines. Covered for both the unsharded path
// (panic on the job goroutine) and the sharded path (panic on a par
// worker).
func TestChaosEnginePanic(t *testing.T) {
	registerChaosEngines()
	before := runtime.NumGoroutine()
	srv := newTestServer(t, streamfetch.WithQueueDepth(8), streamfetch.WithWorkers(2))
	sc := newServiceClient(t, srv)

	req := streamfetch.RunRequest{
		Benchmark: "164.gzip", Engine: "chaos-panic", Layout: "base",
		Width: 4, Insts: 20_000, Seed: 81,
	}
	cases := []struct {
		name   string
		shards int
	}{
		{"unsharded", 0},
		{"sharded", 2},
	}
	for _, tc := range cases {
		r := req
		r.Shards = tc.shards
		r.Seed += uint64(tc.shards) // distinct jobs, no coalescing
		env := sc.submit("/v1/runs", r)
		got := sc.await(env.ID, 2*time.Minute)
		if got.State != streamfetch.JobFailed {
			t.Fatalf("%s: panicking job finished %s, want failed", tc.name, got.State)
		}
		if !strings.Contains(got.Error, "panicked") || !strings.Contains(got.Error, "chaos: injected engine panic") {
			t.Errorf("%s: envelope error misses the panic: %q", tc.name, got.Error)
		}
		if !strings.Contains(got.Error, "goroutine") {
			t.Errorf("%s: envelope error carries no stack trace: %q", tc.name, got.Error)
		}
	}

	// The daemon survived both panics: a healthy job still runs to done
	// and the health probe answers 200.
	ok := streamfetch.RunRequest{
		Benchmark: "164.gzip", Engine: "streams", Layout: "base",
		Width: 4, Insts: 20_000, Seed: 85,
	}
	env := sc.submit("/v1/runs", ok)
	if got := sc.await(env.ID, 2*time.Minute); got.State != streamfetch.JobDone || got.Report == nil {
		t.Fatalf("post-panic job finished %s (report %v), want done", got.State, got.Report != nil)
	}
	if code := sc.do("GET", "/healthz", nil, nil); code != http.StatusOK {
		t.Errorf("healthz after engine panics: %d, want 200", code)
	}

	// Zero leaked goroutines: the panicked jobs' workers, shard workers
	// and watchers are all gone once the server drains.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	sc.ts.Close()
	sc.c.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after shutdown:\n%s",
				before, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosJobDeadline: a job that outruns its budget — the request's
// timeout_ms or the server's max-job-time cap — finishes failed with the
// deadline in its error and its partial, Aborted report attached.
func TestChaosJobDeadline(t *testing.T) {
	long := streamfetch.RunRequest{
		Benchmark: "164.gzip", Engine: "streams", Layout: "base",
		Width: 4, Insts: 500_000_000, Seed: 94,
	}

	// warm runs the long configuration once and cancels it mid-flight, so
	// the session (trace, profile, layouts) is prepared and cached and the
	// timed run below spends its whole budget simulating — guaranteeing
	// retired instructions, hence a partial report.
	warm := func(t *testing.T, sc *serviceClient) {
		t.Helper()
		env := sc.submit("/v1/runs", long)
		waitRunning(sc, env.ID, 30*time.Second)
		sc.do("DELETE", "/v1/runs/"+env.ID, nil, nil)
		sc.await(env.ID, 30*time.Second)
	}
	check := func(t *testing.T, got *streamfetch.JobEnvelope) {
		t.Helper()
		if got.State != streamfetch.JobFailed {
			t.Fatalf("overrunning job finished %s (error %q), want failed", got.State, got.Error)
		}
		if !strings.Contains(got.Error, "deadline") {
			t.Errorf("envelope error misses the deadline: %q", got.Error)
		}
		if got.Report == nil || !got.Report.Aborted {
			t.Fatalf("overrunning job should carry a partial aborted report, got %+v", got.Report)
		}
		if got.Report.Retired == 0 || got.Report.Retired >= long.Insts {
			t.Errorf("partial report retired %d of %d instructions", got.Report.Retired, long.Insts)
		}
	}

	t.Run("timeout_ms", func(t *testing.T) {
		srv := newTestServer(t, streamfetch.WithQueueDepth(4), streamfetch.WithWorkers(1))
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
		sc := newServiceClient(t, srv)
		warm(t, sc)

		timed := long
		timed.TimeoutMS = 300
		env := sc.submit("/v1/runs", timed)
		check(t, sc.await(env.ID, 30*time.Second))
	})

	t.Run("max_job_time", func(t *testing.T) {
		// The server-wide cap governs even a request asking for far more:
		// timeout_ms above the cap is clamped to it, so on a 400ms-capped
		// server a ten-minute ask still dies in under a second. (The
		// report stays optional here: the budget may expire while the
		// session is still preparing, before anything retires.)
		srv := newTestServer(t, streamfetch.WithQueueDepth(4), streamfetch.WithWorkers(1),
			streamfetch.WithMaxJobTime(400*time.Millisecond))
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
		sc := newServiceClient(t, srv)
		capped := long
		capped.TimeoutMS = 600_000 // a ten-minute ask, clamped to the 400ms cap
		env := sc.submit("/v1/runs", capped)
		got := sc.await(env.ID, 30*time.Second)
		if got.State != streamfetch.JobFailed || !strings.Contains(got.Error, "deadline") {
			t.Fatalf("capped job finished %s (error %q), want deadline failure", got.State, got.Error)
		}
		if got.Report != nil && !got.Report.Aborted {
			t.Errorf("capped job carries a non-aborted report: %+v", got.Report)
		}
	})
}

// TestChaosWatchdog: a job whose engine cycles forever without retiring
// anything is cancelled by the watchdog and finishes failed with the
// no-progress error — it does not pin its worker slot until the deadline.
func TestChaosWatchdog(t *testing.T) {
	registerChaosEngines()
	srv := newTestServer(t, streamfetch.WithQueueDepth(4), streamfetch.WithWorkers(1),
		streamfetch.WithWatchdog(250*time.Millisecond))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	sc := newServiceClient(t, srv)

	req := streamfetch.RunRequest{
		Benchmark: "164.gzip", Engine: "chaos-stall", Layout: "base",
		Width: 4, Insts: 20_000, Seed: 88,
	}
	env := sc.submit("/v1/runs", req)
	got := sc.await(env.ID, 30*time.Second)
	if got.State != streamfetch.JobFailed {
		t.Fatalf("stalled job finished %s (error %q), want failed", got.State, got.Error)
	}
	if !strings.Contains(got.Error, "no progress") {
		t.Errorf("envelope error misses the watchdog verdict: %q", got.Error)
	}

	// The reaped job released its worker slot: the next job runs to done.
	ok := req
	ok.Engine = "streams"
	env = sc.submit("/v1/runs", ok)
	if got := sc.await(env.ID, 2*time.Minute); got.State != streamfetch.JobDone {
		t.Fatalf("post-watchdog job finished %s, want done", got.State)
	}
}

// TestChaosHealthzSaturation: /healthz degrades to 503 exactly when the
// submission queue is saturated — the one condition under which a load
// balancer should stop routing here — and recovers to 200 once the queue
// drains. Store degradation, by contrast, keeps the probe at 200 (covered
// by TestChaosDegradedStore).
func TestChaosHealthzSaturation(t *testing.T) {
	srv := newTestServer(t, streamfetch.WithQueueDepth(2), streamfetch.WithWorkers(1))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	sc := newServiceClient(t, srv)

	if code := sc.do("GET", "/healthz", nil, nil); code != http.StatusOK {
		t.Fatalf("healthz on an idle server: %d, want 200", code)
	}

	// Fill the service: one job running on the single worker, one in the
	// dispatcher's placement slot, and the queue channel packed behind
	// them. Distinct seeds keep the submissions from coalescing.
	long := streamfetch.RunRequest{
		Benchmark: "164.gzip", Engine: "streams", Layout: "base",
		Width: 4, Insts: 500_000_000, Seed: 91,
	}
	var ids []string
	saturated := false
	var health streamfetch.Health
	for i := 0; i < 12 && !saturated; i++ {
		r := long
		r.Seed += uint64(i)
		var env streamfetch.JobEnvelope
		switch code := sc.do("POST", "/v1/runs", r, &env); code {
		case http.StatusAccepted:
			ids = append(ids, env.ID)
		case http.StatusTooManyRequests:
			// Full queue: the health probe must already be failing.
		default:
			t.Fatalf("submission %d: status %d", i, code)
		}
		if code := sc.do("GET", "/healthz", nil, &health); code == http.StatusServiceUnavailable {
			saturated = true
		} else {
			time.Sleep(20 * time.Millisecond)
		}
	}
	if !saturated {
		t.Fatalf("healthz never reported saturation with %d pending submissions", len(ids))
	}
	if health.QueueDepth < health.QueueCap {
		t.Errorf("saturated healthz reports depth %d below cap %d", health.QueueDepth, health.QueueCap)
	}
	if health.Status != "ok" {
		t.Errorf("saturated healthz status %q: saturation is load, not shutdown", health.Status)
	}

	// Drain: cancel everything, then the probe recovers.
	for _, id := range ids {
		sc.do("DELETE", "/v1/runs/"+id, nil, nil)
	}
	for _, id := range ids {
		sc.await(id, 30*time.Second)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code := sc.do("GET", "/healthz", nil, nil); code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz still failing after the queue drained")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
