package streamfetch

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamfetch/internal/slo"
	"streamfetch/internal/store"
)

func shutdownServer(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// TestSubmitCoalescing: identical concurrent submissions collapse onto one
// job that simulates once; distinct requests stay distinct; and once the
// leader finishes, an identical resubmission is a cache hit that serves a
// byte-identical report without simulating again.
func TestSubmitCoalescing(t *testing.T) {
	srv, err := NewServer(WithWorkers(2), WithQueueDepth(16))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdownServer(t, srv) })

	// Gate the leader's body so it stays in flight until every submitter
	// has arrived — coalescing is then deterministic, not a race against
	// a fast simulation.
	var runs atomic.Int64
	release := make(chan struct{})
	var releaseOnce sync.Once
	t.Cleanup(func() { releaseOnce.Do(func() { close(release) }) })
	srv.mgr.runHook = func() {
		runs.Add(1)
		<-release
	}

	req := RunRequest{Benchmark: "164.gzip", Engine: "streams", Layout: "base", Insts: 50_000, Seed: 5}
	const n = 6
	jobs := make([]*job, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, err := srv.mgr.newRunJob(req)
			if err != nil {
				t.Errorf("submission %d: %v", i, err)
				return
			}
			jobs[i] = j
		}(i)
	}
	wg.Wait()
	releaseOnce.Do(func() { close(release) })

	for i, j := range jobs {
		if j == nil {
			t.Fatalf("submission %d failed", i)
		}
		if j != jobs[0] {
			t.Fatalf("submission %d got job %s, want coalesced onto %s", i, j.id, jobs[0].id)
		}
	}
	<-jobs[0].done
	leader := jobs[0].envelope()
	if leader.State != JobDone {
		t.Fatalf("leader finished %s (error %q), want done", leader.State, leader.Error)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("%d identical submissions ran %d simulations, want exactly 1", n, got)
	}
	if got := srv.mgr.coalesced.Load(); got != n-1 {
		t.Errorf("coalesced counter = %d, want %d", got, n-1)
	}

	// A different seed is a different content key: fresh job, fresh run.
	req2 := req
	req2.Seed = 6
	j2, err := srv.mgr.newRunJob(req2)
	if err != nil {
		t.Fatal(err)
	}
	if j2 == jobs[0] {
		t.Fatal("distinct request coalesced onto an unrelated job")
	}
	<-j2.done
	if got := runs.Load(); got != 2 {
		t.Fatalf("distinct request should simulate: runs = %d, want 2", got)
	}

	// The leader is terminal now: an identical resubmission must be a
	// cache hit — terminal immediately, never enqueued, no simulation —
	// and its report must be byte-identical to the leader's.
	j3, err := srv.mgr.newRunJob(req)
	if err != nil {
		t.Fatal(err)
	}
	env := j3.envelope()
	if !env.Cached || env.State != JobDone {
		t.Fatalf("resubmission envelope: cached=%v state=%s, want cached done", env.Cached, env.State)
	}
	if !env.StartedAt.IsZero() {
		t.Error("cached job has a start time; it must never run")
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("cache hit triggered a simulation: runs = %d, want 2", got)
	}
	if got := srv.mgr.hits.Load(); got != 1 {
		t.Errorf("cache hit counter = %d, want 1", got)
	}
	var gotBuf, wantBuf bytes.Buffer
	if err := env.Report.WriteJSON(&gotBuf); err != nil {
		t.Fatal(err)
	}
	if err := leader.Report.WriteJSON(&wantBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBuf.Bytes(), wantBuf.Bytes()) {
		t.Errorf("cached report diverged from the run that produced it\ncached:\n%s\nrun:\n%s",
			gotBuf.Bytes(), wantBuf.Bytes())
	}
}

// TestWithSessionCacheSize: the option bounds the prepared-session LRU,
// the default holds without it, and non-positive sizes are rejected at
// construction.
func TestWithSessionCacheSize(t *testing.T) {
	srv, err := NewServer(WithSessionCacheSize(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.mgr.sessions.capacity(); got != 3 {
		t.Errorf("session cache capacity = %d, want 3", got)
	}
	shutdownServer(t, srv)

	srv, err = NewServer()
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.mgr.sessions.capacity(); got != maxCachedSessions {
		t.Errorf("default session cache capacity = %d, want %d", got, maxCachedSessions)
	}
	shutdownServer(t, srv)

	for _, n := range []int{0, -1} {
		if _, err := NewServer(WithSessionCacheSize(n)); err == nil {
			t.Errorf("WithSessionCacheSize(%d) accepted, want error", n)
		}
	}
}

// TestSweepCellsShareRunCache: runs and sweeps share results under the
// run content key. A sweep that overlaps an earlier run simulates only its
// new cell and serves the run's report; a later run of the sweep's new
// cell is a cache hit with the cell's report byte for byte; and a cell
// served from the cache feeds neither the cost model, the checkpoint
// counters nor the sweep's stage timings.
func TestSweepCellsShareRunCache(t *testing.T) {
	var sims atomic.Int64
	server := func(st store.Store) *jobManager {
		srv, err := NewServer(WithWorkers(1), WithStore(st))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { shutdownServer(t, srv) })
		srv.mgr.runHook = func() { sims.Add(1) }
		return srv.mgr
	}
	wait := func(j *job, _ *JobEnvelope, err error) *JobEnvelope {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-j.done:
		case <-time.After(2 * time.Minute):
			t.Fatalf("job %s did not finish", j.id)
		}
		env := j.envelope()
		if env.State != JobDone {
			t.Fatalf("job %s finished %s (error %q)", j.id, env.State, env.Error)
		}
		return env
	}
	jsonOf := func(rep *Report) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// Warmed sharded cells, so every simulation moves the checkpoint
	// counters.
	run := RunRequest{Benchmark: "164.gzip", Engine: "streams", Layout: "base", Width: 4,
		Seed: 61, Insts: 30_000, Shards: 2, Warmup: 2_000}
	sweep := SweepRequest{Benchmarks: []string{"164.gzip"}, Layouts: []string{"base"},
		Engines: []string{"streams", "ev8"}, Widths: []int{4},
		Seed: 61, Insts: 30_000, Shards: 2, Warmup: 2_000}

	st := store.NewMem()
	m := server(st)
	first := wait(m.submitRun(run))
	if n := sims.Load(); n != 1 {
		t.Fatalf("run simulated %d times, want 1", n)
	}
	env := wait(m.submitSweep(sweep))
	if n := sims.Load(); n != 2 {
		t.Fatalf("run + overlapping sweep simulated %d times, want 2", n)
	}
	if len(env.Cells) != 2 || env.Cells[0].Engine != "streams" || env.Cells[1].Engine != "ev8" {
		t.Fatalf("sweep cells %+v, want streams then ev8", env.Cells)
	}
	cached, fresh := env.Cells[0].Report, env.Cells[1].Report
	if got, want := jsonOf(cached), renderReport(t, first.Report); !bytes.Equal(got, want) {
		t.Errorf("cached cell differs from the run that stored it\ncell:\n%s\nrun:\n%s", got, want)
	}
	again := run
	again.Engine = "ev8"
	hit := wait(m.submitRun(again))
	if !hit.Cached || sims.Load() != 2 {
		t.Fatalf("run of the sweep's new cell: cached=%v, simulations %d, want a cache hit", hit.Cached, sims.Load())
	}
	if got, want := jsonOf(hit.Report), jsonOf(fresh); !bytes.Equal(got, want) {
		t.Errorf("cached run differs from the sweep cell that stored it\nrun:\n%s\ncell:\n%s", got, want)
	}

	// A fresh server over a store holding the run's report with inflated
	// counters and timings: a cached cell that fed them on would move the
	// model, the counters and the sweep's timings visibly.
	blob, ok, err := st.GetBlob(run.contentKey())
	if err != nil || !ok {
		t.Fatalf("run report not stored under its key: ok=%v err=%v", ok, err)
	}
	stored := decodeReport(blob)
	stored.CheckpointHits += 1000
	stored.Timings.MeasureSeconds *= 100
	st2 := store.NewMem()
	m = server(st2)
	m.putResult(run.contentKey(), stored)
	sims.Store(0)
	env = wait(m.submitSweep(sweep))
	if n := sims.Load(); n != 1 {
		t.Fatalf("sweep over one stored cell simulated %d times, want 1", n)
	}
	cached, fresh = env.Cells[0].Report, env.Cells[1].Report
	if cached.CheckpointHits != stored.CheckpointHits || cached.Timings != nil {
		t.Errorf("cell not served from the store as stored, without timings: hits %d (want %d), timings %+v",
			cached.CheckpointHits, stored.CheckpointHits, cached.Timings)
	}
	if got := m.slo.Rate(run.sloKey()); got != slo.NewModel().Rate(run.sloKey()) {
		t.Errorf("cached cell taught the cost model: rate %v", got)
	}
	if m.ckptHits.Load() != int64(fresh.CheckpointHits) || m.ckptMisses.Load() != int64(fresh.CheckpointMisses) {
		t.Errorf("checkpoint counters %d/%d, want the simulated cell's alone (%d/%d)",
			m.ckptHits.Load(), m.ckptMisses.Load(), fresh.CheckpointHits, fresh.CheckpointMisses)
	}
	if got, want := env.Timings.MeasureSeconds, fresh.Timings.MeasureSeconds; got != want {
		t.Errorf("sweep measure time %v, want the simulated cell's alone (%v)", got, want)
	}
}
