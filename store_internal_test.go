package streamfetch

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"strings"
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
	if got := srv.mgr.health().SessionCap; got != 3 {
		t.Errorf("session cache capacity = %d, want 3", got)
	}
	shutdownServer(t, srv)

	srv, err = NewServer()
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.mgr.health().SessionCap; got != maxCachedSessions {
		t.Errorf("default session cache capacity = %d, want %d", got, maxCachedSessions)
	}
	shutdownServer(t, srv)

	for _, n := range []int{0, -1} {
		if _, err := NewServer(WithSessionCacheSize(n)); err == nil {
			t.Errorf("WithSessionCacheSize(%d) accepted, want error", n)
		}
	}
}

// TestNewServerSizes: NewServer resolves each default once; a size
// option given 0 keeps it (streamfetchd -workers 0 relies on that), a
// positive one replaces it, and a negative one fails construction with an
// error naming it. Of several invalid options, the first is reported.
func TestNewServerSizes(t *testing.T) {
	type sizes struct{ queueCap, workers, retain, sessionCap int }
	defaults := sizes{64, runtime.GOMAXPROCS(0), 1024, maxCachedSessions}
	for _, tc := range []struct {
		name string
		opt  ServerOption
		want sizes
		// wantErr, when set, is a fragment of the error NewServer must
		// return.
		wantErr string
	}{
		{"none", func(*serverConfig) {}, defaults, ""},
		{"queue 0", WithQueueDepth(0), defaults, ""},
		{"workers 0", WithWorkers(0), defaults, ""},
		{"retention 0", WithJobRetention(0), defaults, ""},
		{"queue 5", WithQueueDepth(5), sizes{5, defaults.workers, 1024, maxCachedSessions}, ""},
		{"workers 3", WithWorkers(3), sizes{64, 3, 1024, maxCachedSessions}, ""},
		{"retention 7", WithJobRetention(7), sizes{64, defaults.workers, 7, maxCachedSessions}, ""},
		{"sessions 2", WithSessionCacheSize(2), sizes{64, defaults.workers, 1024, 2}, ""},
		{"queue -1", WithQueueDepth(-1), sizes{}, "queue depth"},
		{"workers -1", WithWorkers(-1), sizes{}, "worker count"},
		{"retention -1", WithJobRetention(-1), sizes{}, "job retention"},
		{"sessions 0", WithSessionCacheSize(0), sizes{}, "session cache size"},
		{"max job time -1s", WithMaxJobTime(-time.Second), sizes{}, "max job time"},
		{"watchdog -1s", WithWatchdog(-time.Second), sizes{}, "watchdog window"},
		{"probe 0", WithStoreProbeInterval(0), sizes{}, "store probe interval"},
		{"sessions 0 then max job time -1ns", func(c *serverConfig) {
			WithSessionCacheSize(0)(c)
			WithMaxJobTime(-1)(c)
		}, sizes{}, "session cache size"},
	} {
		srv, err := NewServer(tc.opt)
		if tc.wantErr != "" {
			if err == nil {
				t.Errorf("%s: accepted, want error", tc.name)
				shutdownServer(t, srv)
			} else if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: error %q, want the first invalid option's (%q)", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		m := srv.mgr
		if got := (sizes{m.queueCap, m.workers, m.retain, m.sessions.cap}); got != tc.want {
			t.Errorf("%s: resolved %+v, want %+v", tc.name, got, tc.want)
		}
		if m.probeEvery != 2*time.Second {
			t.Errorf("%s: probe interval %s, want the 2s default", tc.name, m.probeEvery)
		}
		shutdownServer(t, srv)
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

// gatedPutStore blocks every PutBlob until release is closed, announcing
// each one on entered first.
type gatedPutStore struct {
	store.Store
	entered chan struct{}
	release chan struct{}
}

func (s *gatedPutStore) PutBlob(key string, data []byte) error {
	s.entered <- struct{}{}
	<-s.release
	return s.Store.PutBlob(key, data)
}

// TestCoalesceUntilCached: a finished job keeps its coalescing slot until
// its result blob is cached. An identical submission made while that write
// is still in flight finds no cache entry; it must coalesce onto the
// finished job rather than simulate again.
func TestCoalesceUntilCached(t *testing.T) {
	st := &gatedPutStore{
		Store: store.NewMem(),
		// One slot per result write the test can cause: the leader's and,
		// when coalescing fails, the twin's.
		entered: make(chan struct{}, 2),
		release: make(chan struct{}),
	}
	srv, err := NewServer(WithWorkers(1), WithQueueDepth(4), WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdownServer(t, srv) })
	var releaseOnce sync.Once
	t.Cleanup(func() { releaseOnce.Do(func() { close(st.release) }) })

	req := RunRequest{Benchmark: "164.gzip", Engine: "streams", Layout: "base", Insts: 20_000, Seed: 7}
	leader, err := srv.mgr.newRunJob(req)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-st.entered:
	case <-time.After(time.Minute):
		t.Fatal("the leader never wrote its result")
	}
	if env := leader.envelope(); env.State != JobDone {
		t.Fatalf("leader is %s (error %q) while writing its result, want done", env.State, env.Error)
	}

	misses, coalesced := srv.mgr.misses.Load(), srv.mgr.coalesced.Load()
	twin, err := srv.mgr.newRunJob(req)
	if err != nil {
		t.Fatal(err)
	}
	if twin.id != leader.id {
		t.Errorf("submission during the result write got job %s, want the leader %s", twin.id, leader.id)
	}
	if got := srv.mgr.coalesced.Load(); got != coalesced+1 {
		t.Errorf("coalesced counter = %d, want %d", got, coalesced+1)
	}
	if got := srv.mgr.misses.Load(); got != misses {
		t.Errorf("misses counter = %d, want %d: the submission simulated again", got, misses)
	}
	if env := twin.envelope(); env.State != JobDone || env.Report == nil {
		t.Errorf("coalesced envelope: state %s, report %v; want the leader's done report", env.State, env.Report != nil)
	}
	releaseOnce.Do(func() { close(st.release) })
}

// TestRecoveredJobKeyedByRequest: a recovered job is keyed by its
// journaled request, not by the key journaled beside it. The record here
// names another request's cached report; the recovered job must still
// simulate and report its own request, and an identical submission made
// while it is in flight must coalesce onto it.
func TestRecoveredJobKeyedByRequest(t *testing.T) {
	mine := RunRequest{Benchmark: "164.gzip", Engine: "streams", Layout: "base", Width: 4, Insts: 20_000, Seed: 71}
	other := mine
	other.Seed = 72
	for _, r := range []*RunRequest{&mine, &other} {
		if err := r.validate(); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := New(other.Benchmark, WithInstructions(other.Insts), WithSeed(other.Seed)).RunWith(
		context.Background(), WithEngine(other.Engine), WithLayout(other.Layout), WithWidth(other.Width))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	reqJSON, err := json.Marshal(mine)
	if err != nil {
		t.Fatal(err)
	}
	mem := store.NewMem()
	if err := mem.PutBlob(other.contentKey(), blob); err != nil {
		t.Fatal(err)
	}
	const id = "run-000050"
	if err := mem.Journal(store.JournalRecord{ID: id, Kind: "run", Key: other.contentKey(),
		State: string(JobQueued), Time: time.Now(), Request: reqJSON}); err != nil {
		t.Fatal(err)
	}

	// Hold the recovered job's result write, so it stays in flight.
	st := &gatedPutStore{Store: mem, entered: make(chan struct{}, 2), release: make(chan struct{})}
	srv, err := NewServer(WithWorkers(1), WithQueueDepth(4), WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdownServer(t, srv) })
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(st.release) }) }
	t.Cleanup(release)
	if env := srv.mgr.get(id).envelope(); env.Cached {
		t.Fatal("the recovered job was answered from the cache blob its journaled key names")
	}
	select {
	case <-st.entered:
	case <-time.After(time.Minute):
		t.Fatal("the recovered job never wrote a result: it did not simulate")
	}
	twin, err := srv.mgr.newRunJob(mine)
	if err != nil {
		t.Fatal(err)
	}
	release()
	if twin.id != id {
		t.Errorf("identical submission got job %s, want the recovered %s", twin.id, id)
	}
	recovered := srv.mgr.get(id)
	<-recovered.done
	env := recovered.envelope()
	if env.State != JobDone {
		t.Fatalf("recovered job is %s (error %q), want done", env.State, env.Error)
	}
	if got, want := renderReport(t, env.Report), directOracle(t, mine); !bytes.Equal(got, want) {
		t.Errorf("recovered job reported another request:\n%s\nwant:\n%s", got, want)
	}
}
