package streamfetch_test

import (
	"bytes"
	"context"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"streamfetch"
	"streamfetch/internal/store"
)

// directReport runs req directly through a Session and renders the report
// exactly as the service does — the differential oracle for store-served
// results.
func directReport(t *testing.T, req streamfetch.RunRequest) []byte {
	t.Helper()
	sess := streamfetch.New(req.Benchmark, streamfetch.WithInstructions(req.Insts))
	rep, err := sess.RunWith(context.Background(),
		streamfetch.WithEngine(req.Engine),
		streamfetch.WithLayout(req.Layout),
		streamfetch.WithWidth(req.Width),
		streamfetch.WithSeed(req.Seed),
	)
	if err != nil {
		t.Fatal(err)
	}
	return reportJSON(t, rep)
}

// TestServiceCacheHit: resubmitting a completed request answers 200 with a
// cached terminal envelope — no queueing, no new simulation — and the
// cached report is byte-identical to the one the original run produced.
// The health surface accounts for the hit.
func TestServiceCacheHit(t *testing.T) {
	srv := newTestServer(t, streamfetch.WithWorkers(2))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	sc := newServiceClient(t, srv)

	req := streamfetch.RunRequest{Benchmark: "164.gzip", Engine: "streams", Layout: "base", Width: 4, Insts: 30_000, Seed: 21}
	first := sc.submit("/v1/runs", req)
	firstGot := sc.await(first.ID, time.Minute)
	if firstGot.State != streamfetch.JobDone {
		t.Fatalf("job finished %s (error %q), want done", firstGot.State, firstGot.Error)
	}

	var env streamfetch.JobEnvelope
	if code := sc.do("POST", "/v1/runs", req, &env); code != http.StatusOK {
		t.Fatalf("identical resubmission: status %d, want 200 (cache hit)", code)
	}
	if !env.Cached || env.State != streamfetch.JobDone {
		t.Fatalf("resubmission envelope: cached=%v state=%s, want cached done", env.Cached, env.State)
	}
	if env.ID == first.ID {
		t.Error("cache hit reused the original job id; it must mint its own")
	}
	if !env.StartedAt.IsZero() {
		t.Error("cached job has a start time; it never ran")
	}
	if g, w := reportJSON(t, env.Report), reportJSON(t, firstGot.Report); !bytes.Equal(g, w) {
		t.Errorf("cached report diverged from the original\ncached:\n%s\noriginal:\n%s", g, w)
	}

	var h streamfetch.Health
	if code := sc.do("GET", "/healthz", nil, &h); code != http.StatusOK {
		t.Fatalf("GET /healthz: status %d", code)
	}
	if h.Store == "" {
		t.Error("health does not name the store backend")
	}
	if h.StoreHits < 1 || h.StoreMisses < 1 {
		t.Errorf("health cache counters: hits=%d misses=%d, want ≥1 each", h.StoreHits, h.StoreMisses)
	}
}

// TestCacheHitIsARead: a store-cache hit writes nothing. Twenty hits on an
// FS store make no journal call and add no job to the registry. Each hit's
// id names its content key and answers GET and DELETE (a no-op: the hit
// is terminal) with the original report, on the daemon that served it,
// past its one-job retention, and on a daemon restarted over the same
// directory. An id whose key is malformed answers 404 without a store
// read; one naming a checkpoint, or a result of the other kind, answers
// 404 because its blob is no report of that kind. A hit whose blob is
// corrupt on disk answers 404, and resubmitting it simulates again.
func TestCacheHitIsARead(t *testing.T) {
	dir := t.TempDir()
	start := func() (*streamfetch.Server, *countStore, *serviceClient) {
		fsStore, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		st := &countStore{Store: fsStore}
		srv := newTestServer(t, streamfetch.WithStore(st),
			streamfetch.WithWorkers(1), streamfetch.WithJobRetention(1))
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
			fsStore.Close()
		})
		return srv, st, newServiceClient(t, srv)
	}
	srv, st, sc := start()

	// A warm 2-shard run stores a checkpoint beside its report.
	run := streamfetch.RunRequest{Benchmark: "164.gzip", Engine: "streams", Layout: "base", Width: 4,
		Insts: 20_000, Seed: 41, Shards: 2}
	sweep := streamfetch.SweepRequest{Benchmarks: []string{"164.gzip"}, Layouts: []string{"base"},
		Engines: []string{"ev8"}, Insts: 20_000, Seed: 41}
	runGot := sc.await(sc.submit("/v1/runs", run).ID, time.Minute)
	sweepGot := sc.await(sc.submit("/v1/sweeps", sweep).ID, time.Minute)
	if runGot.State != streamfetch.JobDone || sweepGot.State != streamfetch.JobDone {
		t.Fatalf("run finished %s, sweep %s; want done", runGot.State, sweepGot.State)
	}
	ckptKey := ""
	filepath.WalkDir(filepath.Join(dir, "blobs"), func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && len(d.Name()) == 64 {
			if b, ok, _ := st.Store.GetBlob(d.Name()); ok && b[0] != '{' && b[0] != '[' {
				ckptKey = d.Name()
			}
		}
		return nil
	})
	if ckptKey == "" {
		t.Fatal("the 2-shard run stored no checkpoint")
	}

	// A job reads done before its terminal record is journaled; wait for
	// that record, so the count below sees the hits alone.
	var before streamfetch.Health
	for deadline := time.Now().Add(30 * time.Second); ; {
		if sc.do("GET", "/healthz", nil, &before); before.StoreJournalDepth == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d jobs still owe a terminal journal record", before.StoreJournalDepth)
		}
		time.Sleep(5 * time.Millisecond)
	}
	st.journals.Store(0)
	hits := map[string]*streamfetch.JobEnvelope{}
	for i := range 20 {
		kind, body, key := "run", any(run), runGot.Key
		if i%2 == 1 {
			kind, body, key = "sweep", any(sweep), sweepGot.Key
		}
		path := "/v1/" + kind + "s"
		var env streamfetch.JobEnvelope
		if code := sc.do("POST", path, body, &env); code != http.StatusOK || !env.Cached || env.State != streamfetch.JobDone {
			t.Fatalf("hit %d on %s: status %d, cached %v, state %s; want 200, cached, done", i, path, code, env.Cached, env.State)
		}
		if want := kind + "-hit-" + key; env.ID != want {
			t.Fatalf("hit %d id %q, want %q", i, env.ID, want)
		}
		hits[path+"/"+env.ID] = &env
	}
	if n := st.journals.Load(); n != 0 {
		t.Fatalf("20 cache hits made %d journal calls, want 0", n)
	}
	var after streamfetch.Health
	sc.do("GET", "/healthz", nil, &after)
	if after.JobsFinished != before.JobsFinished || after.StoreHits != before.StoreHits+20 {
		t.Fatalf("hits moved the registry from %d to %d jobs and counted %d hits; want no job and 20 hits",
			before.JobsFinished, after.JobsFinished, after.StoreHits-before.StoreHits)
	}

	// served checks that every hit id answers GET and DELETE with the
	// report (or cells) of the run that computed it.
	served := func(sc *serviceClient) {
		t.Helper()
		for path, hit := range hits {
			for _, method := range []string{"GET", "DELETE"} {
				var env streamfetch.JobEnvelope
				if code := sc.do(method, path, nil, &env); code != http.StatusOK {
					t.Fatalf("%s %s: status %d, want 200", method, path, code)
				}
				if env.ID != hit.ID || env.State != streamfetch.JobDone || !env.Cached || !env.StartedAt.IsZero() {
					t.Fatalf("%s %s: id %q, state %s, cached %v; want the hit's done, cached envelope", method, path, env.ID, env.State, env.Cached)
				}
				if hit.Kind == "run" {
					if g, w := reportJSON(t, env.Report), reportJSON(t, runGot.Report); !bytes.Equal(g, w) {
						t.Fatalf("%s %s: report differs from the run's\n%s\nwant\n%s", method, path, g, w)
					}
					continue
				}
				if len(env.Cells) != len(sweepGot.Cells) {
					t.Fatalf("%s %s: %d cells, want %d", method, path, len(env.Cells), len(sweepGot.Cells))
				}
				for i, c := range env.Cells {
					if g, w := reportJSON(t, c.Report), reportJSON(t, sweepGot.Cells[i].Report); !bytes.Equal(g, w) {
						t.Fatalf("%s %s: cell %d differs from the sweep's", method, path, i)
					}
				}
			}
		}
	}
	served(sc)

	st.gets.Store(0)
	hex := strings.Repeat("ab", 32)
	for _, id := range []string{
		"run-hit-" + hex[:63], "run-hit-" + hex + "a", "run-hit-" + strings.ToUpper(hex),
		"run-hit-" + hex[:63] + "g", "run-hit-..%2F..%2F" + hex[:58], "run-hit-..%2Fjournal.log", "run-hit-",
	} {
		if code := sc.do("GET", "/v1/runs/"+id, nil, nil); code != http.StatusNotFound {
			t.Errorf("GET malformed hit id %q: status %d, want 404", id, code)
		}
	}
	if n := st.gets.Load(); n != 0 {
		t.Errorf("malformed hit ids read the store %d times, want 0", n)
	}
	for _, id := range []string{
		"run-hit-" + ckptKey, "sweep-hit-" + ckptKey,
		"run-hit-" + sweepGot.Key, "sweep-hit-" + runGot.Key,
	} {
		if code := sc.do("GET", "/v1/runs/"+id, nil, nil); code != http.StatusNotFound {
			t.Errorf("GET %q: status %d, want 404", id, code)
		}
	}

	// A restarted daemon serves the same ids from the blobs alone.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	st.Store.Close()
	_, st, sc = start()
	served(sc)
	if n := st.journals.Load(); n != 0 {
		t.Fatalf("serving hit ids after a restart made %d journal calls, want 0", n)
	}

	// A corrupt blob is dropped on read: its hit id is gone, and the
	// request simulates again.
	runHit := "/v1/runs/run-hit-" + runGot.Key
	blob := filepath.Join(dir, "blobs", runGot.Key[:2], runGot.Key)
	if err := os.WriteFile(blob, []byte("torn"), 0o666); err != nil {
		t.Fatal(err)
	}
	if code := sc.do("GET", runHit, nil, nil); code != http.StatusNotFound {
		t.Fatalf("GET over a corrupt blob: status %d, want 404", code)
	}
	// The recomputation restores the checkpoint the first run stored, so
	// only the checkpoint counters may differ.
	again := sc.await(sc.submit("/v1/runs", run).ID, time.Minute)
	sameReport(t, "recomputed run vs the original", stripCkpt(again.Report), stripCkpt(runGot.Report))
	if code := sc.do("GET", runHit, nil, nil); code != http.StatusOK {
		t.Fatalf("GET after recomputing: status %d, want 200", code)
	}
}

// TestServiceCrashRecovery: a daemon on a filesystem store is interrupted
// mid-flight (drain context already expired — the graceful path never gets
// to run, as in a crash) with one job running and two queued. A second
// daemon on the same directory keeps serving the finished job's report
// byte-for-byte, re-enqueues the interrupted jobs under their old ids, and
// runs them to reports byte-identical to direct Session runs.
func TestServiceCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	srvA := newTestServer(t, streamfetch.WithStoreDir(dir),
		streamfetch.WithWorkers(1), streamfetch.WithQueueDepth(8))
	scA := newServiceClient(t, srvA)

	// One job runs to completion before the crash.
	doneReq := streamfetch.RunRequest{Benchmark: "164.gzip", Engine: "streams", Layout: "base", Width: 4, Insts: 20_000, Seed: 31}
	doneEnv := scA.submit("/v1/runs", doneReq)
	doneGot := scA.await(doneEnv.ID, time.Minute)
	if doneGot.State != streamfetch.JobDone {
		t.Fatalf("pre-crash job finished %s, want done", doneGot.State)
	}

	// One long job holds the single worker; two short jobs queue behind it.
	long := streamfetch.RunRequest{Benchmark: "164.gzip", Engine: "streams", Layout: "base", Width: 4, Insts: 500_000_000, Seed: 32}
	running := scA.submit("/v1/runs", long)
	q1Req := doneReq
	q1Req.Seed = 33
	q2Req := doneReq
	q2Req.Seed = 34
	q1 := scA.submit("/v1/runs", q1Req)
	q2 := scA.submit("/v1/runs", q2Req)

	deadline := time.Now().Add(30 * time.Second)
	for {
		var env streamfetch.JobEnvelope
		scA.do("GET", "/v1/runs/"+running.ID, nil, &env)
		if env.State == streamfetch.JobRunning && env.Progress != nil && env.Progress.Retired > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("long job never made progress (state %s)", env.State)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// "Crash": the drain deadline has already passed, so every unfinished
	// job is cut down mid-flight. None of them may be journaled terminal.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	srvA.Shutdown(ctx) // returns ctx.Err(); the interruption is the point

	// Restart on the same directory.
	srvB := newTestServer(t, streamfetch.WithStoreDir(dir), streamfetch.WithQueueDepth(8))
	t.Cleanup(func() {
		sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer scancel()
		srvB.Shutdown(sctx)
	})
	scB := newServiceClient(t, srvB)

	// The finished job survives the restart byte-for-byte, and matches a
	// direct Session run of the same request.
	var restored streamfetch.JobEnvelope
	if code := scB.do("GET", "/v1/runs/"+doneEnv.ID, nil, &restored); code != http.StatusOK {
		t.Fatalf("GET restored job %s: status %d", doneEnv.ID, code)
	}
	if restored.State != streamfetch.JobDone {
		t.Fatalf("restored job state = %s, want done", restored.State)
	}
	got := reportJSON(t, restored.Report)
	if w := reportJSON(t, doneGot.Report); !bytes.Equal(got, w) {
		t.Errorf("restored report diverged from the pre-crash report")
	}
	if w := directReport(t, doneReq); !bytes.Equal(got, w) {
		t.Errorf("restored report diverged from a direct run")
	}

	// The interrupted running job was re-enqueued under its old id. Cancel
	// it first so the short jobs aren't starved behind 500M instructions
	// on a small box.
	var env streamfetch.JobEnvelope
	if code := scB.do("GET", "/v1/runs/"+running.ID, nil, &env); code != http.StatusOK {
		t.Fatalf("GET re-enqueued job %s: status %d", running.ID, code)
	}
	if env.State.Terminal() {
		t.Fatalf("interrupted job restarted terminal (%s); it is owed a run", env.State)
	}
	if code := scB.do("DELETE", "/v1/runs/"+running.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("DELETE re-enqueued job: status %d", code)
	}
	if got := scB.await(running.ID, 30*time.Second); got.State != streamfetch.JobCancelled {
		t.Fatalf("cancelled re-enqueued job state = %s", got.State)
	}

	// The queued jobs run to completion with reports byte-identical to
	// direct runs — recovery re-simulates exactly what was promised.
	for _, c := range []struct {
		id  string
		req streamfetch.RunRequest
	}{{q1.ID, q1Req}, {q2.ID, q2Req}} {
		fin := scB.await(c.id, 3*time.Minute)
		if fin.State != streamfetch.JobDone {
			t.Fatalf("recovered job %s finished %s (error %q), want done", c.id, fin.State, fin.Error)
		}
		if g, w := reportJSON(t, fin.Report), directReport(t, c.req); !bytes.Equal(g, w) {
			t.Errorf("recovered job %s report diverged from a direct run", c.id)
		}
	}

	// Health on the restarted daemon reflects the filesystem store: cached
	// blobs with real bytes on disk, and — once everything above is
	// terminal — no journal debt left.
	hDeadline := time.Now().Add(10 * time.Second)
	for {
		var h streamfetch.Health
		if code := scB.do("GET", "/healthz", nil, &h); code != http.StatusOK {
			t.Fatalf("GET /healthz: status %d", code)
		}
		if h.Store != "fs" {
			t.Fatalf("health store = %q, want fs", h.Store)
		}
		if h.StoreBlobs >= 3 && h.StoreBytes > 0 && h.StoreJournalDepth == 0 {
			break
		}
		if time.Now().After(hDeadline) {
			t.Fatalf("health never settled: blobs=%d bytes=%d journal_depth=%d, want ≥3 blobs, >0 bytes, depth 0",
				h.StoreBlobs, h.StoreBytes, h.StoreJournalDepth)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
