package streamfetch

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestPrepOverridesShareArtifacts: for every engine and both layouts, a
// run overriding the reference seed, the instruction count or the trace
// source reports exactly what a fresh session configured that way
// reports, while the override shares the session's program and baseline
// layout (and its optimized layout while the training input is
// unchanged).
func TestPrepOverridesShareArtifacts(t *testing.T) {
	ctx := context.Background()
	const seedB, insts, shorter = 4242, 30_000, 20_000
	// The trace file holds seed B's trace.
	path := filepath.Join(t.TempDir(), "b.trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New("164.gzip", WithSeed(seedB), WithInstructions(insts)).WriteTrace(ctx, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	for _, engine := range Engines()[:4] {
		for _, lay := range Layouts() {
			shape := []Option{WithEngine(engine), WithLayout(lay), WithWidth(4)}
			s := New("164.gzip", append([]Option{WithInstructions(insts)}, shape...)...)
			cases := []struct {
				name     string
				override []Option
				fresh    []Option
				sameOpt  bool
			}{
				{"seed", []Option{WithSeed(seedB)},
					[]Option{WithSeed(seedB), WithInstructions(insts)}, true},
				// The training length defaults to a quarter of the trace,
				// so a shorter trace profiles its own optimized layout.
				{"insts", []Option{WithInstructions(shorter)},
					[]Option{WithInstructions(shorter)}, false},
				{"trace file", []Option{WithTraceFile(path)},
					[]Option{WithTraceFile(path), WithInstructions(insts)}, true},
			}
			for _, c := range cases {
				got, err := s.RunWith(ctx, c.override...)
				if err != nil {
					t.Fatalf("%s/%s %s: %v", engine, lay, c.name, err)
				}
				want, err := New("164.gzip", append(c.fresh, shape...)...).Run(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(renderReport(t, got), renderReport(t, want)) {
					t.Errorf("%s/%s %s: override report differs from a fresh session's", engine, lay, c.name)
				}

				run := s.withOverrides(c.override)
				if run.prog != s.prog {
					t.Errorf("%s/%s %s: override did not share the program", engine, lay, c.name)
				}
				if (run.opt == s.opt) != c.sameOpt {
					t.Errorf("%s/%s %s: optimized layout shared = %v, want %v",
						engine, lay, c.name, run.opt == s.opt, c.sameOpt)
				}
			}
			if s.ref.tr != nil {
				t.Errorf("%s/%s: a run materialized the reference trace", engine, lay)
			}
		}
	}
}

// TestPrepOptimizedOnlySkipsBaseline: a session that only ever runs the
// optimized layout — plain, sharded and sampled — and asks for its
// program, source and trace never builds the baseline layout.
func TestPrepOptimizedOnlySkipsBaseline(t *testing.T) {
	ctx := context.Background()
	s := New("164.gzip", WithOptimizedLayout(), WithInstructions(40_000))
	runs := [][]Option{
		nil,
		{WithShards(2), WithWarmup(2_000)},
		{WithSampling(2, 5_000), WithWarmup(1_000)},
		{WithSeed(5)},
	}
	for _, opts := range runs {
		if _, err := s.RunWith(ctx, opts...); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Program(); err != nil {
		t.Fatal(err)
	}
	src, err := s.Source()
	if err != nil {
		t.Fatal(err)
	}
	src.Close()
	if _, err := s.Trace(); err != nil {
		t.Fatal(err)
	}
	if s.prog.base != nil {
		t.Fatal("an optimized-only session built the baseline layout")
	}
	if _, err := s.Layout("base"); err != nil || s.prog.base == nil {
		t.Fatalf("Layout(\"base\") did not build the baseline on demand (err %v)", err)
	}
}

// serveRun submits req to srv's job path and renders its finished report.
func serveRun(t *testing.T, srv *Server, req RunRequest) []byte {
	t.Helper()
	j, _, err := srv.mgr.submitRun(req)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.done:
	case <-time.After(2 * time.Minute):
		t.Fatal("job did not finish")
	}
	j.mu.Lock()
	rep, jerr := j.report, j.err
	j.mu.Unlock()
	if jerr != nil {
		t.Fatal(jerr)
	}
	return renderReport(t, rep)
}

// TestPrepDaemonOneProgramPerBenchmark: a daemon serving seeds A, B, A
// holds one prepared session and program for the benchmark; a fresh
// train seed adds a session (its own optimized layout) over the same
// program; and every report equals a fresh direct session's.
func TestPrepDaemonOneProgramPerBenchmark(t *testing.T) {
	srv, err := NewServer(WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdownServer(t, srv) })
	ctx := context.Background()
	direct := func(req RunRequest) []byte {
		opts := []Option{WithSeed(req.Seed), WithInstructions(req.Insts), WithEngine(req.Engine),
			WithLayout(req.Layout), WithWidth(req.Width)}
		if req.TrainSeed != 0 {
			opts = append(opts, WithTrainSeed(req.TrainSeed))
		}
		if req.TrainInsts != 0 {
			opts = append(opts, WithTrainInstructions(req.TrainInsts))
		}
		rep, err := New(req.Benchmark, opts...).Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return renderReport(t, rep)
	}
	req := func(seed uint64) RunRequest {
		return RunRequest{Benchmark: "164.gzip", Engine: "ftb", Layout: "optimized",
			Width: 4, Insts: 40_000, Seed: seed}
	}
	for _, r := range []RunRequest{req(11), req(12), req(11)} {
		if !bytes.Equal(serveRun(t, srv, r), direct(r)) {
			t.Errorf("seed %d: served report differs from a direct session's", r.Seed)
		}
	}
	c := &srv.mgr.sessions
	if n := c.size(); n != 1 {
		t.Fatalf("seeds A, B, A left %d cached sessions, want 1", n)
	}
	if n := len(c.progs); n != 1 {
		t.Fatalf("%d prepared programs, want 1", n)
	}

	// A shorter trace whose spelled-out training length matches the
	// derived one (40k/4) shares the session, and still reports as its
	// own fresh session would (not as one trained on 8k/4).
	short := req(13)
	short.Insts, short.TrainInsts = 8_000, 10_000
	trained := req(11)
	trained.TrainSeed = 3
	for _, r := range []RunRequest{short, trained} {
		if !bytes.Equal(serveRun(t, srv, r), direct(r)) {
			t.Errorf("%+v: served report differs from a direct session's", r)
		}
	}
	if n := c.size(); n != 2 {
		t.Fatalf("a fresh train seed left %d cached sessions, want 2", n)
	}
	if n := len(c.progs); n != 1 {
		t.Fatalf("%d prepared programs after a fresh train seed, want 1", n)
	}
	for _, s := range c.m {
		if s.prog != c.progs["164.gzip"] {
			t.Error("a cached session does not share the benchmark's program")
		}
	}
}

// TestPrepConcurrentShared: sessions of one benchmark sharing a program
// (two training inputs from the daemon's cache) run concurrently over
// both layouts and fresh seeds, each building its artifacts once, and
// every report equals a fresh session's.
func TestPrepConcurrentShared(t *testing.T) {
	ctx := context.Background()
	var c sessionCache
	const insts = 20_000
	type cell struct {
		trainSeed, seed uint64
		layout          string
	}
	var cells []cell
	for _, ts := range []uint64{7, 8} {
		for _, seed := range []uint64{1, 2} {
			for _, lay := range Layouts() {
				cells = append(cells, cell{ts, seed, lay})
			}
		}
	}
	got := make([][]byte, len(cells))
	var wg sync.WaitGroup
	for i, x := range cells {
		wg.Add(1)
		go func() {
			defer wg.Done()
			spec := contentSpec{benchmark: "164.gzip", seed: x.seed, trainSeed: x.trainSeed, insts: insts}
			rep, err := c.get(spec).RunWith(ctx, append(spec.runOptions(), WithLayout(x.layout))...)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = renderReport(t, rep)
		}()
	}
	wg.Wait()
	for i, x := range cells {
		want, err := New("164.gzip", WithTrainSeed(x.trainSeed), WithSeed(x.seed), WithInstructions(insts),
			WithLayout(x.layout)).Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[i], renderReport(t, want)) {
			t.Errorf("%+v: concurrent shared run differs from a fresh session's", x)
		}
	}
	if n := c.size(); n != 2 || len(c.progs) != 1 {
		t.Fatalf("%d sessions over %d programs, want 2 over 1", n, len(c.progs))
	}
}
