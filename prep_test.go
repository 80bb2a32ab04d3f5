package streamfetch

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"streamfetch/internal/cfg"
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
		}
	}
}

// TestPrepOptimizedOnlySkipsBaseline: a session that only ever runs the
// optimized layout — plain, sharded and sampled — and asks for its
// program and source never builds the baseline layout.
func TestPrepOptimizedOnlySkipsBaseline(t *testing.T) {
	ctx := context.Background()
	s := New("164.gzip", WithOptimizedLayout(), WithInstructions(40_000))
	// A private program: the shared one may hold a baseline another live
	// session built.
	s.prog = &program{benchmark: "164.gzip"}
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
	sharedProgram(t, c, "164.gzip")

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
	sharedProgram(t, c, "164.gzip")
}

// sharedProgram fails t unless every session in c holds the benchmark's
// one process-wide program.
func sharedProgram(t *testing.T, c *sessionCache, benchmark string) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	want := programOf(benchmark)
	for key, s := range c.m {
		if s.prog != want {
			t.Errorf("cached session %+v does not share the benchmark's program", key)
		}
	}
}

// TestPrepConcurrentShared: sessions of one benchmark sharing a program
// (two training inputs from the daemon's cache) run concurrently over
// both layouts and fresh seeds, each building its artifacts once, and
// every report equals a fresh session's.
func TestPrepConcurrentShared(t *testing.T) {
	ctx := context.Background()
	c := sessionCache{cap: maxCachedSessions}
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
			cfg := configure("164.gzip", WithSeed(x.seed), WithTrainSeed(x.trainSeed), WithInstructions(insts),
				WithLayout(x.layout))
			rep, err := c.get(cfg).Run(ctx)
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
	if n := c.size(); n != 2 {
		t.Fatalf("%d sessions, want 2", n)
	}
	sharedProgram(t, &c, "164.gzip")
}

// TestPrepProgramSharedAcrossSources: sessions of one benchmark share its
// program and baseline layout whether they generate their trace or replay
// a trace file; a session of another benchmark shares neither.
func TestPrepProgramSharedAcrossSources(t *testing.T) {
	ctx := context.Background()
	const bench = "176.gcc"
	rec := New(bench, WithInstructions(10_000))
	path := filepath.Join(t.TempDir(), "gcc.trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.WriteTrace(ctx, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	sessions := map[string]*Session{
		"generated":  New(bench),
		"trace file": New(bench, WithTraceFile(path)),
	}
	prog, err := rec.Program()
	if err != nil {
		t.Fatal(err)
	}
	base, err := rec.Layout("base")
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range sessions {
		if p, err := s.Program(); err != nil || p != prog {
			t.Errorf("%s session: program not shared (err %v)", name, err)
		}
		if l, err := s.Layout("base"); err != nil || l != base {
			t.Errorf("%s session: baseline layout not shared (err %v)", name, err)
		}
	}

	other := New("164.gzip")
	if p, err := other.Program(); err != nil || p == prog {
		t.Errorf("a 164.gzip session shares 176.gcc's program (err %v)", err)
	}
	if l, err := other.Layout("base"); err != nil || l == base {
		t.Errorf("a 164.gzip session shares 176.gcc's baseline layout (err %v)", err)
	}
}

// TestPrepProgramFreedWithSessions: once no session holds a benchmark's
// program, it is collected and its registry entry lapses, and the next
// session builds a fresh one.
func TestPrepProgramFreedWithSessions(t *testing.T) {
	const bench = "197.parser"
	// The session is dropped at once; only its program stays referenced.
	old, err := New(bench).Program()
	if err != nil {
		t.Fatal(err)
	}
	registered := func() bool {
		programs.mu.Lock()
		defer programs.mu.Unlock()
		_, ok := programs.m[bench]
		return ok
	}
	// Cleanups run asynchronously after the collection that frees the
	// program.
	for deadline := time.Now().Add(10 * time.Second); registered(); {
		if time.Now().After(deadline) {
			t.Fatal("the registry kept the program of a benchmark no session holds")
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	fresh, err := New(bench).Program()
	if err != nil {
		t.Fatal(err)
	}
	if fresh == old {
		t.Fatal("a new session reused a program no session held")
	}
}

// TestPrepConcurrentNew: sessions of one benchmark built and prepared
// concurrently all share one program, generated once.
func TestPrepConcurrentNew(t *testing.T) {
	const n = 16
	progs := make([]*cfg.Program, n)
	held := make([]*program, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := New("164.gzip", WithInstructions(10_000))
			if err := s.Prepare(context.Background()); err != nil {
				t.Error(err)
				return
			}
			held[i] = s.prog
			progs[i], _ = s.Program()
		}()
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if held[i] != held[0] || progs[i] != progs[0] {
			t.Fatalf("session %d prepared its own program", i)
		}
	}
}

// TestPrepReplayHeap guards the memory the benchmark's replay shape holds:
// a generating session and a trace-file session each for 176.gcc and
// 253.perlbmk, prepared on the baseline layout, retain one program and
// layout per benchmark (about 4.5 MiB; 5.6 MiB with a 4-byte decode word
// per code slot). A program and layout per session would retain about
// 6.5 MiB.
func TestPrepReplayHeap(t *testing.T) {
	const limit = 21 << 18 // 5.25 MiB
	ctx := context.Background()
	benches := []string{"176.gcc", "253.perlbmk"}
	paths := make([]string, len(benches))
	for i, b := range benches {
		paths[i] = filepath.Join(t.TempDir(), b+".trc")
		f, err := os.Create(paths[i])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := New(b, WithInstructions(10_000)).WriteTrace(ctx, f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var sessions []*Session
	for i, b := range benches {
		sessions = append(sessions, New(b, WithWidth(4)), New(b, WithWidth(4), WithTraceFile(paths[i])))
	}
	for _, s := range sessions {
		if err := s.Prepare(ctx); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(sessions)
	held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("4 prepared replay-shape sessions hold %.2f MB", float64(held)/(1<<20))
	if held > limit {
		t.Errorf("4 prepared replay-shape sessions hold %d bytes, limit %d", held, limit)
	}
}
