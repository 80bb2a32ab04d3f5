package streamfetch_test

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"streamfetch"
	"streamfetch/internal/ckpt"
	"streamfetch/internal/store"
)

// ckptSession is the shared configuration for checkpoint differentials:
// sharded and warmed, so every mid-trace shard has both a functional-
// warming prefix (the checkpointable part) and a timed lead-in.
func ckptSession(engine string) *streamfetch.Session {
	return streamfetch.New("164.gzip",
		streamfetch.WithEngine(engine),
		streamfetch.WithInstructions(300_000),
		streamfetch.WithShards(3),
		streamfetch.WithWarmup(30_000),
	)
}

// stripCkpt clears the checkpoint outcome counters, the only report
// fields allowed to differ between a functionally warmed run and a
// checkpoint-restored one.
func stripCkpt(rep *streamfetch.Report) *streamfetch.Report {
	c := *rep
	c.CheckpointHits, c.CheckpointMisses = 0, 0
	return &c
}

func sameReport(t *testing.T, label string, got, want *streamfetch.Report) {
	t.Helper()
	if g, w := reportJSON(t, got), reportJSON(t, want); !bytes.Equal(g, w) {
		t.Errorf("%s diverged\ngot:\n%s\nwant:\n%s", label, g, w)
	}
}

// TestCheckpointRestoreDifferential is the core contract, per engine:
// (1) running with a cold checkpoint store changes nothing about the
// simulation (byte-identical to a run without checkpoints) and records
// one miss per mid-trace shard; (2) re-running against the now-warm
// store restores every boundary (one hit per mid-trace shard, zero
// misses) and still produces byte-identical simulation counters — the
// O(prefix) replay is gone, the physics is not.
func TestCheckpointRestoreDifferential(t *testing.T) {
	ctx := context.Background()
	// benchEngines, not Engines: the chaos tests runtime-register
	// deliberately stalling/panicking engines that must not be swept
	// into the differential when the whole package runs.
	for _, engine := range benchEngines() {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			t.Parallel()
			s := ckptSession(engine)
			plain, err := s.Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if plain.CheckpointHits != 0 || plain.CheckpointMisses != 0 {
				t.Fatalf("checkpoint counters on a checkpoint-free run: %d/%d",
					plain.CheckpointHits, plain.CheckpointMisses)
			}

			st := store.NewMem()
			cold, err := s.RunWith(ctx, streamfetch.WithCheckpoints(st))
			if err != nil {
				t.Fatal(err)
			}
			if cold.CheckpointHits != 0 || cold.CheckpointMisses != 2 {
				t.Fatalf("cold run counters hits=%d misses=%d, want 0/2",
					cold.CheckpointHits, cold.CheckpointMisses)
			}
			sameReport(t, "cold checkpointed run vs plain", stripCkpt(cold), plain)

			warm, err := s.RunWith(ctx, streamfetch.WithCheckpoints(st))
			if err != nil {
				t.Fatal(err)
			}
			if warm.CheckpointHits != 2 || warm.CheckpointMisses != 0 {
				t.Fatalf("warm run counters hits=%d misses=%d, want 2/0",
					warm.CheckpointHits, warm.CheckpointMisses)
			}
			sameReport(t, "restored run vs plain", stripCkpt(warm), plain)
		})
	}
}

// TestCheckpointNoWarmupDifferential: without a timed lead-in, a run
// restoring every boundary from the store reports exactly what a run that
// walks the boundaries itself reports, per engine — each mid-trace
// interval counts its first timed cycle either way.
func TestCheckpointNoWarmupDifferential(t *testing.T) {
	ctx := context.Background()
	for _, engine := range benchEngines() {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			t.Parallel()
			s := ckptSession(engine)
			plain, err := s.RunWith(ctx, streamfetch.WithWarmup(0))
			if err != nil {
				t.Fatal(err)
			}
			st := store.NewMem()
			if _, err := s.RunWith(ctx, streamfetch.WithWarmup(0), streamfetch.WithCheckpoints(st)); err != nil {
				t.Fatal(err)
			}
			warm, err := s.RunWith(ctx, streamfetch.WithWarmup(0), streamfetch.WithCheckpoints(st))
			if err != nil {
				t.Fatal(err)
			}
			if warm.CheckpointHits != 2 || warm.CheckpointMisses != 0 {
				t.Fatalf("warm run counters hits=%d misses=%d, want 2/0",
					warm.CheckpointHits, warm.CheckpointMisses)
			}
			sameReport(t, "restored warmup-free run vs plain", stripCkpt(warm), plain)
		})
	}
}

// mangleStore corrupts every blob it serves, exercising the
// torn-checkpoint path end to end.
type mangleStore struct {
	store.Store
	mangle func([]byte) []byte
}

func (m *mangleStore) GetBlob(key string) ([]byte, bool, error) {
	b, ok, err := m.Store.GetBlob(key)
	if ok && err == nil {
		b = m.mangle(append([]byte(nil), b...))
	}
	return b, ok, err
}

// TestCheckpointCorruptBlobCleanMiss: corrupt and truncated snapshots
// are clean misses — the run falls back to functional warming, produces
// the exact plain-run report, and never errors or panics.
func TestCheckpointCorruptBlobCleanMiss(t *testing.T) {
	ctx := context.Background()
	s := ckptSession("streams")
	plain, err := s.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	mangles := map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/3] },
		"flipped":   func(b []byte) []byte { b[len(b)/2] ^= 0xff; return b },
		"emptied":   func(b []byte) []byte { return nil },
	}
	for name, fn := range mangles {
		t.Run(name, func(t *testing.T) {
			st := &mangleStore{Store: store.NewMem(), mangle: fn}
			// First run populates; the blobs are mangled only on read.
			if _, err := s.RunWith(ctx, streamfetch.WithCheckpoints(st)); err != nil {
				t.Fatal(err)
			}
			rep, err := s.RunWith(ctx, streamfetch.WithCheckpoints(st))
			if err != nil {
				t.Fatal(err)
			}
			if rep.CheckpointHits != 0 || rep.CheckpointMisses != 2 {
				t.Fatalf("%s blobs: hits=%d misses=%d, want clean misses 0/2",
					name, rep.CheckpointHits, rep.CheckpointMisses)
			}
			sameReport(t, "run over "+name+" blobs vs plain", stripCkpt(rep), plain)
		})
	}
}

// TestCheckpointKeyInvalidation: checkpoints never leak across
// preparation inputs — a different seed, engine or width misses cleanly
// on a store populated by another configuration.
func TestCheckpointKeyInvalidation(t *testing.T) {
	ctx := context.Background()
	st := store.NewMem()
	if _, err := ckptSession("streams").RunWith(ctx, streamfetch.WithCheckpoints(st)); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts []streamfetch.Option
	}{
		{"seed", []streamfetch.Option{streamfetch.WithSeed(123)}},
		{"engine", []streamfetch.Option{streamfetch.WithEngine("ev8")}},
		{"width", []streamfetch.Option{streamfetch.WithWidth(4)}},
		{"layout", []streamfetch.Option{streamfetch.WithOptimizedLayout()}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := append([]streamfetch.Option{streamfetch.WithCheckpoints(st)}, tc.opts...)
			rep, err := ckptSession("streams").RunWith(ctx, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if rep.CheckpointHits != 0 {
				t.Fatalf("changed %s yet restored %d checkpoints from the old store",
					tc.name, rep.CheckpointHits)
			}
			if rep.CheckpointMisses == 0 {
				t.Fatalf("changed %s ran without checkpointing at all", tc.name)
			}
		})
	}
	// Same configuration still hits: the invalidation above is keying,
	// not a broken store.
	rep, err := ckptSession("streams").RunWith(ctx, streamfetch.WithCheckpoints(st))
	if err != nil {
		t.Fatal(err)
	}
	if rep.CheckpointHits != 2 {
		t.Fatalf("identical configuration hit %d of 2 checkpoints", rep.CheckpointHits)
	}
}

// TestCheckpointTraceFileOverwritten: trace-file checkpoints key on the
// file's content, not its path. Two 164.gzip traces of the same length
// (seeds 16 and 18), written in turn to one path, share no checkpoint:
// the run over the second restores none of the first's and reports the
// bytes of a run without checkpoints. A copy of the second at another
// path restores every boundary.
func TestCheckpointTraceFileOverwritten(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	path := filepath.Join(dir, "gzip.trc")
	write := func(path string, seed uint64) streamfetch.TraceInfo {
		t.Helper()
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		gen := streamfetch.New("164.gzip", streamfetch.WithInstructions(300_000), streamfetch.WithSeed(seed))
		if _, err := gen.WriteTrace(ctx, f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		info, err := streamfetch.InspectTraceFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return info
	}
	st := store.NewMem()
	s := streamfetch.New("164.gzip",
		streamfetch.WithTraceFile(path),
		streamfetch.WithShards(3),
		streamfetch.WithWarmup(5_000),
	)
	first := write(path, 16)
	rep, err := s.RunWith(ctx, streamfetch.WithCheckpoints(st))
	if err != nil {
		t.Fatal(err)
	}
	if rep.CheckpointHits != 0 || rep.CheckpointMisses != 2 {
		t.Fatalf("first trace: %d hits, %d misses; want 0 and 2", rep.CheckpointHits, rep.CheckpointMisses)
	}

	if second := write(path, 18); second.Insts != first.Insts {
		t.Fatalf("traces of %d and %d instructions; the overwrite needs equal lengths", first.Insts, second.Insts)
	}
	rep, err = s.RunWith(ctx, streamfetch.WithCheckpoints(st))
	if err != nil {
		t.Fatal(err)
	}
	if rep.CheckpointHits != 0 {
		t.Fatalf("overwritten trace restored %d checkpoints of the trace it replaced", rep.CheckpointHits)
	}
	plain, err := s.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sameReport(t, "run over the overwritten trace vs plain", stripCkpt(rep), plain)

	copyPath := filepath.Join(dir, "copy.trc")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(copyPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = s.RunWith(ctx, streamfetch.WithTraceFile(copyPath), streamfetch.WithCheckpoints(st))
	if err != nil {
		t.Fatal(err)
	}
	if rep.CheckpointHits != 2 {
		t.Fatalf("the same trace at another path hit %d of 2 checkpoints", rep.CheckpointHits)
	}
	sameReport(t, "restored run over the copy vs plain", stripCkpt(rep), plain)
}

// TestCheckpointInapplicable: cold shards skip their prefix, leaving no
// warm state to capture, so they run checkpoint-free even with a store
// installed.
func TestCheckpointInapplicable(t *testing.T) {
	rep, err := streamfetch.New("164.gzip",
		streamfetch.WithInstructions(100_000),
		streamfetch.WithShards(2),
		streamfetch.WithWarmup(10_000),
		streamfetch.WithColdShards(),
		streamfetch.WithCheckpoints(store.NewMem()),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.CheckpointHits != 0 || rep.CheckpointMisses != 0 {
		t.Fatalf("cold shards checkpointed: hits=%d misses=%d",
			rep.CheckpointHits, rep.CheckpointMisses)
	}
}

// TestSampledIPCWithinCI: on the golden 2M-instruction configuration,
// the sampled IPC estimate lands within its own reported 95% confidence
// interval of the full run's IPC, and the report carries the sampling
// fields.
func TestSampledIPCWithinCI(t *testing.T) {
	ctx := context.Background()
	s := streamfetch.New("164.gzip") // golden defaults: streams/base/w8/2M
	full, err := s.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := s.RunWith(ctx,
		streamfetch.WithSampling(10, 50_000),
		streamfetch.WithWarmup(20_000),
	)
	if err != nil {
		t.Fatal(err)
	}
	if sampled.Samples != 10 || sampled.SampleInsts != 50_000 {
		t.Fatalf("sampling fields samples=%d sample_insts=%d",
			sampled.Samples, sampled.SampleInsts)
	}
	if sampled.IPCCI95 <= 0 {
		t.Fatalf("sampled run reports no confidence interval (ipc_ci95=%g)", sampled.IPCCI95)
	}
	if len(sampled.Intervals) != 10 {
		t.Fatalf("sampled run reports %d interval rows, want 10", len(sampled.Intervals))
	}
	if sampled.TraceInsts >= full.TraceInsts/2 {
		t.Fatalf("sampled coverage %d of %d: windows cover too much to be a sample",
			sampled.TraceInsts, full.TraceInsts)
	}
	if diff := math.Abs(sampled.IPC - full.IPC); diff > sampled.IPCCI95 {
		t.Fatalf("sampled IPC %.4f vs full %.4f: off by %.4f, beyond the stated CI %.4f",
			sampled.IPC, full.IPC, diff, sampled.IPCCI95)
	}
}

// TestSampledWithCheckpoints: sampled windows restore from checkpoints
// like shards do — the second run hits every window boundary and the
// merged report matches the first byte for byte outside the checkpoint
// counters.
func TestSampledWithCheckpoints(t *testing.T) {
	ctx := context.Background()
	st := store.NewMem()
	s := streamfetch.New("164.gzip", streamfetch.WithInstructions(400_000))
	opts := []streamfetch.Option{
		streamfetch.WithSampling(4, 20_000),
		streamfetch.WithWarmup(10_000),
		streamfetch.WithCheckpoints(st),
	}
	first, err := s.RunWith(ctx, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if first.CheckpointMisses != 4 || first.CheckpointHits != 0 {
		t.Fatalf("first sampled run hits=%d misses=%d, want 0/4",
			first.CheckpointHits, first.CheckpointMisses)
	}
	second, err := s.RunWith(ctx, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if second.CheckpointHits != 4 || second.CheckpointMisses != 0 {
		t.Fatalf("second sampled run hits=%d misses=%d, want 4/0",
			second.CheckpointHits, second.CheckpointMisses)
	}
	sameReport(t, "restored sampled run vs first", stripCkpt(second), stripCkpt(first))
}

// countStore counts the blob reads and journal appends it serves.
type countStore struct {
	store.Store
	gets, journals atomic.Int64
}

func (c *countStore) GetBlob(key string) ([]byte, bool, error) {
	c.gets.Add(1)
	return c.Store.GetBlob(key)
}

func (c *countStore) Journal(rec store.JournalRecord) error {
	c.journals.Add(1)
	return c.Store.Journal(rec)
}

// TestCheckpointReadOnce: a run whose boundaries are all stored reads each
// snapshot from the store once, while planning, and restores the decoded
// snapshot it kept, with a report identical to the run that stored them.
func TestCheckpointReadOnce(t *testing.T) {
	ctx := context.Background()
	st := &countStore{Store: store.NewMem()}
	s := streamfetch.New("164.gzip", streamfetch.WithInstructions(400_000))
	opts := []streamfetch.Option{
		streamfetch.WithSampling(8, 10_000),
		streamfetch.WithWarmup(10_000),
		streamfetch.WithCheckpoints(st),
	}
	first, err := s.RunWith(ctx, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if first.CheckpointMisses != 8 {
		t.Fatalf("first run missed %d boundaries, want 8", first.CheckpointMisses)
	}
	st.gets.Store(0)
	second, err := s.RunWith(ctx, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if second.CheckpointHits != 8 || second.CheckpointMisses != 0 {
		t.Fatalf("second run hits=%d misses=%d, want 8/0", second.CheckpointHits, second.CheckpointMisses)
	}
	if n := st.gets.Load(); n != 8 {
		t.Fatalf("restoring 8 stored boundaries read the store %d times, want 8", n)
	}
	sameReport(t, "restored sampled run vs first", stripCkpt(second), stripCkpt(first))
}

// TestSampledDegenerate: a window at least as long as the trace
// degenerates to one full interval — the estimate is exact, the CI
// zero.
func TestSampledDegenerate(t *testing.T) {
	ctx := context.Background()
	s := streamfetch.New("164.gzip", streamfetch.WithInstructions(100_000))
	full, err := s.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.RunWith(ctx, streamfetch.WithSampling(5, 1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Samples != 1 || rep.IPCCI95 != 0 {
		t.Fatalf("degenerate sampling samples=%d ci=%g, want 1 and 0", rep.Samples, rep.IPCCI95)
	}
	if rep.Retired != full.Retired || rep.Cycles != full.Cycles {
		t.Fatalf("degenerate sample (retired %d, cycles %d) differs from full (%d, %d)",
			rep.Retired, rep.Cycles, full.Retired, full.Cycles)
	}
}

// TestSampledValidation: sampling without a window length is rejected.
func TestSampledValidation(t *testing.T) {
	_, err := streamfetch.New("164.gzip").RunWith(context.Background(),
		streamfetch.WithSampling(4, 0))
	if err == nil {
		t.Fatal("sampling with zero window length accepted")
	}
}

// putRecorder records every blob written through it, by key.
type putRecorder struct {
	store.Store
	mu   sync.Mutex
	puts map[string][]byte
}

func (r *putRecorder) PutBlob(key string, data []byte) error {
	r.mu.Lock()
	if r.puts == nil {
		r.puts = map[string][]byte{}
	}
	r.puts[key] = append([]byte(nil), data...)
	r.mu.Unlock()
	return r.Store.PutBlob(key, data)
}

// TestCheckpointForeignSnapshotFallback: a stored snapshot that decodes
// and names the right boundary but does not fit the processor — here
// another engine's warm state, served under this run's keys — is not
// restored. The interval warms its boundary on its own instead, counts
// as a miss, and the run reports the plain run's bytes.
func TestCheckpointForeignSnapshotFallback(t *testing.T) {
	ctx := context.Background()
	plain, err := ckptSession("streams").Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	own := &putRecorder{Store: store.NewMem()}
	if _, err := ckptSession("streams").RunWith(ctx, streamfetch.WithCheckpoints(own)); err != nil {
		t.Fatal(err)
	}
	foreign := &putRecorder{Store: store.NewMem()}
	if _, err := ckptSession("ev8").RunWith(ctx, streamfetch.WithCheckpoints(foreign)); err != nil {
		t.Fatal(err)
	}
	ev8At := map[uint64][]byte{}
	for _, blob := range foreign.puts {
		snap, err := ckpt.Decode(blob)
		if err != nil || snap.EngineName != "ev8" {
			t.Fatalf("ev8 snapshot: engine %q, error %v", snap.EngineName, err)
		}
		ev8At[snap.Boundary] = blob
	}
	swapped := store.NewMem()
	for key, blob := range own.puts {
		snap, err := ckpt.Decode(blob)
		if err != nil {
			t.Fatal(err)
		}
		alien, ok := ev8At[snap.Boundary]
		if !ok {
			t.Fatalf("no ev8 snapshot at boundary %d", snap.Boundary)
		}
		if err := swapped.PutBlob(key, alien); err != nil {
			t.Fatal(err)
		}
	}
	if len(own.puts) != 2 {
		t.Fatalf("streams run published %d checkpoints, want 2", len(own.puts))
	}

	rep, err := ckptSession("streams").RunWith(ctx, streamfetch.WithCheckpoints(swapped))
	if err != nil {
		t.Fatal(err)
	}
	if rep.CheckpointHits != 0 || rep.CheckpointMisses != 2 {
		t.Fatalf("over ev8 snapshots: hits=%d misses=%d, want 0/2", rep.CheckpointHits, rep.CheckpointMisses)
	}
	sameReport(t, "run over another engine's snapshots vs plain", stripCkpt(rep), plain)
}
