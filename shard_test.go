package streamfetch_test

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"streamfetch"
)

// TestRunShardedSingleIdentical: WithShards(1) is the unsharded run, one
// interval of the interval executor: its report is byte-identical to Run,
// pinned against the same golden files (and case table) as the plain
// runner.
func TestRunShardedSingleIdentical(t *testing.T) {
	for _, tc := range goldenCases {
		tc := tc
		t.Run(tc.engine+"/"+tc.layout, func(t *testing.T) {
			t.Parallel()
			rep, err := goldenSession(tc.engine, tc.layout).
				RunWith(context.Background(), streamfetch.WithShards(1))
			if err != nil {
				t.Fatal(err)
			}
			assertReportGolden(t, rep, tc.golden)
		})
	}
}

// TestRunShardedMergeInvariants: whatever the shard count, the measured
// windows tile the trace — retired instructions, branches and
// mispredictions merge losslessly — and with warmup the harmonic
// aggregate IPC stays within 2% of the single-shot run.
func TestRunShardedMergeInvariants(t *testing.T) {
	const insts = 500_000
	s := streamfetch.New("164.gzip",
		streamfetch.WithWidth(8),
		streamfetch.WithEngine("streams"),
		streamfetch.WithOptimizedLayout(),
		streamfetch.WithInstructions(insts),
	)
	ctx := context.Background()
	single, err := s.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 4} {
		rep, err := s.RunWith(ctx,
			streamfetch.WithShards(shards),
			streamfetch.WithWarmup(50_000),
		)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if rep.Shards != shards || len(rep.Intervals) != shards {
			t.Fatalf("shards=%d: report has Shards=%d, %d intervals",
				shards, rep.Shards, len(rep.Intervals))
		}
		if rep.Retired != single.Retired {
			t.Errorf("shards=%d: merged Retired %d, single %d",
				shards, rep.Retired, single.Retired)
		}
		if rep.Branches != single.Branches {
			t.Errorf("shards=%d: merged Branches %d, single %d",
				shards, rep.Branches, single.Branches)
		}
		if rep.TraceInsts != single.TraceInsts {
			t.Errorf("shards=%d: merged TraceInsts %d, single %d",
				shards, rep.TraceInsts, single.TraceInsts)
		}
		var sumRetired uint64
		for _, iv := range rep.Intervals {
			sumRetired += iv.Retired
			if iv.Index > 0 && iv.WarmupInsts == 0 {
				t.Errorf("shards=%d: interval %d ran without warmup lead-in",
					shards, iv.Index)
			}
		}
		if sumRetired != rep.Retired {
			t.Errorf("shards=%d: interval retired sum %d != merged %d",
				shards, sumRetired, rep.Retired)
		}
		if diff := math.Abs(rep.IPC-single.IPC) / single.IPC; diff > 0.02 {
			t.Errorf("shards=%d: merged IPC %.4f vs single %.4f (%.2f%% off)",
				shards, rep.IPC, single.IPC, 100*diff)
		}
	}
}

// TestRunShardedTraceFile: sharding a replayed trace file (seekable via
// the chunk index) merges to the same instruction totals as a sequential
// replay of the same file.
func TestRunShardedTraceFile(t *testing.T) {
	ctx := context.Background()
	gen := streamfetch.New("186.crafty", streamfetch.WithInstructions(300_000))
	path := filepath.Join(t.TempDir(), "crafty.trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gen.WriteTrace(ctx, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s := streamfetch.New("186.crafty",
		streamfetch.WithTraceFile(path),
		streamfetch.WithEngine("ftb"),
	)
	single, err := s.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := s.RunWith(ctx,
		streamfetch.WithShards(3), streamfetch.WithWarmup(30_000))
	if err != nil {
		t.Fatal(err)
	}
	if sharded.Retired != single.Retired || sharded.Branches != single.Branches {
		t.Fatalf("file shards merged (retired %d, branches %d), single (%d, %d)",
			sharded.Retired, sharded.Branches, single.Retired, single.Branches)
	}
	if sharded.Seed != 0 {
		t.Fatalf("replayed sharded run attributed to seed %d", sharded.Seed)
	}
}

// TestRunShardedDegenerateWindows: shard counts so high that many windows
// are smaller than a basic block (and so, after block snapping, empty)
// still merge losslessly — empty intervals contribute zero instead of
// double-counting their lead-in as measured work.
func TestRunShardedDegenerateWindows(t *testing.T) {
	ctx := context.Background()
	s := streamfetch.New("164.gzip", streamfetch.WithInstructions(1_000))
	single, err := s.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.RunWith(ctx, streamfetch.WithShards(200), streamfetch.WithWarmup(50))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retired != single.Retired || rep.Branches != single.Branches {
		t.Fatalf("degenerate shards merged (retired %d, branches %d), single (%d, %d)",
			rep.Retired, rep.Branches, single.Retired, single.Branches)
	}
	// Cache accesses are cycle-behaviour quantities, not losslessly
	// additive across tiny windows — but lead-in work must never be
	// double-counted as measured (each shard replays up to the whole
	// prefix, so double-counting would multiply the total).
	if limit := single.ICache.Accesses + uint64(rep.Shards); rep.ICache.Accesses > limit {
		t.Fatalf("degenerate shards merged %d icache accesses, single run made %d: lead-in counted as measured",
			rep.ICache.Accesses, single.ICache.Accesses)
	}
}

// TestRunShardedCold: WithColdShards skips shard prefixes (the seek path
// for indexed trace files) instead of functionally warming through them;
// instruction and branch counts still merge losslessly.
func TestRunShardedCold(t *testing.T) {
	ctx := context.Background()
	gen := streamfetch.New("164.gzip", streamfetch.WithInstructions(300_000))
	path := filepath.Join(t.TempDir(), "gzip.trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	info, err := gen.WriteTrace(ctx, f)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if !info.Seekable {
		t.Fatal("session-written trace carries no index")
	}

	s := streamfetch.New("164.gzip", streamfetch.WithTraceFile(path))
	single, err := s.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := s.RunWith(ctx,
		streamfetch.WithShards(4),
		streamfetch.WithWarmup(20_000),
		streamfetch.WithColdShards(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Retired != single.Retired || cold.Branches != single.Branches {
		t.Fatalf("cold shards merged (retired %d, branches %d), single (%d, %d)",
			cold.Retired, cold.Branches, single.Retired, single.Branches)
	}
}

// TestRunShardedCancel: cancelling mid-run surfaces the context error —
// also for a sampled run cancelled while its warming walk is still
// mid-prefix, which must return promptly and leak no goroutines.
func TestRunShardedCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := streamfetch.New("164.gzip").RunWith(ctx, streamfetch.WithShards(2))
	if err == nil {
		t.Fatal("cancelled sharded run returned no error")
	}

	s := streamfetch.New("176.gcc",
		streamfetch.WithInstructions(8_000_000),
		streamfetch.WithSampling(8, 200_000),
		streamfetch.WithWarmup(40_000),
	)
	if err := s.Prepare(context.Background()); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel = context.WithCancel(context.Background())
	cancelled := make(chan time.Time, 1)
	time.AfterFunc(50*time.Millisecond, func() {
		cancelled <- time.Now()
		cancel()
	})
	_, err = s.Run(ctx)
	returned := time.Now()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("sampled run cancelled mid-walk returned %v, want context.Canceled", err)
	}
	if lag := returned.Sub(<-cancelled); lag > time.Second {
		t.Fatalf("sampled run returned %v after cancellation", lag)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the cancelled run, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunRejectsForeignTrace: a trace recorded from another benchmark
// names blocks the bound program does not have. Every run shape over such
// a trace file must fail with an error naming such a block, never panic.
func TestRunRejectsForeignTrace(t *testing.T) {
	ctx := context.Background()
	gcc := streamfetch.New("176.gcc", streamfetch.WithInstructions(200_000))
	path := filepath.Join(t.TempDir(), "gcc.trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gcc.WriteTrace(ctx, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	gzip := streamfetch.New("164.gzip")
	prog, err := gzip.Program()
	if err != nil {
		t.Fatal(err)
	}
	named := regexp.MustCompile(`block (\d+) outside the (bound )?program \((\d+) blocks\)`)
	for _, shape := range []struct {
		name string
		opts []streamfetch.Option
	}{
		{"single", nil},
		{"sharded", []streamfetch.Option{streamfetch.WithShards(2)}},
		{"sampled", []streamfetch.Option{streamfetch.WithSampling(4, 10_000)}},
	} {
		t.Run("file/"+shape.name, func(t *testing.T) {
			rep, err := gzip.RunWith(ctx, append(shape.opts, streamfetch.WithTraceFile(path))...)
			if err == nil {
				t.Fatalf("foreign trace ran: %v", rep)
			}
			m := named.FindStringSubmatch(err.Error())
			if m == nil || strings.Contains(err.Error(), "panic") {
				t.Fatalf("error does not name a foreign block: %v", err)
			}
			id, _ := strconv.Atoi(m[1])
			if n, _ := strconv.Atoi(m[3]); n != len(prog.Blocks) || id < n {
				t.Fatalf("error names block %d of %d, program has %d: %v", id, n, len(prog.Blocks), err)
			}
		})
	}
}

// TestSampledFootprint guards what positioning a sampled run's windows
// costs: 16 windows over an 8M-instruction 176.gcc trace, generated or
// replayed from a file, allocate at most 28 MB (about 21.6 MB generated
// and 22.8 MB from the file; 89 MB while each warm snapshot's sections
// were built apart and copied into a doubling buffer). One cursor walks
// the source once and forks it at each window; a prefix-sum table per
// window (8 bytes a block, 13 MB here) took about 400 MB.
func TestSampledFootprint(t *testing.T) {
	const limit, insts = 28 << 20, 8_000_000
	ctx := context.Background()
	s := streamfetch.New("176.gcc", streamfetch.WithInstructions(insts))
	if err := s.Prepare(ctx); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "gcc.trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteTrace(ctx, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, src := range []struct {
		name string
		opts []streamfetch.Option
	}{
		{"gen", nil},
		{"file", []streamfetch.Option{streamfetch.WithTraceFile(path)}},
	} {
		t.Run(src.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			rep, err := s.RunWith(ctx, append(src.opts,
				streamfetch.WithSampling(16, 20_000), streamfetch.WithWarmup(20_000))...)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Samples != 16 {
				t.Fatalf("ran %d windows, want 16", rep.Samples)
			}
			alloc := after.TotalAlloc - before.TotalAlloc
			t.Logf("16 windows over %d instructions: %d bytes allocated", insts, alloc)
			if alloc > limit {
				t.Errorf("sampled run allocates %d bytes, limit %d", alloc, limit)
			}
		})
	}
}
