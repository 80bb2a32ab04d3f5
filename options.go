package streamfetch

import (
	"fmt"
	"time"

	"streamfetch/internal/store"
)

// Option configures a Session, either at New or per run through RunWith.
type Option func(*Session)

// WithWidth sets the pipe width (2, 4 or 8 in the paper; default 8). The
// I-cache line is 4x the width in instructions, so unless
// WithICacheLineBytes overrides it the width must be a power of two up to
// 2048; a run refuses one its cache cannot build.
func WithWidth(w int) Option {
	return func(s *Session) { s.width = w }
}

// WithEngine selects the fetch engine by registry name (default "streams";
// see Engines for the available set).
func WithEngine(name string) Option {
	return func(s *Session) { s.engine = name }
}

// WithEngineOptions passes engine-specific options to the engine factory
// (e.g. a frontend.StreamConfig for "streams"); nil keeps the engine's
// Table-2 defaults.
func WithEngineOptions(opts any) Option {
	return func(s *Session) { s.engineOpts = opts }
}

// WithLayout selects the code layout strategy: "base" or "optimized"
// (default "base").
func WithLayout(name string) Option {
	return func(s *Session) { s.layoutName = name }
}

// WithOptimizedLayout selects the profile-guided optimized code layout.
func WithOptimizedLayout() Option { return WithLayout("optimized") }

// WithBaseLayout selects the unoptimized baseline code layout.
func WithBaseLayout() Option { return WithLayout("base") }

// WithSeed picks the reference-input seed driving branch behaviour in the
// generated trace (default 99).
func WithSeed(seed uint64) Option {
	return func(s *Session) { s.seed = seed }
}

// WithTrainSeed picks the training-input seed used to profile for layout
// optimization (default 7; a different input than the reference run, as in
// the paper's methodology).
func WithTrainSeed(seed uint64) Option {
	return func(s *Session) { s.trainSeed = seed }
}

// WithInstructions sets the dynamic trace length (default 2,000,000).
func WithInstructions(n uint64) Option {
	return func(s *Session) { s.insts = n }
}

// WithTrainInstructions sets the profiling run length for layout
// optimization (default: a quarter of the trace length).
func WithTrainInstructions(n uint64) Option {
	return func(s *Session) { s.trainInsts = n }
}

// WithMaxInstructions caps the run at trace position n (0 = the whole
// trace): every run, unsharded, sharded or sampled, covers only the
// blocks wholly inside the trace's first n CFG instructions, and its
// report's TraceInsts is what its intervals measured. So a capped run and
// its sharded runs measure the same instructions. Retired can exceed
// TraceInsts by the layout's materialized jumps.
func WithMaxInstructions(n uint64) Option {
	return func(s *Session) { s.maxInsts = n }
}

// WithTraceFile replays a saved binary trace file (see cmd/tracegen)
// instead of generating a trace from the seed. The file is decoded
// incrementally on each run, so traces far larger than RAM replay in
// constant memory; its chunk index sizes the run. A run refuses a file
// recorded for another benchmark, and one without a valid chunk index
// (re-record it with cmd/tracegen).
func WithTraceFile(path string) Option {
	return func(s *Session) { s.traceFile = path }
}

// WithShards splits the run into n contiguous trace intervals simulated
// independently — in parallel up to the process-wide worker budget — and
// merged into one report (default 1: a single sequential run). By default
// each mid-trace shard starts from the warm state of everything before it:
// one functional-warming pass over the trace (caches, address generators
// and predictor tables replay at decode speed, no pipeline) snapshots
// every shard boundary, so merged figures track a single-shot run closely
// and warming costs one O(trace) walk however many shards there are. Pair
// with WithWarmup to also warm the pipeline before each measure window.
// WithColdShards skips the prefix instead — seeking through a trace
// file's chunk index (see cmd/tracegen) or fast-forwarding the seeded CFG
// walk — for O(interval) work per shard at the cost of cold-start bias.
func WithShards(n int) Option {
	return func(s *Session) { s.shards = n }
}

// WithWarmup prepends roughly this many instructions of warmup lead-in to
// every mid-trace shard (snapped to whole blocks): caches and predictors
// train on the lead-in while every counter stays frozen, and measurement
// starts exactly at the shard's interval boundary. Shard 0 starts at the
// trace head and needs no lead-in. Ignored for unsharded runs.
func WithWarmup(insts uint64) Option {
	return func(s *Session) { s.warmup = insts }
}

// WithColdShards disables functional warming in sharded runs: no pass
// walks the trace to warm the shard boundaries; shards skip straight to
// their intervals — seeking through the trace file's chunk index, or
// fast-forwarding the seeded CFG walk — and start cold except for the
// WithWarmup lead-in. This is the speed-maximal mode: the run's
// work drops to O(intervals) with no O(trace) warming walk, at the cost
// of cold-start bias in cycle-derived figures (the 1MB L2 in particular
// warms far slower than any practical WithWarmup covers). Instruction and
// branch counts still merge losslessly.
func WithColdShards() Option {
	return func(s *Session) { s.coldShards = true }
}

// WithCheckpoints caches warm microarchitectural state in st: every
// mid-trace interval (sharded shard or sampled window) looks up a
// checkpoint for its boundary and, on a hit, restores caches, predictor
// tables and the load address generator in O(state); the run's one
// functional-warming walk visits only the missed boundaries (and is
// skipped when every boundary hits), and publishes the checkpoint it
// takes at each for the next run — including a restarted daemon or
// another daemon sharing the store. A run restoring every boundary still
// positions its intervals with one pass over the trace (a CFG walk
// without simulation, or a seek per interval in a trace file),
// then simulates each interval's lead-in and window. A hit and a miss restore the same
// bytes, so reports differ only in their checkpoint counters.
// Checkpoints key on the preparation inputs (benchmark, seeds, engine,
// width, layout) plus the boundary position, and a WithTraceFile run on
// the file's content: its sha256, read once per run that looks a
// checkpoint up, so a file overwritten in place, even by a trace of the
// same length, misses; the same trace at another path hits. Any
// mismatch, torn blob or stale format decodes as a clean miss.
// Cold shards (WithColdShards) never use checkpoints: their skipped
// prefix leaves nothing to capture. Report.CheckpointHits/Misses count
// the outcomes. nil disables checkpointing (the default).
func WithCheckpoints(st store.Store) Option {
	return func(s *Session) { s.ckptStore = st }
}

// WithSampling switches the run to statistical sampling: instead of
// simulating the whole trace, k measure windows of intervalInsts
// instructions each are spread evenly across it, simulated independently
// (each opened from the warm state at its lead-in, taken by one
// functional-warming walk or, under WithCheckpoints, restored from the
// store; then the WithWarmup lead-in), and merged. The report carries the merged
// counters plus ipc_ci95, the 95% confidence half-width on IPC derived
// from the per-window spread. Cycle-exact totals are replaced by
// estimates — counts cover only the sampled windows — so sampled runs
// trade exactness for paper-scale speed. k <= 0 disables sampling.
func WithSampling(k int, intervalInsts uint64) Option {
	return func(s *Session) {
		s.samples = k
		s.sampleInsts = intervalInsts
	}
}

// WithICacheLineBytes overrides the L1 instruction cache line size,
// keeping the rest of the Table-2 hierarchy (the Figure-7 misalignment
// sweeps; default, and 0, is 4x the pipe width in instructions). The size
// must be a power of two up to 32 KB, half the cache; a run refuses any
// other.
func WithICacheLineBytes(n int) Option {
	return func(s *Session) { s.lineBytes = n }
}

// WithStageTimings opts runs into per-stage wall-clock collection: the
// Report carries a Timings breakdown (prepare/warmup/measure/merge;
// queue is filled by the daemon). Off by default — timings are
// wall-clock telemetry, so enabling them makes otherwise byte-identical
// reports differ, which is why golden-pinned direct runs leave this off
// while streamfetchd turns it on for every job it executes.
func WithStageTimings() Option {
	return func(s *Session) { s.stageTimings = true }
}

// WithProgress installs a progress callback invoked roughly every `every`
// retired instructions (0 = 65536). Long sweeps use it for liveness
// reporting; cancellation comes from the Run context.
func WithProgress(every uint64, fn func(Progress)) Option {
	return func(s *Session) {
		s.progressEvery = every
		s.onProgress = fn
	}
}

// ServerOption configures a Server (see NewServer).
type ServerOption func(*serverConfig)

type serverConfig struct {
	queueDepth int
	workers    int
	retainJobs int
	sessionCap int
	store      store.Store
	storeDir   string
	maxJobTime time.Duration
	watchdog   time.Duration
	probeEvery time.Duration
	err        error // first invalid option, surfaced by NewServer
}

// fail records an invalid option unless an earlier one already failed.
func (c *serverConfig) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// WithQueueDepth bounds the pending-job queue (default 64; 0 keeps the
// default, a negative n fails NewServer). A submission that would exceed
// it is rejected with ErrQueueFull (HTTP 429) instead of queueing
// unboundedly.
func WithQueueDepth(n int) ServerOption {
	return sizeOption("queue depth", n, func(c *serverConfig) *int { return &c.queueDepth })
}

// WithWorkers caps concurrently executing jobs (default GOMAXPROCS; 0
// keeps the default, a negative n fails NewServer). Each concurrent job
// holds one internal/par token, so jobs and the shard workers inside them
// never oversubscribe the process-wide budget; when the pool has fewer
// free tokens than the cap, the free-token count is the effective cap —
// except that one job always runs, token-free on the dispatcher, when
// nothing else is in flight, so a zero-token box (one core) still makes
// progress.
func WithWorkers(n int) ServerOption {
	return sizeOption("worker count", n, func(c *serverConfig) *int { return &c.workers })
}

// WithJobRetention bounds how many finished jobs (their envelopes, reports
// and sweep cells) stay pollable in memory (default 1024; 0 keeps the
// default, a negative n fails NewServer). Older terminal jobs are evicted
// oldest-first and answer 404 — unless a durable store holds them
// (WithStoreDir), in which case they are served from disk after a restart
// rather than from the in-memory registry.
func WithJobRetention(n int) ServerOption {
	return sizeOption("job retention", n, func(c *serverConfig) *int { return &c.retainJobs })
}

// sizeOption sets the size that field points at to n. 0 keeps
// NewServer's default; a negative n is rejected.
func sizeOption(what string, n int, field func(*serverConfig) *int) ServerOption {
	return func(c *serverConfig) {
		switch {
		case n < 0:
			c.fail(fmt.Errorf("streamfetch: %s must be non-negative, got %d", what, n))
		case n > 0:
			*field(c) = n
		}
	}
}

// WithSessionCacheSize bounds the prepared-session LRU shared across jobs
// (default 64). A session is one benchmark at one training input (train
// seed and training length); reference seeds and lengths share it. Like
// every live session in the process, the sessions of a benchmark share
// one program and baseline layout, freed once the last of them is
// evicted and its jobs finish. The bound keeps a long-lived daemon's
// optimized layouts bounded against clients that sweep the training key
// space. n must be positive; NewServer rejects the configuration
// otherwise.
func WithSessionCacheSize(n int) ServerOption {
	return func(c *serverConfig) {
		if n <= 0 {
			c.fail(fmt.Errorf("streamfetch: session cache size must be positive, got %d", n))
			return
		}
		c.sessionCap = n
	}
}

// WithStore installs an explicit durability backend: the job journal and
// the content-addressed result cache live in st, and the caller owns its
// lifecycle (Shutdown does not close it). Most callers want WithStoreDir
// or the default in-memory store instead.
func WithStore(st store.Store) ServerOption {
	return func(c *serverConfig) { c.store = st }
}

// WithMaxJobTime caps every job's execution time (queue wait excluded):
// a job still running after d is cut down and finishes as a terminal
// failed envelope carrying its partial, aborted report. A per-request
// timeout_ms below the cap tightens it for that job; one above it is
// clamped. 0 (the default) leaves execution time unbounded.
func WithMaxJobTime(d time.Duration) ServerOption {
	return func(c *serverConfig) {
		if d < 0 {
			c.fail(fmt.Errorf("streamfetch: max job time must be non-negative, got %s", d))
			return
		}
		c.maxJobTime = d
	}
}

// WithWatchdog cancels any running job that makes no measurable progress
// — no retired instructions, no completed sweep cells — for d: the job
// finishes as a terminal failed envelope naming the stall. This is the
// backstop for a wedged engine or a pathological configuration that a
// deadline alone would let occupy a worker until it fires. 0 (the
// default) disables the watchdog. Note that session preparation
// (synthesis, profiling, layouts) reports no progress, so d must comfortably
// exceed the longest expected preparation.
func WithWatchdog(d time.Duration) ServerOption {
	return func(c *serverConfig) {
		if d < 0 {
			c.fail(fmt.Errorf("streamfetch: watchdog window must be non-negative, got %s", d))
			return
		}
		c.watchdog = d
	}
}

// WithStoreProbeInterval sets how often a degraded server probes the
// store with a test write to detect recovery (default 2s). A successful
// probe flips the server out of degraded mode; the interval bounds how
// stale that detection can be. Must be positive.
func WithStoreProbeInterval(d time.Duration) ServerOption {
	return func(c *serverConfig) {
		if d <= 0 {
			c.fail(fmt.Errorf("streamfetch: store probe interval must be positive, got %s", d))
			return
		}
		c.probeEvery = d
	}
}

// WithStoreDir persists jobs and results under dir using the crash-safe
// filesystem backend: accepted jobs are journaled (fsync'd) before the
// 202, terminal results are written as content-addressed blobs, and a
// server restarted on the same dir re-enqueues journaled unfinished jobs
// and keeps serving terminal ones. Takes precedence over the
// STREAMFETCH_STORE_DIR environment variable; WithStore takes precedence
// over both.
func WithStoreDir(dir string) ServerOption {
	return func(c *serverConfig) { c.storeDir = dir }
}
