// Package streamfetch is the public API of the stream fetch engine
// reproduction (Ramirez, Santana, Larriba-Pey & Valero, MICRO-35): a
// session builder that owns the workload → profile → layout → trace → sim
// pipeline, a registry-backed set of fetch engines, and structured,
// JSON-marshallable reports.
//
// A session is built with functional options and run under a context:
//
//	rep, err := streamfetch.New("164.gzip",
//		streamfetch.WithWidth(8),
//		streamfetch.WithEngine("streams"),
//		streamfetch.WithOptimizedLayout(),
//		streamfetch.WithSeed(99),
//	).Run(ctx)
//
// Prepared artifacts are built on first use and kept: the program and its
// baseline layout are shared by every live session of the benchmark in
// the process, the optimized layout by the session, so RunWith can sweep
// engines, widths, layouts and reference seeds cheaply:
//
//	s := streamfetch.New("176.gcc", streamfetch.WithOptimizedLayout())
//	for _, e := range streamfetch.Engines() {
//		rep, err := s.RunWith(ctx, streamfetch.WithEngine(e))
//		...
//	}
//
// Traces are streamed, never materialized: each run pulls its dynamic block
// sequence from a fresh trace.Source — produced on the fly from the seeded
// CFG walk, or decoded incrementally from a trace file — so trace memory is
// independent of run length and 100M+-instruction sessions are practical.
// Determinism is preserved: the same seed yields the same source sequence,
// run after run.
//
// Every run is a plan of trace intervals executed by one interval executor
// (shard.go) and merged into one Report: the whole trace as one interval,
// WithShards intervals simulated in parallel, or WithSampling measure
// windows. A trace file recorded for another benchmark fails the run
// before it simulates, with an error naming both benchmarks, and each
// interval checks the blocks it delivers against the program, so a file
// naming blocks its program lacks fails with an error naming such a
// block.
//
// New fetch engines plug in through the registry in internal/frontend:
// Register a factory under a name and every sweep, table and cmd picks it
// up by that name.
package streamfetch

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"weak"

	"streamfetch/internal/cache"
	"streamfetch/internal/cfg"
	"streamfetch/internal/frontend"
	"streamfetch/internal/layout"
	"streamfetch/internal/sim"
	"streamfetch/internal/store"
	"streamfetch/internal/trace"
	"streamfetch/internal/workload"
)

// Engines lists the registered fetch engines in registration order: the
// paper's four (ev8, ftb, streams, tcache) first, then any extensions.
func Engines() []string { return frontend.Engines() }

// Benchmarks lists the synthetic benchmark suite by name.
func Benchmarks() []string {
	suite := workload.Suite()
	names := make([]string, len(suite))
	for i, p := range suite {
		names[i] = p.Name
	}
	return names
}

// Layouts lists the code layout strategies a session accepts.
func Layouts() []string { return []string{"base", "optimized"} }

// checkLayout validates a layout name against Layouts.
func checkLayout(name string) error {
	for _, l := range Layouts() {
		if name == l {
			return nil
		}
	}
	return fmt.Errorf("streamfetch: unknown layout %q (want %s)",
		name, strings.Join(Layouts(), " or "))
}

// Progress is a snapshot handed to the WithProgress callback during a run.
type Progress struct {
	Benchmark string
	Engine    string
	Layout    string
	Width     int
	// Retired counts correct-path instructions committed so far. Total is
	// the run's instruction target: the configured generation budget for
	// seeded runs, the trace file's indexed total for replays, or
	// MaxInstructions when lower.
	Retired uint64
	Total   uint64
	Cycles  uint64
	// Shard identifies the reporting trace interval of a sharded run and
	// Shards the interval count; both are 0 for unsharded runs. Retired
	// and Cycles then cover the reporting shard only, while Total remains
	// the logical run's target. Sharded callbacks arrive concurrently.
	Shard  int
	Shards int
}

// program holds the artifacts that depend on the benchmark alone: the
// synthesized program and its baseline layout, each built on first use.
// One program per benchmark is shared process-wide (programOf) by every
// session that holds it and every RunWith override of those sessions.
type program struct {
	benchmark string
	mu        sync.Mutex
	prog      *cfg.Program
	baseMu    sync.Mutex
	base      *layout.Layout
}

// programs maps each benchmark to its live program. It holds weak
// pointers, so the sessions alone keep a program alive: once none holds
// it, it is collected and its entry dropped.
var programs = struct {
	mu sync.Mutex
	m  map[string]weak.Pointer[program]
}{m: map[string]weak.Pointer[program]{}}

// programOf returns the benchmark's live program, registering a fresh,
// unbuilt one when no session holds it.
func programOf(benchmark string) *program {
	programs.mu.Lock()
	defer programs.mu.Unlock()
	if p := programs.m[benchmark].Value(); p != nil {
		return p
	}
	p := &program{benchmark: benchmark}
	wp := weak.Make(p)
	programs.m[benchmark] = wp
	runtime.AddCleanup(p, func(wp weak.Pointer[program]) {
		programs.mu.Lock()
		defer programs.mu.Unlock()
		// A later program of the benchmark may already own the entry.
		if programs.m[benchmark] == wp {
			delete(programs.m, benchmark)
		}
	}, wp)
	return p
}

func (p *program) program(ctx context.Context) (*cfg.Program, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.prog == nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		params, err := workload.ByName(p.benchmark)
		if err != nil {
			return nil, err
		}
		p.prog = workload.Generate(params)
	}
	return p.prog, nil
}

func (p *program) baseline(ctx context.Context) (*layout.Layout, error) {
	prog, err := p.program(ctx)
	if err != nil {
		return nil, err
	}
	p.baseMu.Lock()
	defer p.baseMu.Unlock()
	if p.base == nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p.base = layout.Baseline(prog)
	}
	return p.base, nil
}

// training is the input an optimized layout is profiled on: the train
// seed and the effective training length.
type training struct{ seed, insts uint64 }

// optimized holds the profile-guided layout of one program for one
// training input, built on first use.
type optimized struct {
	train training
	mu    sync.Mutex
	lay   *layout.Layout
}

func (o *optimized) layout(ctx context.Context, p *program) (*layout.Layout, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.lay == nil {
		prog, err := p.program(ctx)
		if err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		prof := trace.CollectProfile(prog, o.train.seed, o.train.insts)
		o.lay = layout.Optimized(prog, prof)
	}
	return o.lay, nil
}

// Session is one configured simulation pipeline. Options passed to New fix
// its defaults; RunWith overrides them per run while sharing the prepared
// program and layouts. A Session is safe for concurrent RunWith calls.
type Session struct {
	benchmark  string
	width      int
	engine     string
	engineOpts any
	layoutName string
	seed       uint64
	trainSeed  uint64
	insts      uint64
	trainInsts uint64
	maxInsts   uint64
	lineBytes  int
	traceFile  string
	shards     int
	warmup     uint64
	coldShards bool

	// ckptStore, when non-nil, caches warm-state checkpoints at interval
	// boundaries: mid-trace shards and samples restore from it in
	// O(state) instead of functionally replaying their prefix, and
	// publish the checkpoint they produce on a miss.
	ckptStore store.Store
	// samples/sampleInsts configure sampled mode (WithSampling): K
	// measure windows of sampleInsts instructions spread evenly over the
	// trace, merged with a confidence interval instead of a full run.
	samples     int
	sampleInsts uint64

	progressEvery uint64
	onProgress    func(Progress)

	// stageTimings opts the run into per-stage wall-clock collection
	// (Report.Timings). Off by default so reports stay byte-identical to
	// their goldens; the daemon turns it on for every job it executes.
	stageTimings bool

	prog *program
	opt  *optimized
}

// training returns the input the session's optimized layout is profiled
// on: the train seed and WithTrainInstructions or, by default, a quarter
// of the trace length.
func (s *Session) training() training {
	return training{s.trainSeed, cmp.Or(s.trainInsts, s.insts/4)}
}

// withOverrides applies per-run options to a copy of s. The copy shares
// s's program and baseline layout, and its optimized layout unless the
// options change the training input; the copy then profiles its own.
func (s *Session) withOverrides(opts []Option) *Session {
	run := *s
	for _, o := range opts {
		o(&run)
	}
	if t := run.training(); t != s.opt.train {
		run.opt = &optimized{train: t}
	}
	return &run
}

// Session defaults. configure is the one place they apply, so the
// service's content keys (Session.keySpec) read them from the resolved
// session, never from here.
const (
	defaultSeed      = 99
	defaultTrainSeed = 7
	defaultInsts     = 2_000_000
	defaultWidth     = 8
	defaultEngine    = "streams"
	defaultLayout    = "base"
)

// New builds a session for one benchmark with the paper's defaults: 8-wide
// pipe, the streams engine, base layout, reference seed 99 (train seed 7),
// and a 2M-instruction trace. Configuration errors surface from
// Run/Prepare, so calls chain: New(...).Run(ctx).
func New(benchmark string, opts ...Option) *Session {
	s := configure(benchmark, opts...)
	s.prog = programOf(benchmark)
	s.opt = &optimized{train: s.training()}
	return s
}

// configure resolves a session's configuration, the defaults and then
// opts, without binding it to prepared artifacts. A service request is
// one (RunRequest.session): its content key derives from the resolved
// configuration, and the session cache binds it to shared artifacts.
func configure(benchmark string, opts ...Option) *Session {
	s := &Session{
		benchmark:  benchmark,
		width:      defaultWidth,
		engine:     defaultEngine,
		layoutName: defaultLayout,
		seed:       defaultSeed,
		trainSeed:  defaultTrainSeed,
		insts:      defaultInsts,
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

func (s *Session) validate() error {
	if s.benchmark == "" {
		return errors.New("streamfetch: empty benchmark name")
	}
	if _, err := workload.ByName(s.benchmark); err != nil {
		return fmt.Errorf("streamfetch: unknown benchmark %q", s.benchmark)
	}
	if _, ok := frontend.Lookup(s.engine); !ok {
		return fmt.Errorf("streamfetch: unknown engine %q", s.engine)
	}
	if s.width <= 0 {
		return fmt.Errorf("streamfetch: invalid pipe width %d", s.width)
	}
	if err := checkGeometry(s.width, s.lineBytes); err != nil {
		return fmt.Errorf("streamfetch: %w", err)
	}
	if s.samples > 0 && s.sampleInsts == 0 {
		return errors.New("streamfetch: sampled runs need a positive window length (WithSampling)")
	}
	return checkLayout(s.layoutName)
}

// hierarchy is the cache geometry a run of the given pipe width builds:
// Table 2's, with the WithICacheLineBytes override when positive.
func hierarchy(width, lineBytes int) cache.HierarchyConfig {
	h := cache.DefaultHierarchy(width)
	if lineBytes > 0 {
		h.ICache.LineBytes = lineBytes
	}
	return h
}

// checkGeometry rejects a (positive) pipe width or an I-cache line size
// whose hierarchy cannot be built. Only the L1 I-cache depends on them:
// its line is the width's fetch block unless overridden.
func checkGeometry(width, lineBytes int) error {
	if lineBytes < 0 {
		return fmt.Errorf("negative icache line size %d", lineBytes)
	}
	if err := hierarchy(width, lineBytes).ICache.Validate(); err != nil {
		return fmt.Errorf("width %d, icache line size %d: %w", width, lineBytes, err)
	}
	return nil
}

// ensure prepares (or reuses) the requested layout and the program under
// it; the other layout is left unbuilt.
func (s *Session) ensure(ctx context.Context, layoutName string) (*layout.Layout, error) {
	if err := checkLayout(layoutName); err != nil {
		return nil, err
	}
	if layoutName == "optimized" {
		return s.opt.layout(ctx, s.prog)
	}
	return s.prog.baseline(ctx)
}

// newSource builds a fresh trace source for one run: an incremental
// decode of the WithTraceFile file or (the default) blocks produced on the
// fly from the seeded CFG walk. prog must be the session's prepared
// program. A trace file recorded for another benchmark is refused.
func (s *Session) newSource(prog *cfg.Program) (trace.Source, error) {
	switch {
	case s.traceFile != "":
		src, err := trace.Open(s.traceFile)
		if err != nil {
			return nil, fmt.Errorf("streamfetch: opening trace %s: %w", s.traceFile, err)
		}
		if src.Name() != s.benchmark {
			src.Close()
			return nil, fmt.Errorf("streamfetch: trace %s was recorded for %s, not %s", s.traceFile, src.Name(), s.benchmark)
		}
		return src, nil
	default:
		return trace.NewGenSource(prog, trace.GenConfig{Seed: s.seed, MaxInsts: s.insts}), nil
	}
}

// Prepare builds the session's artifacts (program, configured layout)
// without running a simulation. Run calls it implicitly; sweeps call it up
// front to separate preparation cost from simulation cost.
func (s *Session) Prepare(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := s.validate(); err != nil {
		return err
	}
	_, err := s.ensure(ctx, s.layoutName)
	return err
}

// Program returns the synthesized benchmark program, preparing it if
// needed (and no layout). The program is shared process-wide by every
// live session of the benchmark, and freed once none holds it, so
// callers must not modify it; read a block's classes and edges through
// its Classes and Succs methods.
func (s *Session) Program() (*cfg.Program, error) {
	return s.prog.program(context.Background())
}

// Layout returns the named code layout ("base" or "optimized"), preparing
// it if needed.
func (s *Session) Layout(name string) (*layout.Layout, error) {
	return s.ensure(context.Background(), name)
}

// Source returns a fresh trace source positioned at the start of the
// session's trace: the replayed file when one is configured, otherwise the
// seeded generator. Every call returns an independent single-use source
// emitting the identical sequence, so analyses can walk the trace
// repeatedly without materializing it; the caller closes it.
func (s *Session) Source() (trace.Source, error) {
	prog, err := s.Program()
	if err != nil {
		return nil, err
	}
	return s.newSource(prog)
}

// Benchmark returns the session's benchmark name.
func (s *Session) Benchmark() string { return s.benchmark }

// Run executes the session's configured simulation. The context cancels
// long runs: on cancellation the partial report is returned together with
// ctx.Err().
func (s *Session) Run(ctx context.Context) (*Report, error) {
	return s.RunWith(ctx)
}

// RunWith executes one simulation with per-run option overrides, sharing
// the session's prepared artifacts: the program and baseline layout depend
// on the benchmark alone, so overriding the reference seed, instruction
// count or trace file reuses them. Only an override that
// changes the training input (WithTrainSeed, WithTrainInstructions, or
// WithInstructions when the training length defaults to a quarter of it)
// profiles its own optimized layout, for that run only. Every run is a
// plan of trace intervals (see shard.go): the whole trace as one interval,
// WithShards(n > 1) parallel intervals, or WithSampling windows, merged
// into one report. The context cancels long runs: on cancellation the
// partial report is returned together with ctx.Err().
func (s *Session) RunWith(ctx context.Context, opts ...Option) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.withOverrides(opts).run(ctx)
}

// simConfig assembles the simulator configuration for one interval of a
// run: shard is its index and shards the run's interval count, both 0
// for an unsharded run.
func (s *Session) simConfig(ctx context.Context, lay *layout.Layout, total uint64, shard, shards int) sim.Config {
	cfg := sim.Config{
		Width:            s.width,
		Engine:           s.engine,
		EngineOptions:    s.engineOpts,
		Hier:             hierarchy(s.width, s.lineBytes),
		ProgressInterval: s.progressEvery,
	}
	cb := s.onProgress
	cfg.OnProgress = func(retired, cycles uint64) bool {
		if ctx.Err() != nil {
			return false
		}
		if cb != nil {
			cb(Progress{
				Benchmark: s.benchmark,
				Engine:    s.engine,
				Layout:    lay.Name,
				Width:     s.width,
				Retired:   retired,
				Total:     total,
				Cycles:    cycles,
				Shard:     shard,
				Shards:    shards,
			})
		}
		return true
	}
	return cfg
}

// reportSeed returns the seed a report should carry: a replayed trace was
// not generated from the session seed, so it is not attributed to one.
func (s *Session) reportSeed() uint64 {
	if s.traceFile != "" {
		return 0
	}
	return s.seed
}
