// Sharded session runs: one logical simulation executed as N independent
// trace intervals simulated in parallel and merged. Sharding is what makes
// paper-scale sweeps (hundreds of benchmark × engine × width × layout
// cells over 100M+-instruction traces) wall-clock-bounded by hardware
// rather than by one sequential instruction stream: each interval skips to
// its start (seeking through the trace-file chunk index, or fast-forwarding
// the seeded CFG walk), optionally warms caches and predictors on a
// counters-frozen lead-in, measures exactly its window, and the mergeable
// counter blocks combine into one Report.
//
// Accuracy: interval boundaries snap to whole blocks and tile the trace
// exactly, so instruction/branch counts merge losslessly; cycle-derived
// figures (IPC, miss rates) carry cold-start error at each interval head,
// which warmup shrinks. shards=1 with no warmup is byte-identical to a
// plain Run.
//
// Warm-state checkpoints (WithCheckpoints) attack the remaining O(shards ×
// prefix) term of functional warming: the warm microarchitectural state a
// shard builds by replaying its prefix is serialized at the interval
// boundary and stored content-addressed; the next run of the same boundary
// restores it in O(state) and skips straight to the timed window. Sampled
// runs (WithSampling) stack K short measure windows on the same executor
// and report a confidence interval instead of simulating the whole trace.
package streamfetch

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"streamfetch/internal/cfg"
	"streamfetch/internal/ckpt"
	"streamfetch/internal/frontend"
	"streamfetch/internal/layout"
	"streamfetch/internal/par"
	"streamfetch/internal/sim"
	"streamfetch/internal/stats"
	"streamfetch/internal/store"
	"streamfetch/internal/trace"
)

// RunSharded executes the session as WithShards configures it — even for
// shards=1, where it runs the single interval through the sharding path
// and produces a report byte-identical to Run. RunWith with a WithShards
// override dispatches here, so most callers never call it directly. The
// context cancels in-flight shards; on cancellation the merged partial
// report (completed shards only, Aborted set) is returned with ctx.Err().
func (s *Session) RunSharded(ctx context.Context, opts ...Option) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	run := *s
	before := run.key()
	for _, o := range opts {
		o(&run)
	}
	if run.key() != before {
		run.prep = &prepared{}
	}
	return run.runSharded(ctx)
}

// intervalSpec positions one simulated interval in the trace: the
// measure window [start, end) in CFG instructions, end == 0 meaning "to
// the trace's end". index labels the interval in reports and progress.
type intervalSpec struct {
	index      int
	start, end uint64
}

// shardOut is one interval's outcome.
type shardOut struct {
	res      sim.Result
	start    uint64 // nominal measure-window start (CFG insts)
	measured uint64
	warm     uint64
	// Checkpoint outcome for this interval: restored from the store
	// (hit), or warmed functionally with checkpointing active (miss).
	// Both false when checkpointing was off or inapplicable.
	ckptHit  bool
	ckptMiss bool
	// Stage wall clock (WithStageTimings only): functional warming up to
	// the first timed cycle, then the timed simulation. A restored or
	// unwarmed interval counts entirely as measure.
	warmSecs    float64
	measureSecs float64
}

func (s *Session) runSharded(ctx context.Context) (*Report, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	nshards := s.shards
	if nshards < 1 {
		nshards = 1
	}
	prepStart := time.Now()
	lay, err := s.ensure(ctx, s.layoutName)
	if err != nil {
		return nil, err
	}
	prog := s.prep.prog

	total, err := s.traceTotal(prog)
	if err != nil {
		return nil, err
	}
	// WithMaxInstructions truncates the logical run: partition only its
	// prefix. The cap is in CFG instructions here (trace position), which
	// tracks the unsharded retired-instruction cap to within the layout's
	// materialized jumps.
	partTotal := total
	if s.maxInsts > 0 && s.maxInsts < partTotal {
		partTotal = s.maxInsts
	}
	if uint64(nshards) > partTotal {
		// Never more shards than instructions; in particular a trace
		// whose declared total is 0 (but which may still deliver blocks)
		// runs as one unbounded interval rather than N full copies.
		nshards = int(partTotal)
		if nshards < 1 {
			nshards = 1
		}
	}

	// Even instruction split: bounds[i] is shard i's measure-window start.
	q, r := partTotal/uint64(nshards), partTotal%uint64(nshards)
	bound := func(i int) uint64 {
		b := uint64(i) * q
		if uint64(i) < r {
			return b + uint64(i)
		}
		return b + r
	}
	specs := make([]intervalSpec, nshards)
	for i := range specs {
		end := bound(i + 1)
		if i == nshards-1 && partTotal == total {
			// The last interval runs to the trace's end: a seeded
			// generator may overshoot its budget by the crossing block,
			// and file totals are then covered exactly.
			end = 0
		}
		specs[i] = intervalSpec{index: i, start: bound(i), end: end}
	}

	prepSecs := time.Since(prepStart).Seconds()
	outs, runErr := s.runIntervals(ctx, lay, prog, specs, partTotal, nshards)
	mergeStart := time.Now()
	rep := s.mergeShards(lay, nshards, outs)
	s.attachTimings(rep, outs, prepSecs, time.Since(mergeStart).Seconds())
	if runErr != nil {
		if rep == nil || ctx.Err() == nil {
			return nil, runErr
		}
		rep.Aborted = true
		return rep, runErr
	}
	if rep.Aborted {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// runSampled executes the session in sampled mode (WithSampling): K
// measure windows of sampleInsts instructions spread evenly across the
// trace, each opened through the shared interval executor — so warmup,
// functional warming and checkpoint restore all apply per window — and
// merged into one report carrying an IPC confidence interval. The
// windows tile a small fraction of the trace; everything between them
// is never simulated, which is where the speedup comes from.
func (s *Session) runSampled(ctx context.Context) (*Report, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	if s.sampleInsts == 0 {
		return nil, fmt.Errorf("streamfetch: sampled runs need a positive window length (WithSampling)")
	}
	prepStart := time.Now()
	lay, err := s.ensure(ctx, s.layoutName)
	if err != nil {
		return nil, err
	}
	prog := s.prep.prog

	total, err := s.traceTotal(prog)
	if err != nil {
		return nil, err
	}
	partTotal := total
	if s.maxInsts > 0 && s.maxInsts < partTotal {
		partTotal = s.maxInsts
	}

	var specs []intervalSpec
	if partTotal == 0 || s.sampleInsts >= partTotal {
		// The window covers the whole (or an unknown-length) trace:
		// degenerate to one full interval; the CI is then zero.
		end := uint64(0)
		if partTotal < total {
			end = partTotal
		}
		specs = []intervalSpec{{index: 0, start: 0, end: end}}
	} else {
		k := s.samples
		if uint64(k) > partTotal/s.sampleInsts {
			// Never let windows overlap: at most total/L disjoint
			// windows exist.
			k = int(partTotal / s.sampleInsts)
		}
		stride := partTotal / uint64(k)
		// Center each window in its stride so the sample spreads evenly
		// instead of clustering at stride heads.
		offset := (stride - s.sampleInsts) / 2
		specs = make([]intervalSpec, k)
		for i := range specs {
			start := uint64(i)*stride + offset
			specs[i] = intervalSpec{index: i, start: start, end: start + s.sampleInsts}
		}
	}

	prepSecs := time.Since(prepStart).Seconds()
	outs, runErr := s.runIntervals(ctx, lay, prog, specs, partTotal, len(specs))
	mergeStart := time.Now()
	rep := s.mergeSamples(lay, len(specs), outs)
	s.attachTimings(rep, outs, prepSecs, time.Since(mergeStart).Seconds())
	if runErr != nil {
		if rep == nil || ctx.Err() == nil {
			return nil, runErr
		}
		rep.Aborted = true
		return rep, runErr
	}
	if rep.Aborted {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// runIntervals simulates the given intervals in parallel (up to the
// process-wide worker budget). group is the interval count reported to
// progress callbacks. outs[i] stays nil for intervals that did not
// complete (cancellation).
func (s *Session) runIntervals(ctx context.Context, lay *layout.Layout, prog *cfg.Program, specs []intervalSpec, partTotal uint64, group int) ([]*shardOut, error) {
	outs := make([]*shardOut, len(specs))
	err := par.Do(ctx, len(specs), true, func(i int) error {
		out, err := s.runInterval(ctx, lay, prog, specs[i], partTotal, group)
		if err != nil {
			return err
		}
		outs[i] = out
		return nil
	})
	return outs, err
}

// runInterval simulates one trace interval. With checkpointing active
// it first tries to open the interval's warm boundary from the store —
// O(state) instead of O(prefix) — and on any miss (no blob, torn blob,
// stale version, geometry or engine mismatch) falls back to functional
// warming, capturing the warm state it builds and publishing it for the
// next run of the same boundary.
func (s *Session) runInterval(ctx context.Context, lay *layout.Layout, prog *cfg.Program, spec intervalSpec, partTotal uint64, group int) (*shardOut, error) {
	// The checkpointable boundary: where functional warming would stop
	// and the counters-frozen timed lead-in (WithWarmup) begins. A zero
	// boundary means no functional-warming prefix exists — nothing to
	// checkpoint. In-memory traces have no stable identity across runs
	// and cold shards skip the prefix outright, so neither checkpoints.
	boundary := uint64(0)
	if spec.start > s.warmup {
		boundary = spec.start - s.warmup
	}
	key := ""
	useCkpt := false
	if s.ckptStore != nil && !s.coldShards && s.traceData == nil && boundary > 0 {
		key, useCkpt = s.ckptKey(lay, boundary)
	}

	if useCkpt {
		out, err := s.runRestored(ctx, lay, prog, spec, key, boundary, partTotal, group)
		if out != nil || err != nil {
			return out, err
		}
		// Clean miss: warm functionally below and publish the result.
	}

	src, err := s.newSource(prog)
	if err != nil {
		return nil, err
	}
	iv, err := trace.NewInterval(src, prog, trace.IntervalConfig{
		Start:  spec.start,
		End:    spec.end,
		Warmup: s.warmup,
		// By default mid-trace intervals replay their prefix functionally
		// (caches and address generators warm at decode speed), so
		// measured memory behaviour matches a single-shot run closely.
		// WithColdShards trades that accuracy for O(interval) work per
		// shard: the prefix is skipped outright (seeking through an
		// indexed trace file, or fast-forwarding the CFG walk).
		FuncWarm: !s.coldShards,
	})
	if err != nil {
		src.Close()
		return nil, err
	}
	scfg := s.simConfig(ctx, lay, 0, partTotal, spec.index, group)
	var snapshot []byte
	var warmedAt time.Time
	if useCkpt || s.stageTimings {
		// One OnWarmed serves both consumers: the timestamp splits the
		// warmup stage from the measure stage, and (under checkpointing)
		// the snapshot captures the warm state the prefix just built.
		scfg.OnWarmed = func(p *sim.Processor) {
			warmedAt = time.Now()
			if !useCkpt {
				return
			}
			ws, ok := p.Engine().(frontend.WarmStater)
			if !ok {
				return
			}
			snapshot = ckpt.Encode(nil, boundary, p.Hier(), p.Gen(),
				p.Engine().Name(), ws.AppendWarmState(nil))
		}
	}
	proc, err := sim.New(lay, iv, scfg)
	if err != nil {
		iv.Close()
		return nil, err
	}
	runStart := time.Now()
	res := proc.Run()
	runSecs := time.Since(runStart).Seconds()
	if err := iv.Close(); err != nil {
		return nil, fmt.Errorf("streamfetch: shard %d reading trace: %w", spec.index, err)
	}
	if snapshot != nil && !res.Aborted {
		// Publishing is best-effort: a full or failing store must not
		// fail a run that already has its result.
		_ = s.ckptStore.PutBlob(key, snapshot)
	}
	out := &shardOut{
		res:      res,
		start:    spec.start,
		measured: iv.MeasuredInsts(),
		warm:     iv.WarmupInsts(),
		ckptMiss: useCkpt,
	}
	if s.stageTimings {
		out.measureSecs = runSecs
		if !warmedAt.IsZero() {
			out.warmSecs = warmedAt.Sub(runStart).Seconds()
			out.measureSecs = runSecs - out.warmSecs
		}
	}
	return out, nil
}

// runRestored attempts the checkpoint fast path for one interval: load
// the boundary's snapshot, build the interval with functional warming
// disabled (it skips straight to the boundary), restore the warm state
// onto the fresh processor, and run. A (nil, nil) return is a clean
// miss — the blob is absent, undecodable or for a different
// configuration — sending the caller to the functional-warming path; a
// non-nil error is fatal (it would fail that path identically).
func (s *Session) runRestored(ctx context.Context, lay *layout.Layout, prog *cfg.Program, spec intervalSpec, key string, boundary uint64, partTotal uint64, group int) (*shardOut, error) {
	blob, ok, err := s.ckptStore.GetBlob(key)
	if err != nil || !ok {
		return nil, nil
	}
	snap, err := ckpt.Decode(blob)
	if err != nil || snap.Boundary != boundary {
		return nil, nil
	}
	src, err := s.newSource(prog)
	if err != nil {
		return nil, err
	}
	iv, err := trace.NewInterval(src, prog, trace.IntervalConfig{
		Start:  spec.start,
		End:    spec.end,
		Warmup: s.warmup,
		// No functional warming: the snapshot already holds the prefix's
		// effect, so the interval seeks to the boundary and delivers only
		// the timed lead-in (if any) and the measure window.
		FuncWarm: false,
	})
	if err != nil {
		src.Close()
		return nil, err
	}
	scfg := s.simConfig(ctx, lay, 0, partTotal, spec.index, group)
	proc, err := sim.New(lay, iv, scfg)
	if err != nil {
		iv.Close()
		return nil, err
	}
	ws, isWS := proc.Engine().(frontend.WarmStater)
	if !isWS || proc.Engine().Name() != snap.EngineName ||
		snap.Apply(proc.Hier(), proc.Gen()) != nil ||
		ws.LoadWarmState(snap.Engine) != nil {
		// Mismatch or partial restore: discard the whole processor (its
		// state may be half-written) and fall back to functional
		// warming. The source was not consumed before Run, so closing
		// it is the only cleanup needed.
		iv.Close()
		return nil, nil
	}
	runStart := time.Now()
	res := proc.Run()
	runSecs := time.Since(runStart).Seconds()
	if err := iv.Close(); err != nil {
		return nil, fmt.Errorf("streamfetch: shard %d reading trace: %w", spec.index, err)
	}
	out := &shardOut{
		res:      res,
		start:    spec.start,
		measured: iv.MeasuredInsts(),
		warm:     iv.WarmupInsts(),
		ckptHit:  true,
	}
	if s.stageTimings {
		// The restore replaced functional warming, so the whole simulation
		// (timed lead-in included) counts as measure.
		out.measureSecs = runSecs
	}
	return out, nil
}

// ckptKeySpec is a checkpoint's canonical identity, hashed into its
// store key. It covers every session input that shapes the warm state
// at a boundary: the trace identity (benchmark, seeds, lengths, or the
// trace file path), the code layout, the hierarchy geometry, the engine
// and its options, and the boundary position itself. The format version
// is included so a layout change retires old blobs wholesale.
type ckptKeySpec struct {
	Kind       string `json:"kind"`
	Version    int    `json:"version"`
	Benchmark  string `json:"benchmark"`
	TraceFile  string `json:"trace_file,omitempty"`
	Seed       uint64 `json:"seed"`
	TrainSeed  uint64 `json:"train_seed"`
	Insts      uint64 `json:"insts"`
	TrainInsts uint64 `json:"train_insts"`
	Layout     string `json:"layout"`
	Width      int    `json:"width"`
	LineBytes  int    `json:"line_bytes,omitempty"`
	Engine     string `json:"engine"`
	EngineOpts string `json:"engine_opts,omitempty"`
	Boundary   uint64 `json:"boundary"`
}

// ckptKey derives the store key for this session's checkpoint at the
// given boundary. The second return is false when the configuration has
// no stable identity (unserializable engine options) and checkpointing
// must stay off for the run.
func (s *Session) ckptKey(lay *layout.Layout, boundary uint64) (string, bool) {
	opts := ""
	if s.engineOpts != nil {
		b, err := json.Marshal(s.engineOpts)
		if err != nil {
			return "", false
		}
		opts = string(b)
	}
	train := s.trainInsts
	if train == 0 {
		// Normalize the lazy default (see ensure) so "default by
		// omission" and "default spelled out" share checkpoints.
		train = s.insts / 4
	}
	return store.Key(ckptKeySpec{
		Kind:       "ckpt",
		Version:    ckpt.Version,
		Benchmark:  s.benchmark,
		TraceFile:  s.traceFile,
		Seed:       s.seed,
		TrainSeed:  s.trainSeed,
		Insts:      s.insts,
		TrainInsts: train,
		Layout:     lay.Name,
		Width:      s.width,
		LineBytes:  s.lineBytes,
		Engine:     s.engine,
		EngineOpts: opts,
		Boundary:   boundary,
	}), true
}

// mergeOuts combines completed intervals into one report (nil when none
// completed) plus the per-interval rows. Event counters merge
// losslessly; aggregate IPC is the merged retired count over the merged
// cycle count.
func (s *Session) mergeOuts(lay *layout.Layout, outs []*shardOut) (*Report, []IntervalReport) {
	var agg sim.Counters
	var traceInsts, hits, misses uint64
	aborted := false
	intervals := make([]IntervalReport, 0, len(outs))
	done := 0
	for i, o := range outs {
		if o == nil {
			continue
		}
		done++
		agg.Merge(o.res.Counters)
		traceInsts += o.measured
		if o.res.Aborted {
			aborted = true
		}
		if o.ckptHit {
			hits++
		}
		if o.ckptMiss {
			misses++
		}
		intervals = append(intervals, IntervalReport{
			Index:          i,
			StartInsts:     o.start,
			Insts:          o.measured,
			WarmupInsts:    o.warm,
			Cycles:         o.res.Cycles,
			Retired:        o.res.Retired,
			IPC:            o.res.IPC,
			MispredRate:    o.res.MispredRate,
			FetchIPC:       o.res.FetchIPC,
			ICacheMissRate: o.res.ICache.MissRate(),
		})
	}
	if done == 0 {
		return nil, nil
	}
	res := sim.Result{
		Engine:   s.engine,
		Width:    s.width,
		Aborted:  aborted || done < len(outs),
		Counters: agg,
	}
	res.IPC = agg.IPC()
	res.MispredRate = agg.MispredRate()
	res.FetchIPC = agg.Fetch.FetchIPC()
	rep := newReport(s.benchmark, lay, traceInsts, s.reportSeed(), res)
	rep.CheckpointHits = hits
	rep.CheckpointMisses = misses
	return rep, intervals
}

// mergeShards lifts merged intervals into a sharded-run report. For a
// single unwarmed interval the merged report is exactly the plain run's
// report: no shard fields, byte-identical JSON.
func (s *Session) mergeShards(lay *layout.Layout, nshards int, outs []*shardOut) *Report {
	rep, intervals := s.mergeOuts(lay, outs)
	if rep == nil || nshards <= 1 {
		return rep
	}
	rep.Shards = nshards
	rep.WarmupInsts = s.warmup
	rep.Intervals = intervals
	return rep
}

// mergeSamples lifts merged sample windows into a sampled-run report:
// the merged counters are the estimate, and ipc_ci95 carries the 95%
// confidence half-width on IPC from the per-window spread. TraceInsts
// is the sampled coverage, not the full trace length — sampled reports
// are estimates and say so through these fields.
func (s *Session) mergeSamples(lay *layout.Layout, k int, outs []*shardOut) *Report {
	rep, intervals := s.mergeOuts(lay, outs)
	if rep == nil {
		return nil
	}
	rep.Samples = k
	rep.SampleInsts = s.sampleInsts
	rep.WarmupInsts = s.warmup
	rep.Intervals = intervals
	rep.IPCCI95 = ipcCI95(outs)
	return rep
}

// ipcCI95 is the 95% confidence half-width on IPC from the spread of the
// completed windows' IPC observations.
func ipcCI95(outs []*shardOut) float64 {
	var ipcs []float64
	for _, o := range outs {
		if o == nil || o.res.Cycles == 0 {
			continue
		}
		ipcs = append(ipcs, o.res.IPC)
	}
	return stats.CI95(ipcs)
}

// attachTimings fills rep.Timings for a sharded or sampled run under
// WithStageTimings: prepare and merge are elapsed wall clock, warmup and
// measure are summed across the (parallel) intervals — per-stage
// work-seconds, which is what the SLO cost model predicts.
func (s *Session) attachTimings(rep *Report, outs []*shardOut, prepSecs, mergeSecs float64) {
	if rep == nil || !s.stageTimings {
		return
	}
	tm := &Timings{PrepareSeconds: prepSecs, MergeSeconds: mergeSecs}
	for _, o := range outs {
		if o == nil {
			continue
		}
		tm.WarmupSeconds += o.warmSecs
		tm.MeasureSeconds += o.measureSecs
	}
	rep.Timings = tm
}

// traceTotal returns the partition basis: the logical run's length in CFG
// instructions. Exact for in-memory traces, seeded budgets, legacy headers
// and indexed files; a footer-only trace file is pre-scanned once (a
// decode-only pass, no simulation).
func (s *Session) traceTotal(prog *cfg.Program) (uint64, error) {
	switch {
	case s.traceData != nil:
		return s.traceData.Insts, nil
	case s.traceFile != "":
		src, err := trace.Open(s.traceFile)
		if err != nil {
			return 0, fmt.Errorf("streamfetch: opening trace %s: %w", s.traceFile, err)
		}
		if n, exact := src.TotalInsts(); exact {
			src.Close()
			return n, nil
		}
		src.Bind(prog)
		n, err := src.Skip(^uint64(0))
		if err == nil {
			err = src.Close()
		} else {
			src.Close()
		}
		if err != nil {
			return 0, fmt.Errorf("streamfetch: sizing trace %s: %w", s.traceFile, err)
		}
		return n, nil
	default:
		return s.insts, nil
	}
}
