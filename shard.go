// Session runs: every run is a plan of trace intervals executed by one
// interval executor and merged into one Report. An unsharded run is one
// interval, the whole (capped) trace; a sharded run (WithShards) is N
// contiguous intervals simulated in parallel; a sampled run
// (WithSampling) is K short measure windows spread over the trace. The plans differ only in how they
// tile the trace and how the merged report is shaped. Sharding is what
// makes paper-scale sweeps (hundreds of benchmark × engine × width ×
// layout cells over 100M+-instruction traces) wall-clock-bounded by
// hardware rather than by one sequential instruction stream: each interval
// takes a source positioned at its lead-in start, restores the warm state
// at its boundary, runs a counters-frozen timed lead-in, measures exactly
// its window, and the mergeable counter blocks combine into one Report.
//
// Positioning costs one pass over the trace per run, not one per
// interval: a trace.Cursor walks the run's source forward once
// (fast-forwarding the seeded CFG walk or seeking through a trace file's
// chunk index) and forks it at each interval's lead-in start, so a
// K-interval plan pays O(trace) where K skips from the head paid
// O(K·trace). A fork holds only the state its walk has touched (the CFG
// walk's branch state is paged by code), and a trace file forks by
// reopening its path.
//
// Warm state comes from one functional-warming pass per run
// (sim.Processor.WarmPrefix): a single walk from the trace head, at decode
// speed, that snapshots caches, predictors and the load address generator
// at every interval boundary in turn. Warming therefore costs O(trace),
// not O(intervals × prefix), and the walk overlaps the intervals it has
// already served. With WithCheckpoints the snapshots are also stored
// content-addressed, and a later run of the same boundary restores from
// the store without walking at all. Sampled runs report a confidence
// interval instead of simulating the whole trace.
//
// Accuracy: interval boundaries snap to whole blocks and tile the trace
// exactly, so instruction/branch counts merge losslessly; cycle-derived
// figures (IPC, miss rates) carry the cold pipeline of each interval head,
// which warmup shrinks. WithShards(1) is the unsharded run.
//
// WithMaxInstructions caps every plan the same way: at a trace position.
// The plan tiles only the trace's first n CFG instructions, and the
// report's TraceInsts is what its intervals measured.
package streamfetch

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"time"

	"streamfetch/internal/cfg"
	"streamfetch/internal/ckpt"
	"streamfetch/internal/layout"
	"streamfetch/internal/par"
	"streamfetch/internal/sim"
	"streamfetch/internal/stats"
	"streamfetch/internal/store"
	"streamfetch/internal/trace"
)

// intervalSpec positions one simulated interval in the trace: the
// measure window [start, end) in CFG instructions, end == 0 meaning "to
// the trace's end".
type intervalSpec struct{ start, end uint64 }

// runPlan is one run's intervals, ascending by start, tiling at most the
// capped trace. total is the run's instruction target for progress
// callbacks (0 when unknown until EOF), refined by each interval's
// source; group is the interval count they report, 0 for an unsharded
// run.
type runPlan struct {
	specs []intervalSpec
	total uint64
	group int
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
	// measureSecs is the wall clock of the timed simulation.
	measureSecs float64
}

// run executes the session's plan through the interval executor and
// merges its intervals into one report. The context cancels in-flight
// intervals; on cancellation the merged partial report (completed
// intervals only, Aborted set) is returned with ctx.Err().
func (s *Session) run(ctx context.Context) (*Report, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	if s.samples > 0 && s.sampleInsts == 0 {
		return nil, fmt.Errorf("streamfetch: sampled runs need a positive window length (WithSampling)")
	}
	prepStart := time.Now()
	lay, err := s.ensure(ctx, s.layoutName)
	if err != nil {
		return nil, err
	}
	p, err := s.plan(lay.Prog)
	if err != nil {
		return nil, err
	}
	prepSecs := time.Since(prepStart).Seconds()
	outs, warmSecs, runErr := s.runIntervals(ctx, lay, p)
	mergeStart := time.Now()
	rep := s.mergeOuts(lay, p, outs)
	if rep != nil && s.stageTimings {
		// Prepare, warmup (the warming walk) and merge are elapsed wall
		// clock; measure is summed across the (parallel) intervals:
		// per-stage work-seconds, which is what the SLO cost model
		// predicts. An unsharded run has no merge stage.
		rep.Timings = &Timings{PrepareSeconds: prepSecs, WarmupSeconds: warmSecs}
		if p.group > 0 {
			rep.Timings.MergeSeconds = time.Since(mergeStart).Seconds()
		}
		for _, o := range outs {
			if o != nil {
				rep.Timings.MeasureSeconds += o.measureSecs
			}
		}
	}
	if runErr != nil {
		if rep == nil || ctx.Err() == nil {
			return nil, runErr
		}
		rep.Aborted = true
	} else if rep.Aborted {
		runErr = ctx.Err()
	}
	return rep, runErr
}

// plan tiles the session's trace, capped by WithMaxInstructions at a
// trace position: one interval for an unsharded run, without sizing a
// trace file first, or the sharded or sampled partition of the capped
// trace.
func (s *Session) plan(prog *cfg.Program) (*runPlan, error) {
	whole := s.samples == 0 && s.shards <= 1
	// An unsharded run leaves a trace file's length unknown (0) until the
	// file opens, where runInterval reads its exact total.
	unsized := whole && s.traceFile != ""
	var total uint64
	if !unsized {
		var err error
		if total, err = s.traceTotal(prog); err != nil {
			return nil, err
		}
	}
	// partTotal is the length the plan tiles, and last the end of its last
	// interval: 0, the trace's end, unless the cap cuts the trace. A
	// seeded generator may overshoot its budget by the crossing block,
	// and file totals are then covered exactly.
	partTotal, last := total, uint64(0)
	if s.maxInsts > 0 && (unsized || s.maxInsts < total) {
		partTotal, last = s.maxInsts, s.maxInsts
	}
	switch {
	case s.samples > 0:
		return s.samplePlan(partTotal, last), nil
	case !whole:
		return s.shardPlan(partTotal, last), nil
	}
	return &runPlan{specs: []intervalSpec{{end: last}}, total: partTotal}, nil
}

// shardPlan splits [0, partTotal) into WithShards even intervals, the
// last ending at last.
func (s *Session) shardPlan(partTotal, last uint64) *runPlan {
	nshards := s.shards
	if uint64(nshards) > partTotal {
		// Never more shards than instructions; in particular a trace
		// whose declared total is 0 (but which may still deliver blocks)
		// runs as one unbounded interval rather than N full copies.
		nshards = int(partTotal)
		if nshards < 1 {
			nshards = 1
		}
	}
	// Even instruction split: bound(i) is shard i's measure-window start.
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
		if i == nshards-1 {
			end = last
		}
		specs[i] = intervalSpec{start: bound(i), end: end}
	}
	return &runPlan{specs: specs, total: partTotal, group: nshards}
}

// samplePlan spreads K measure windows of sampleInsts instructions evenly
// across [0, partTotal). The windows tile a small fraction of the trace;
// everything between them is never simulated, which is where the speedup
// comes from.
func (s *Session) samplePlan(partTotal, last uint64) *runPlan {
	var specs []intervalSpec
	if partTotal == 0 || s.sampleInsts >= partTotal {
		// The window covers the whole (or an unknown-length) trace:
		// degenerate to one full interval, ending at last; the CI is
		// then zero.
		specs = []intervalSpec{{start: 0, end: last}}
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
			specs[i] = intervalSpec{start: start, end: start + s.sampleInsts}
		}
	}
	return &runPlan{specs: specs, total: partTotal, group: len(specs)}
}

// intervalOpening says how one interval obtains its warm state.
type intervalOpening struct {
	// boundary is where the interval's timed lead-in begins and its warm
	// state is restored; 0 for an interval that starts cold (at the trace
	// head, or under WithColdShards).
	boundary uint64
	// key is the boundary's checkpoint store key ("" when not
	// checkpointed), and hit whether the store held a usable snapshot.
	key string
	hit bool
	// stored is that snapshot, read from the store once while planning
	// and held until the interval takes it.
	stored *ckpt.Snapshot
	// walked delivers the warming walk's snapshot when the store did not.
	walked chan []byte
}

// errNoRestore reports a snapshot that does not decode or does not fit the
// processor it was restored onto.
var errNoRestore = errors.New("streamfetch: warm state does not restore")

// runIntervals simulates the plan's intervals in parallel (up to the
// process-wide worker budget). outs[i] stays nil for intervals that did
// not complete (cancellation).
//
// Every interval with a warm boundary opens by restoring a snapshot: from
// the checkpoint store when it holds one, or else from a single
// functional-warming walk over the trace that stops at each missing
// boundary in turn. Snapshots stream from the walk to the workers as they
// are taken: intervals without a boundary run alongside the walk, and the
// walk waits for a worker to take each snapshot, so about one per worker
// is alive at a time. The walk runs on its own goroutine outside the par
// budget: holding a token while it waits for a worker would keep that
// worker from starting. warmSecs is the walk's wall time.
func (s *Session) runIntervals(ctx context.Context, lay *layout.Layout, p *runPlan) (outs []*shardOut, warmSecs float64, err error) {
	specs := p.specs
	opens := make([]intervalOpening, len(specs))
	var bounds []uint64
	var walked []chan []byte
	// traceSum is a trace file's digest, hashed for the first boundary
	// that looks up a checkpoint.
	var traceSum string
	for i, spec := range specs {
		o := &opens[i]
		if s.coldShards || spec.start <= s.warmup {
			continue
		}
		o.boundary = spec.start - s.warmup
		if s.ckptStore != nil {
			if s.traceFile != "" && traceSum == "" {
				if traceSum, err = traceDigest(s.traceFile); err != nil {
					return nil, 0, err
				}
			}
			if k, ok := s.ckptKeySpec(lay, o.boundary, traceSum); ok {
				o.key = store.Key(k)
				o.stored = s.storedCkpt(o.key, o.boundary)
				o.hit = o.stored != nil
			}
		}
		if !o.hit {
			o.walked = make(chan []byte)
			bounds = append(bounds, o.boundary)
			walked = append(walked, o.walked)
		}
	}

	// One cursor positions every interval: it walks the run's source once
	// and forks it at each lead-in start.
	leadIns := make([]uint64, len(specs))
	for i, spec := range specs {
		leadIns[i] = s.intervalConfig(spec).LeadIn()
	}
	src, err := s.newSource(lay.Prog)
	if err != nil {
		return nil, 0, err
	}
	cur, err := trace.NewCursor(src, lay.Prog, leadIns)
	if err != nil {
		src.Close()
		return nil, 0, err
	}
	defer cur.Close()

	walkCtx, stopWalk := context.WithCancel(ctx)
	walkDone := make(chan struct{})
	var walkErr error
	if len(bounds) == 0 {
		close(walkDone)
	} else {
		go func() {
			defer close(walkDone)
			defer func() {
				if r := recover(); r != nil {
					walkErr = fmt.Errorf("streamfetch: warming panicked: %v\n%s", r, debug.Stack())
				}
			}()
			start := time.Now()
			walkErr = s.warmBoundaries(walkCtx, lay, bounds, func(k int, snap []byte) error {
				select {
				case walked[k] <- snap:
					return nil
				case <-walkCtx.Done():
					return walkCtx.Err()
				}
			})
			warmSecs = time.Since(start).Seconds()
		}()
	}

	outs = make([]*shardOut, len(specs))
	err = par.Do(ctx, len(specs), func(i int) error {
		src, at, err := cur.Fork(i)
		if err != nil {
			return err
		}
		o := &opens[i]
		snap := o.stored
		o.stored = nil
		if o.walked != nil {
			select {
			case blob := <-o.walked:
				snap = s.publishCkpt(o.key, blob)
			case <-walkDone:
				src.Close()
				return walkErr
			}
		}
		// snap is not read after runInterval, so it is garbage while the
		// interval simulates.
		out, err := s.runInterval(ctx, lay, p, i, src, at, o.boundary, snap)
		if err == errNoRestore && o.hit {
			// The stored snapshot decodes but does not fit this
			// processor: warm this boundary on its own instead, and
			// skip a fresh source to the interval the same way.
			o.hit = false
			var blob []byte
			if blob, err = s.warmBoundary(ctx, lay, o.boundary); err == nil {
				snap = s.publishCkpt(o.key, blob)
				if src, err = s.newSource(lay.Prog); err == nil {
					out, err = s.runInterval(ctx, lay, p, i, src, 0, o.boundary, snap)
				}
			}
		}
		if err != nil {
			return err
		}
		out.ckptHit = o.hit
		out.ckptMiss = o.key != "" && !o.hit
		outs[i] = out
		return nil
	})
	stopWalk()
	<-walkDone
	if err == nil {
		// Every snapshot was taken; the walk can still fail closing its
		// trace.
		err = walkErr
	}
	return outs, warmSecs, err
}

// warmBoundaries walks the trace once from its head with a functional-
// warming processor and hands take the encoded warm state at each of the
// ascending bounds, in order.
func (s *Session) warmBoundaries(ctx context.Context, lay *layout.Layout, bounds []uint64, take func(k int, snap []byte) error) error {
	src, err := s.newSource(lay.Prog)
	if err != nil {
		return err
	}
	proc, err := sim.New(lay, src, s.simConfig(ctx, lay, 0, 0, 0))
	if err != nil {
		src.Close()
		return err
	}
	eng := proc.Engine()
	// Encode copies the engine section, so one scratch buffer serves
	// every boundary.
	var engState []byte
	err = proc.WarmPrefix(ctx, bounds, func(k int, _ uint64) error {
		engState = eng.AppendWarmState(engState[:0])
		return take(k, ckpt.Encode(nil, bounds[k], proc.Hier(), proc.Gen(), eng.Name(), engState))
	})
	if cerr := src.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("streamfetch: warming reading trace: %w", cerr)
	}
	return err
}

// warmBoundary takes the warm state at one boundary with a walk of its
// own.
func (s *Session) warmBoundary(ctx context.Context, lay *layout.Layout, boundary uint64) (snap []byte, err error) {
	err = s.warmBoundaries(ctx, lay, []uint64{boundary}, func(_ int, b []byte) error {
		snap = b
		return nil
	})
	return snap, err
}

// storedCkpt returns the store's snapshot for boundary under key, decoded,
// or nil when it is absent, undecodable or for another boundary: a clean
// miss.
func (s *Session) storedCkpt(key string, boundary uint64) *ckpt.Snapshot {
	blob, ok, err := s.ckptStore.GetBlob(key)
	if err != nil || !ok {
		return nil
	}
	snap, err := ckpt.Decode(blob)
	if err != nil || snap.Boundary != boundary {
		return nil
	}
	return snap
}

// publishCkpt stores a freshly warmed snapshot for the next run of its
// boundary and returns it decoded for the interval's own restore (nil
// when it does not decode, which runInterval reports). Publishing is
// best-effort: a full or failing store must not fail a run.
func (s *Session) publishCkpt(key string, blob []byte) *ckpt.Snapshot {
	if key != "" {
		_ = s.ckptStore.PutBlob(key, blob)
	}
	snap, _ := ckpt.Decode(blob)
	return snap
}

// intervalConfig places spec's measure window and the session's timed
// lead-in in the trace.
func (s *Session) intervalConfig(spec intervalSpec) trace.IntervalConfig {
	return trace.IntervalConfig{Start: spec.start, End: spec.end, Warmup: s.warmup}
}

// runInterval simulates interval i of plan p over src, which stands at
// instruction at (see trace.NewInterval) and which runInterval closes. An
// interval with a warm boundary restores snap, the state there, onto its
// fresh processor before the first timed cycle, and simulates only its
// timed lead-in and measure window. It fails with errNoRestore, before
// running, when snap is missing, for another boundary or for another
// configuration.
func (s *Session) runInterval(ctx context.Context, lay *layout.Layout, p *runPlan, i int, src trace.Source, at, boundary uint64, snap *ckpt.Snapshot) (*shardOut, error) {
	if boundary > 0 && (snap == nil || snap.Boundary != boundary) {
		src.Close()
		return nil, errNoRestore
	}
	spec := p.specs[i]
	iv, err := trace.NewInterval(src, at, lay.Prog, s.intervalConfig(spec))
	if err != nil {
		src.Close()
		return nil, err
	}
	total := p.total
	if n, exact := iv.TotalInsts(); exact && (total == 0 || n < total) {
		total = n
	}
	proc, err := sim.New(lay, iv, s.simConfig(ctx, lay, total, i, p.group))
	if err != nil {
		iv.Close()
		return nil, err
	}
	if boundary > 0 {
		eng := proc.Engine()
		if eng.Name() != snap.EngineName || snap.Apply(proc.Hier(), proc.Gen()) != nil ||
			eng.LoadWarmState(snap.Engine) != nil {
			// The processor may be half-restored: discard it unrun.
			iv.Close()
			return nil, errNoRestore
		}
	}
	runStart := time.Now()
	res := proc.Run()
	runSecs := time.Since(runStart).Seconds()
	if err := iv.Close(); err != nil {
		// A decode error mid-stream looks like a short trace to the sim;
		// surface it instead of reporting a silently truncated run.
		return nil, fmt.Errorf("streamfetch: interval %d reading trace: %w", i, err)
	}
	if err := proc.Err(); err != nil {
		return nil, fmt.Errorf("streamfetch: interval %d: %w", i, err)
	}
	return &shardOut{
		res:         res,
		start:       spec.start,
		measured:    iv.MeasuredInsts(),
		warm:        iv.WarmupInsts(),
		measureSecs: runSecs,
	}, nil
}

// ckptKeySpec is a checkpoint's canonical identity, hashed into its
// store key. It covers every session input that shapes the warm state
// at a boundary: the trace identity (benchmark, seeds, lengths, and a
// trace file's sha256, so a file overwritten in place keys anew), the
// code layout, the hierarchy geometry, the engine
// and its options, and the boundary position itself. Two versions retire
// old blobs wholesale: Model (modelVersion) when what warming computes
// changes, Version (ckpt.Version) when the snapshot format does. A blob
// under a reused key is never replaced, so a format change must move the
// key too, or the stale blob would miss forever.
type ckptKeySpec struct {
	Kind       string `json:"kind"`
	Model      int    `json:"model"`
	Version    int    `json:"version"`
	Benchmark  string `json:"benchmark"`
	TraceSum   string `json:"trace_sha256,omitempty"`
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

// ckptKeySpec resolves this session's checkpoint identity at the given
// boundary, for a trace file of digest traceSum (traceDigest; "" for a
// generated trace); store.Key of it is the checkpoint's store key. The
// second return is false when the configuration has no stable identity
// (unserializable engine options) and checkpointing must stay off for
// the run.
func (s *Session) ckptKeySpec(lay *layout.Layout, boundary uint64, traceSum string) (ckptKeySpec, bool) {
	opts := ""
	if s.engineOpts != nil {
		b, err := json.Marshal(s.engineOpts)
		if err != nil {
			return ckptKeySpec{}, false
		}
		opts = string(b)
	}
	// The effective training length, so "default by omission" and
	// "default spelled out" share checkpoints.
	train := s.training().insts
	return ckptKeySpec{
		Kind:       "ckpt",
		Model:      modelVersion,
		Version:    ckpt.Version,
		Benchmark:  s.benchmark,
		TraceSum:   traceSum,
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
	}, true
}

// traceDigest returns the hex sha256 of the trace file at path: the
// identity its checkpoints key on.
func traceDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", fmt.Errorf("streamfetch: hashing trace %s: %w", path, err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("streamfetch: hashing trace %s: %w", path, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// mergeOuts combines completed intervals into the plan's report (nil when
// none completed). Event counters merge losslessly; aggregate IPC is the
// merged retired count over the merged cycle count. TraceInsts is what
// the intervals measured: the whole (capped) trace for an unsharded or
// sharded run. A sharded run of more than one interval lists its
// intervals. A sampled run's merged counters are the estimate: ipc_ci95
// carries the 95% confidence half-width on IPC from the per-window
// spread, and TraceInsts is the sampled coverage, not the full trace
// length.
func (s *Session) mergeOuts(lay *layout.Layout, p *runPlan, outs []*shardOut) *Report {
	var agg sim.Counters
	var traceInsts, hits, misses uint64
	var ipcs []float64
	aborted := false
	intervals := make([]IntervalReport, 0, len(outs))
	for i, o := range outs {
		if o == nil {
			aborted = true
			continue
		}
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
		if o.res.Cycles > 0 {
			ipcs = append(ipcs, o.res.IPC())
		}
		intervals = append(intervals, IntervalReport{
			Index:          i,
			StartInsts:     o.start,
			Insts:          o.measured,
			WarmupInsts:    o.warm,
			Cycles:         o.res.Cycles,
			Retired:        o.res.Retired,
			IPC:            o.res.IPC(),
			MispredRate:    o.res.MispredRate(),
			FetchIPC:       o.res.Fetch.FetchIPC(),
			ICacheMissRate: o.res.ICache.MissRate(),
		})
	}
	if len(intervals) == 0 {
		return nil
	}
	res := sim.Result{
		Engine:   s.engine,
		Width:    s.width,
		Aborted:  aborted,
		Counters: agg,
	}
	rep := newReport(s.benchmark, lay, traceInsts, s.reportSeed(), res)
	rep.CheckpointHits = hits
	rep.CheckpointMisses = misses
	switch {
	case s.samples > 0:
		rep.Samples = p.group
		rep.SampleInsts = s.sampleInsts
		rep.WarmupInsts = s.warmup
		rep.Intervals = intervals
		rep.IPCCI95 = stats.CI95(ipcs)
	case p.group > 1:
		rep.Shards = p.group
		rep.WarmupInsts = s.warmup
		rep.Intervals = intervals
	}
	return rep
}

// traceTotal returns the partition basis: the logical run's length in CFG
// instructions. Exact for seeded budgets, legacy headers and indexed
// files; a footer-only trace file is pre-scanned once (a decode-only pass,
// no simulation).
func (s *Session) traceTotal(prog *cfg.Program) (uint64, error) {
	switch {
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
