package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"streamfetch"
	"streamfetch/internal/store"
)

var (
	plainBenches  = []string{"164.gzip", "176.gcc", "300.twolf"}
	replayBenches = []string{"176.gcc", "253.perlbmk"}
)

// op is one operation of a closed loop: do runs and checks it and
// returns the instructions it simulated.
type op struct {
	name string
	do   func(context.Context) (retired uint64, err error)
}

// loopStats gathers a closed loop's timings.
type loopStats struct {
	ops      int                  // operations per round
	wall     map[string][]float64 // op name → wall seconds of each success
	roundCPU []float64            // CPU seconds of each round
	retired  uint64
}

// rounds is how many rounds a closed loop makes: as many as fit in the
// measurement time when one takes roundSecs, the wall time it took on a
// 2-vCPU host, and at least one. The count depends on --seconds alone,
// never on how fast the host runs, so every run of a workload does the
// same work.
func (b *bench) rounds(roundSecs float64) int {
	return max(1, int(math.Round(b.cfg.seconds/roundSecs)))
}

// closedLoop runs rounds of ops, each round in a seeded order. After a
// single round, one operation drawn from the seed runs once more,
// unmeasured, so that repeats are checked all the same.
func (b *bench) closedLoop(ctx context.Context, ops []op, rounds int) *loopStats {
	ls := &loopStats{ops: len(ops), wall: map[string][]float64{}}
	for range rounds {
		cpu := cpuNow()
		for _, i := range b.rng.Perm(len(ops)) {
			start := time.Now()
			retired, err := ops[i].do(ctx)
			b.ops.op(wrapErr(ops[i].name, err))
			if err == nil {
				ls.wall[ops[i].name] = append(ls.wall[ops[i].name], time.Since(start).Seconds())
				ls.retired += retired
			}
		}
		ls.roundCPU = append(ls.roundCPU, cpuNow()-cpu)
	}
	if rounds == 1 {
		o := ops[b.rng.IntN(len(ops))]
		_, err := o.do(ctx)
		b.ops.op(wrapErr(o.name+" again", err))
	}
	return ls
}

// emitCPU emits cpu_ms_per_op from the CPU time of rounds that each do
// the same n operations: the rounds' lower quartile (their smallest when
// there are fewer than four), over n. Equal work leaves the rounds
// differing mainly by how much a busy neighbour on the host slowed them;
// the lower quartile keeps the rounds it spared.
func (b *bench) emitCPU(rounds []float64, n int) {
	b.note("%d rounds of %d operations, CPU per round: low %.4gs, median %.4gs", len(rounds), n, low(rounds), median(rounds))
	b.emit("cpu_ms_per_op", low(rounds)/float64(n)*1000, "ms")
}

// emitLoop summarizes a closed loop's wall-clock latencies and emits its
// CPU time per operation.
func (b *bench) emitLoop(ls *loopStats) {
	var wall float64
	for _, name := range slices.Sorted(maps.Keys(ls.wall)) {
		b.note("%-18s wall %s", name, describe(ls.wall[name], 1000, "ms"))
		for _, w := range ls.wall[name] {
			wall += w
		}
	}
	b.note("%.4g Minsts simulated per wall second", float64(ls.retired)/wall/1e6)
	b.emitCPU(ls.roundCPU, ls.ops)
}

// simOp is one simulation on a prepared session.
type simOp struct {
	name, engine string
	sess         *streamfetch.Session
	opts         []streamfetch.Option
}

// loopOp makes s a closed-loop operation. Its report must be plausible,
// pass check when one is given, and repeat the model fields of the
// first run, which it records in first.
func (s simOp) loopOp(first map[string]*streamfetch.Report, check func(*streamfetch.Report) error) op {
	return op{name: s.name, do: func(ctx context.Context) (uint64, error) {
		rep, err := s.sess.RunWith(ctx, s.opts...)
		if err = checkRun(rep, err); err == nil && check != nil {
			err = check(rep)
		}
		if err != nil {
			return 0, err
		}
		if f, ok := first[s.name]; !ok {
			first[s.name] = rep
		} else if modelJSON(f) != modelJSON(rep) {
			return 0, errors.New("report differs from the first run of the same configuration")
		}
		return rep.Retired, nil
	}}
}

// loopOps makes every simulation a closed-loop operation.
func loopOps(sims []simOp, first map[string]*streamfetch.Report) []op {
	var ops []op
	for _, s := range sims {
		ops = append(ops, s.loopOp(first, nil))
	}
	return ops
}

// prepare builds one prepared session per benchmark at the run's
// reference seed.
func (b *bench) prepare(ctx context.Context, benches []string, insts uint64, opts ...streamfetch.Option) ([]*streamfetch.Session, error) {
	var out []*streamfetch.Session
	for _, name := range benches {
		s := streamfetch.New(name, append([]streamfetch.Option{
			streamfetch.WithSeed(b.refSeed), streamfetch.WithInstructions(insts)}, opts...)...)
		if err := s.Prepare(ctx); err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// engineOps crosses sessions with the four engines.
func engineOps(sessions []*streamfetch.Session) []simOp {
	var ops []simOp
	for _, s := range sessions {
		for _, e := range engines {
			ops = append(ops, simOp{
				name:   s.Benchmark() + "/" + e,
				engine: e,
				sess:   s,
				opts:   []streamfetch.Option{streamfetch.WithEngine(e)},
			})
		}
	}
	return ops
}

// Wall seconds of one round on a 2-vCPU host (see rounds).
const (
	plainRoundSecs   = 9
	replayRoundSecs  = 6
	shardedRoundSecs = 7
	coldRoundSecs    = 3
)

func (b *bench) plain(ctx context.Context) error {
	sessions, err := setUp(b, func() ([]*streamfetch.Session, error) {
		return b.prepare(ctx, plainBenches, b.cfg.sz.simInsts,
			streamfetch.WithOptimizedLayout(), streamfetch.WithWidth(8))
	}, func([]*streamfetch.Session) {})
	if err != nil {
		return err
	}
	ops := loopOps(engineOps(sessions), map[string]*streamfetch.Report{})
	b.emitLoop(b.closedLoop(ctx, ops, b.rounds(plainRoundSecs)))
	return nil
}

// replayState holds the trace files set-up wrote, the sessions replaying
// them and the generator sessions they were written from.
type replayState struct {
	dir       string
	gen, file []*streamfetch.Session
}

func (b *bench) replaySetup(ctx context.Context) (*replayState, error) {
	dir, err := os.MkdirTemp(b.cfg.dir, "replay-")
	if err != nil {
		return nil, err
	}
	rs := &replayState{dir: dir}
	shape := []streamfetch.Option{streamfetch.WithBaseLayout(), streamfetch.WithWidth(4)}
	rs.gen, err = b.prepare(ctx, replayBenches, b.cfg.sz.simInsts, shape...)
	if err != nil {
		return rs, err
	}
	for _, g := range rs.gen {
		path := filepath.Join(dir, g.Benchmark()+".trc")
		if err := writeTrace(ctx, g, path); err != nil {
			return rs, err
		}
		s := streamfetch.New(g.Benchmark(), append([]streamfetch.Option{streamfetch.WithTraceFile(path)}, shape...)...)
		if err := s.Prepare(ctx); err != nil {
			return rs, err
		}
		rs.file = append(rs.file, s)
	}
	return rs, nil
}

func writeTrace(ctx context.Context, s *streamfetch.Session, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	if _, err := s.WriteTrace(ctx, w); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

func (b *bench) replay(ctx context.Context) error {
	rs, err := setUp(b, func() (*replayState, error) { return b.replaySetup(ctx) },
		func(rs *replayState) { os.RemoveAll(rs.dir) })
	if err != nil {
		return err
	}
	defer os.RemoveAll(rs.dir)
	first := map[string]*streamfetch.Report{}
	b.emitLoop(b.closedLoop(ctx, loopOps(engineOps(rs.file), first), b.rounds(replayRoundSecs)))

	// A replayed trace must simulate exactly like the generator run it was
	// written from. Every engine consumes the whole trace, so one engine
	// per benchmark, drawn from the seed, checks the decoded supply.
	for _, g := range rs.gen {
		e := engines[b.rng.IntN(len(engines))]
		s := engineOps([]*streamfetch.Session{g})[slices.Index(engines, e)]
		rep, err := s.sess.RunWith(ctx, s.opts...)
		if err = checkRun(rep, err); err == nil {
			if replayed := first[s.name]; replayed == nil || modelJSON(replayed) != modelJSON(rep) {
				err = errors.New("replayed report differs from the generator run")
			}
		}
		b.ops.op(wrapErr(s.name+" replay vs generator", err))
	}
	return nil
}

// shardShape fixes the sharded workload's run options: a 2-shard run
// with a 2.5% warmup lead-in, and 8 sampled windows of 2.5% of the trace
// with a 0.5% lead-in, both restoring warm checkpoints from st.
type shardShape struct{ insts uint64 }

func (sh shardShape) warmup() uint64 { return sh.insts / 40 }
func (sh shardShape) window() uint64 { return sh.insts / 40 }

const samples = 8

func (sh shardShape) shard2(st store.Store) []streamfetch.Option {
	return []streamfetch.Option{streamfetch.WithShards(2), streamfetch.WithWarmup(sh.warmup()),
		streamfetch.WithCheckpoints(st)}
}

func (sh shardShape) sampled(st store.Store) []streamfetch.Option {
	return []streamfetch.Option{streamfetch.WithSampling(samples, sh.window()),
		streamfetch.WithWarmup(sh.insts / 200), streamfetch.WithCheckpoints(st)}
}

// shardState is the sharded workload's session, the store set-up filled
// with its checkpoints, and the reports of the runs that filled it: a
// 2-shard and a sampled run that both warmed every interval functionally,
// which the runs restoring their checkpoints must reproduce.
type shardState struct {
	s                  *streamfetch.Session
	st                 store.Store
	warmed2, warmedSam *streamfetch.Report
}

// shardSession prepares the sharded workload's session and fills st with
// the checkpoints its runs restore; extra options apply to the filling
// runs.
func (b *bench) shardSession(ctx context.Context, sh shardShape, st store.Store, extra ...streamfetch.Option) (shardState, error) {
	ss, err := b.prepare(ctx, []string{"176.gcc"}, sh.insts, streamfetch.WithOptimizedLayout(),
		streamfetch.WithWidth(8), streamfetch.WithEngine("streams"))
	if err != nil {
		return shardState{}, err
	}
	cur := shardState{s: ss[0], st: st}
	if cur.warmed2, err = cur.s.RunWith(ctx, append(sh.shard2(st), extra...)...); err != nil {
		return cur, err
	}
	cur.warmedSam, err = cur.s.RunWith(ctx, append(sh.sampled(st), extra...)...)
	return cur, err
}

// sameModel checks that rep has the model fields of want, the run that
// warmed functionally what rep restored.
func sameModel(rep, want *streamfetch.Report) error {
	if modelJSON(rep) != modelJSON(want) {
		return errors.New("checkpointed report differs from the functionally warmed run")
	}
	return nil
}

// restored checks that a checkpointed run restored every interval it
// could and warmed none functionally.
func restored(rep *streamfetch.Report) error {
	if rep.CheckpointHits == 0 || rep.CheckpointMisses != 0 {
		return fmt.Errorf("checkpoints: %d hits, %d misses; want all hits", rep.CheckpointHits, rep.CheckpointMisses)
	}
	return nil
}

// fullCoverage checks that a sampled run simulated every window to its
// end.
func fullCoverage(rep *streamfetch.Report, window uint64) error {
	if rep.Samples != samples || len(rep.Intervals) != samples {
		return fmt.Errorf("sampled run has %d samples, %d windows; want %d", rep.Samples, len(rep.Intervals), samples)
	}
	var insts, retired uint64
	for _, iv := range rep.Intervals {
		if iv.Insts == 0 || iv.Retired == 0 {
			return fmt.Errorf("sampled window %d is empty", iv.Index)
		}
		insts += iv.Insts
		retired += iv.Retired
	}
	if insts != rep.TraceInsts || retired != rep.Retired || insts*100 < samples*window*99 {
		return fmt.Errorf("sampled run covers %d of %d instructions, retires %d of %d",
			insts, samples*window, rep.Retired, retired)
	}
	return nil
}

func (b *bench) sharded(ctx context.Context) error {
	sh := shardShape{insts: b.cfg.sz.shardInsts}
	cur, err := setUp(b, func() (shardState, error) { return b.shardSession(ctx, sh, store.NewMem()) },
		func(cur shardState) { cur.st.Close() })
	if err != nil {
		return err
	}
	defer cur.st.Close()
	first := map[string]*streamfetch.Report{}
	ls := b.closedLoop(ctx, []op{
		simOp{name: "single", sess: cur.s}.loopOp(first, nil),
		simOp{name: "shard2", sess: cur.s, opts: sh.shard2(cur.st)}.loopOp(first, func(rep *streamfetch.Report) error {
			if err := restored(rep); err != nil {
				return err
			}
			return sameModel(rep, cur.warmed2)
		}),
		simOp{name: "sampled", sess: cur.s, opts: sh.sampled(cur.st)}.loopOp(first, func(rep *streamfetch.Report) error {
			if err := restored(rep); err != nil {
				return err
			}
			if err := fullCoverage(rep, sh.window()); err != nil {
				return err
			}
			return sameModel(rep, cur.warmedSam)
		}),
	}, b.rounds(shardedRoundSecs))
	b.emitLoop(ls)
	if single, shard2 := median(ls.wall["single"]), median(ls.wall["shard2"]); shard2 > 0 {
		b.note("2-shard wall-clock speedup over single-shot: %.3f", single/shard2)
	}
	return nil
}

// checkRun rejects a failed or implausible simulation.
func checkRun(rep *streamfetch.Report, err error) error {
	switch {
	case err != nil:
		return err
	case rep == nil:
		return errors.New("no report")
	case rep.Aborted:
		return errors.New("run aborted")
	case rep.Retired == 0 || rep.Cycles == 0:
		return errors.New("run retired nothing")
	case rep.IPC > float64(rep.Width):
		return fmt.Errorf("IPC %.3f exceeds width %d", rep.IPC, rep.Width)
	}
	return nil
}

// modelJSON renders a report's model fields: the report with its
// wall-clock timings, checkpoint counters and seed attribution removed.
// Two runs of one model configuration agree on it byte for byte.
func modelJSON(rep *streamfetch.Report) string {
	r := *rep
	r.Timings = nil
	r.CheckpointHits, r.CheckpointMisses = 0, 0
	r.Seed = 0
	return mustJSON(&r)
}

// reportJSON renders a report without its wall-clock timings.
func reportJSON(rep *streamfetch.Report) string {
	r := *rep
	r.Timings = nil
	return mustJSON(&r)
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // reports are plain data
	}
	return string(b)
}

func wrapErr(what string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", what, err)
}
