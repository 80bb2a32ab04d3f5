package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"streamfetch"
	"streamfetch/internal/cache"
	"streamfetch/internal/cfg"
	"streamfetch/internal/ckpt"
	"streamfetch/internal/frontend"
	"streamfetch/internal/isa"
	"streamfetch/internal/layout"
	"streamfetch/internal/pipeline"
	"streamfetch/internal/sim"
	"streamfetch/internal/store"
	"streamfetch/internal/trace"
)

var registerOnce sync.Once

// registerTraced registers traced-<engine>, a wrapper timing each call
// into the named engine, for every engine of the fixed list.
func registerTraced() {
	registerOnce.Do(func() {
		for _, e := range engines {
			frontend.Register("traced-"+e, func(env frontend.BuildEnv, opts any) (frontend.Engine, error) {
				inner, err := frontend.New(e, env, opts)
				if err != nil {
					return nil, err
				}
				return &timedEngine{Engine: inner}, nil
			})
		}
	})
}

// engineClock is the time and call count spent in one engine's methods.
type engineClock struct {
	cycle, redirect   time.Duration
	cycles, redirects uint64
	commits           uint64
	commitSamples     []time.Duration // every commitSample-th Commit
}

func (c *engineClock) add(o engineClock) {
	c.cycle += o.cycle
	c.redirect += o.redirect
	c.cycles += o.cycles
	c.redirects += o.redirects
	c.commits += o.commits
	c.commitSamples = append(c.commitSamples, o.commitSamples...)
}

// commit estimates the time spent in Commit: the mean sampled call, the
// slowest 1% left out, times the calls. One sampled call that the host
// descheduled would otherwise stand for commitSample calls.
func (c *engineClock) commit() time.Duration {
	if len(c.commitSamples) == 0 {
		return 0
	}
	s := slices.Clone(c.commitSamples)
	slices.Sort(s)
	s = s[:len(s)-len(s)/100]
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	return sum / time.Duration(len(s)) * time.Duration(c.commits)
}

func (c *engineClock) busy() time.Duration { return c.cycle + c.redirect + c.commit() }

// timedEngine times the calls the simulator makes into a fetch engine.
type timedEngine struct {
	frontend.Engine
	clk engineClock
}

func (e *timedEngine) Cycle(out []frontend.FetchedInst) []frontend.FetchedInst {
	start := time.Now()
	out = e.Engine.Cycle(out)
	e.clk.cycle += time.Since(start)
	e.clk.cycles++
	return out
}

func (e *timedEngine) Redirect(target isa.Addr, recover bool) {
	start := time.Now()
	e.Engine.Redirect(target, recover)
	e.clk.redirect += time.Since(start)
	e.clk.redirects++
}

// commitSample: Commit runs once per retired instruction, too often and
// too briefly to time every call, so one call in commitSample is timed.
const commitSample = 64

func (e *timedEngine) Commit(c frontend.Committed) {
	e.clk.commits++
	if e.clk.commits%commitSample != 0 {
		e.Engine.Commit(c)
		return
	}
	start := time.Now()
	e.Engine.Commit(c)
	e.clk.commitSamples = append(e.clk.commitSamples, time.Since(start))
}

// timedSource times NextBatch, the simulator's pull from a whole-trace
// source.
type timedSource struct {
	trace.Source
	busy time.Duration
}

func (s *timedSource) NextBatch(dst []cfg.BlockID) int {
	start := time.Now()
	n := s.Source.NextBatch(dst)
	s.busy += time.Since(start)
	return n
}

// timedStore times a store's journal and blob calls. Shards and the
// service call it from several goroutines.
type timedStore struct {
	store.Store
	mu       sync.Mutex
	journal  []float64 // seconds per Journal call
	get, put time.Duration
	putBytes int
	keys     []string
}

func (s *timedStore) Journal(rec store.JournalRecord) error {
	start := time.Now()
	err := s.Store.Journal(rec)
	d := time.Since(start)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = append(s.journal, d.Seconds())
	return err
}

func (s *timedStore) PutBlob(key string, data []byte) error {
	start := time.Now()
	err := s.Store.PutBlob(key, data)
	d := time.Since(start)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.put += d
	s.putBytes += len(data)
	s.keys = append(s.keys, key)
	return err
}

func (s *timedStore) GetBlob(key string) ([]byte, bool, error) {
	start := time.Now()
	data, ok, err := s.Store.GetBlob(key)
	d := time.Since(start)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.get += d
	return data, ok, err
}

// layerTotals accumulates the traced simulations of a round.
type layerTotals struct {
	clk              map[string]*engineClock
	ctr              map[string]*sim.Counters
	nextBatch        time.Duration
	traced, untraced time.Duration
}

// tour is the traced run: one round of every workload with the layers
// timed from outside, plus the layer ceilings, so every per-layer metric
// is measured whichever workload was named.
func (b *bench) tour(ctx context.Context) error {
	registerTraced()
	lt := &layerTotals{clk: map[string]*engineClock{}, ctr: map[string]*sim.Counters{}}
	for _, e := range engines {
		lt.clk[e], lt.ctr[e] = &engineClock{}, &sim.Counters{}
	}

	start := time.Now()
	plain, err := b.prepare(ctx, plainBenches, b.cfg.sz.simInsts,
		streamfetch.WithOptimizedLayout(), streamfetch.WithWidth(8))
	if err != nil {
		return err
	}
	b.emit("layout.prepare_s", time.Since(start).Seconds(), "s")
	if err := b.traceRound(ctx, lt, engineOps(plain), "optimized", 8); err != nil {
		return err
	}
	gcc := plain[1]
	if err := b.loopAllocs(gcc); err != nil {
		return err
	}
	lay, err := gcc.Layout("optimized")
	if err != nil {
		return err
	}
	rate, err := supplyCeiling(lay, gcc.Source)
	if err != nil {
		return err
	}
	b.emit("trace.supply_gen_minsts_per_s", rate, "Minsts/s")
	if rate, err = cacheCeiling(lay, gcc.Source, 8); err != nil {
		return err
	}
	b.emit("cache.replay_maccesses_per_s", rate, "Maccesses/s")

	rs, err := b.replaySetup(ctx)
	if rs != nil {
		defer os.RemoveAll(rs.dir)
	}
	if err != nil {
		return err
	}
	if err := b.traceRound(ctx, lt, engineOps(rs.file), "base", 4); err != nil {
		return err
	}
	if lay, err = rs.file[0].Layout("base"); err != nil {
		return err
	}
	if rate, err = supplyCeiling(lay, rs.file[0].Source); err != nil {
		return err
	}
	b.emit("trace.supply_file_minsts_per_s", rate, "Minsts/s")
	b.emitLayers(lt)

	if err := b.traceSharded(ctx); err != nil {
		return err
	}
	return b.traceService(ctx)
}

// traceRound runs each op twice: untraced through its session, then
// traced through sim.New with a timed source and the traced engine. Both
// must count the same events.
func (b *bench) traceRound(ctx context.Context, lt *layerTotals, ops []simOp, layoutName string, width int) error {
	for _, op := range ops {
		start := time.Now()
		rep, err := op.sess.RunWith(ctx, op.opts...)
		lt.untraced += time.Since(start)
		if err := checkRun(rep, err); err != nil {
			b.ops.op(wrapErr(op.name, err))
			continue
		}
		lay, err := op.sess.Layout(layoutName)
		if err != nil {
			return err
		}
		src, err := op.sess.Source()
		if err != nil {
			return err
		}
		ts := &timedSource{Source: src}
		proc, err := sim.New(lay, ts, sim.Config{Width: width, Engine: "traced-" + op.engine})
		if err != nil {
			src.Close()
			return err
		}
		start = time.Now()
		res := proc.Run()
		lt.traced += time.Since(start)
		if err := src.Close(); err != nil {
			return err
		}
		lt.nextBatch += ts.busy
		lt.clk[op.engine].add(proc.Engine().(*timedEngine).clk)
		lt.ctr[op.engine].Merge(res.Counters)
		if !sameCounters(rep, res.Counters) {
			err = errors.New("traced counters differ from the untraced run")
		}
		b.ops.op(wrapErr(op.name+" traced", err))
	}
	return nil
}

// sameCounters reports whether a report and a counter block agree on
// every event count.
func sameCounters(rep *streamfetch.Report, c sim.Counters) bool {
	stats := func(r streamfetch.CacheReport, s cache.Stats) bool {
		return r.Accesses == s.Accesses && r.Misses == s.Misses
	}
	f := rep.Fetch
	return rep.Cycles == c.Cycles && rep.Retired == c.Retired && rep.Branches == c.Branches &&
		rep.Mispredicted == c.Mispredicted && rep.Misfetches == c.Misfetches &&
		f.Delivered == c.Fetch.Delivered && f.Cycles == c.Fetch.Cycles &&
		f.DeliveryCycles == c.Fetch.DeliveryCycles && f.Units == c.Fetch.Units &&
		f.UnitInsts == c.Fetch.UnitInsts && f.PredictorLookups == c.Fetch.PredictorLookups &&
		f.PredictorHits == c.Fetch.PredictorHits &&
		stats(rep.ICache, c.ICache) && stats(rep.DCache, c.DCache) && stats(rep.L2, c.L2)
}

// emitLayers emits the front-end, cache, supply and simulator metrics of
// the traced plain and replay rounds.
func (b *bench) emitLayers(lt *layerTotals) {
	var all sim.Counters
	var engineBusy time.Duration
	for _, e := range engines {
		c, k := lt.clk[e], lt.ctr[e]
		all.Merge(*k)
		engineBusy += c.busy()
		p := "frontend." + e + "."
		b.emit(p+"cycle_s", c.cycle.Seconds(), "s")
		b.emit(p+"redirect_s", c.redirect.Seconds(), "s")
		b.emit(p+"commit_s", c.commit().Seconds(), "s")
		b.emit(p+"cycles", float64(c.cycles), "count")
		b.emit(p+"redirects", float64(c.redirects), "count")
		b.emit(p+"predictor_hit_ratio", ratio(k.Fetch.PredictorHits, k.Fetch.PredictorLookups), "ratio")
		b.emit(p+"fetch_ipc", k.Fetch.FetchIPC(), "insts/cycle")
		b.emit(p+"mispred_rate", ratio(k.Mispredicted, k.Branches), "ratio")
	}
	b.emit("cache.icache_miss_ratio", all.ICache.MissRate(), "ratio")
	b.emit("cache.dcache_miss_ratio", all.DCache.MissRate(), "ratio")
	b.emit("cache.l2_miss_ratio", all.L2.MissRate(), "ratio")
	b.emit("trace.next_batch_s", lt.nextBatch.Seconds(), "s")
	b.emit("sim.self_s", (lt.traced - engineBusy - lt.nextBatch).Seconds(), "s")
	b.emit("trace_overhead_ratio", lt.traced.Seconds()/lt.untraced.Seconds(), "ratio")
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// loopAllocs counts heap allocations inside Processor.Run alone, per
// engine, on the session's optimized layout at width 8.
func (b *bench) loopAllocs(s *streamfetch.Session) error {
	lay, err := s.Layout("optimized")
	if err != nil {
		return err
	}
	for _, e := range engines {
		src, err := s.Source()
		if err != nil {
			return err
		}
		proc, err := sim.New(lay, src, sim.Config{Width: 8, Engine: e})
		if err != nil {
			src.Close()
			return err
		}
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		res := proc.Run()
		runtime.ReadMemStats(&m1)
		if err := src.Close(); err != nil {
			return err
		}
		if res.Retired == 0 {
			return fmt.Errorf("%s: allocation run retired nothing", e)
		}
		b.emit("sim.loop_allocs_per_1k_insts."+e,
			float64(m1.Mallocs-m0.Mallocs)/(float64(res.Retired)/1000), "allocs/kinst")
	}
	return nil
}

// ceilingTime is how long a ceiling repeats its pass.
const ceilingTime = 250 * time.Millisecond

// eachDyn expands a source under lay batch by batch, the way the
// simulator's supply does, handing every expanded batch to fn.
func eachDyn(lay *layout.Layout, src trace.Source, fn func([]layout.DynInst)) error {
	blk := make([]cfg.BlockID, 512)
	buf := make([]layout.DynInst, 0, len(blk)*lay.MaxBlockSlots())
	have := 0
	for {
		n := src.NextBatch(blk[have:])
		if n == 0 {
			fn(lay.AppendDynRun(buf[:0], blk[:have], cfg.NoBlock))
			return src.Close()
		}
		have += n
		fn(lay.AppendDynRun(buf[:0], blk[:have-1], blk[have-1]))
		blk[0] = blk[have-1]
		have = 1
	}
}

// supplyCeiling is trace supply alone: NextBatch and AppendDynRun over
// fresh sources, no simulation, in millions of instructions per second.
func supplyCeiling(lay *layout.Layout, open func() (trace.Source, error)) (float64, error) {
	var insts int
	start := time.Now()
	for time.Since(start) < ceilingTime {
		src, err := open()
		if err != nil {
			return 0, err
		}
		if err := eachDyn(lay, src, func(d []layout.DynInst) { insts += len(d) }); err != nil {
			return 0, err
		}
	}
	return float64(insts) / time.Since(start).Seconds() / 1e6, nil
}

// cacheCeiling is the cache hierarchy alone: the trace's correct-path
// fetch lines, loads and stores (addresses from the simulator's load
// address generator) recorded once, then replayed into fresh
// hierarchies, in millions of accesses per second.
func cacheCeiling(lay *layout.Layout, open func() (trace.Source, error), width int) (float64, error) {
	type access struct {
		addr isa.Addr
		kind isa.Class // ClassLoad, ClassStore, or anything else for a fetch
	}
	c := sim.Config{Width: width}.WithDefaults()
	gen := pipeline.NewLoadAddrGen(c.Pipeline.DataWorkingSet, layout.CodeBase, lay.TotalSlots())
	lineMask := ^isa.Addr(c.Hier.ICache.LineBytes - 1)
	last := ^isa.Addr(0)
	var acc []access
	src, err := open()
	if err != nil {
		return 0, err
	}
	err = eachDyn(lay, src, func(d []layout.DynInst) {
		for _, di := range d {
			if line := di.Addr & lineMask; line != last {
				last = line
				acc = append(acc, access{addr: di.Addr, kind: isa.ClassALU})
			}
			if di.Class == isa.ClassLoad || di.Class == isa.ClassStore {
				acc = append(acc, access{addr: isa.Addr(gen.Next(di.Addr)), kind: di.Class})
			}
		}
	})
	if err != nil {
		return 0, err
	}
	n := 0
	start := time.Now()
	for time.Since(start) < ceilingTime {
		h := cache.NewHierarchy(c.Hier)
		for _, a := range acc {
			switch a.kind {
			case isa.ClassLoad:
				h.LoadLatency(a.addr)
			case isa.ClassStore:
				h.Store(a.addr)
			default:
				h.FetchLatency(a.addr)
			}
		}
		n += len(acc)
	}
	return float64(n) / time.Since(start).Seconds() / 1e6, nil
}

// traceSharded is one round of the sharded workload against a timed
// memory store, reading the stage split from the 2-shard run's timings.
func (b *bench) traceSharded(ctx context.Context) error {
	sh := shardShape{insts: b.cfg.sz.shardInsts}
	ts := &timedStore{Store: store.NewMem()}
	defer ts.Close()
	cur, err := b.shardSession(ctx, sh, ts, streamfetch.WithStageTimings())
	if err != nil {
		return err
	}
	timed := func(name string, check func(*streamfetch.Report) error, opts ...streamfetch.Option) (*streamfetch.Report, float64) {
		start := time.Now()
		rep, err := cur.s.RunWith(ctx, opts...)
		secs := time.Since(start).Seconds()
		if err = checkRun(rep, err); err == nil && check != nil {
			err = check(rep)
		}
		b.ops.op(wrapErr(name, err))
		if err != nil {
			return nil, 0
		}
		return rep, secs
	}
	_, single := timed("single", nil)
	rep2, shard2 := timed("shard2", func(rep *streamfetch.Report) error {
		if err := restored(rep); err != nil {
			return err
		}
		return sameModel(rep, cur.warmed2)
	}, append(sh.shard2(ts), streamfetch.WithStageTimings())...)
	rep3, _ := timed("sampled", func(rep *streamfetch.Report) error {
		if err := restored(rep); err != nil {
			return err
		}
		if err := fullCoverage(rep, sh.window()); err != nil {
			return err
		}
		return sameModel(rep, cur.warmedSam)
	}, sh.sampled(ts)...)
	if rep2 == nil || rep3 == nil || single == 0 {
		return errors.New("traced sharded round failed")
	}
	b.emit("shard.prepare_s", rep2.Timings.PrepareSeconds, "s")
	// A restored run warms nothing; the warmup stage is what functional
	// warming cost the run that filled the store.
	b.emit("shard.warmup_s", cur.warmed2.Timings.WarmupSeconds, "s")
	b.emit("shard.measure_s", rep2.Timings.MeasureSeconds, "s")
	b.emit("shard.merge_s", rep2.Timings.MergeSeconds, "s")
	b.emit("par.shard2_speedup", single/shard2, "ratio")
	hits := rep2.CheckpointHits + rep3.CheckpointHits
	b.emit("ckpt.hit_ratio", ratio(hits, hits+rep2.CheckpointMisses+rep3.CheckpointMisses), "ratio")
	b.emit("ckpt.get_blob_s", ts.get.Seconds(), "s")
	b.emit("ckpt.put_blob_s", ts.put.Seconds(), "s")
	b.emit("ckpt.blob_mb", float64(ts.putBytes)/1e6, "MB")
	var decode time.Duration
	for _, key := range ts.keys {
		data, ok, err := ts.Store.GetBlob(key)
		if err == nil && !ok {
			err = fmt.Errorf("checkpoint %s vanished", key)
		}
		if err != nil {
			return err
		}
		start := time.Now()
		if _, err := ckpt.Decode(data); err != nil {
			return err
		}
		decode += time.Since(start)
	}
	b.emit("ckpt.decode_s", decode.Seconds(), "s")
	return nil
}

// traceService runs a short open loop against a service whose FS store
// is timed, and reads the server's own view from the envelopes and
// GET /metrics.
func (b *bench) traceService(ctx context.Context) error {
	var ts *timedStore
	sv, err := b.startService(ctx, func(st store.Store) store.Store {
		ts = &timedStore{Store: st}
		return ts
	})
	if err != nil {
		return err
	}
	dur := min(time.Duration(b.cfg.seconds*float64(time.Second)), 5*time.Second)
	ls := b.load(ctx, sv, traceMix, dur)
	met, err := sv.metricsText(ctx)
	b.ops.op(wrapErr("GET /metrics", err))
	sv.close()

	b.note("journal %s", describe(ts.journal, 1000, "ms"))
	p90, _ := percentile(ts.journal, 90)
	b.emit("store.journal_s_p50", median(ts.journal), "s")
	b.emit("store.journal_s_p90", p90, "s")
	b.emit("store.journal_calls", float64(len(ts.journal)), "count")
	b.emit("store.put_blob_s", ts.put.Seconds(), "s")
	b.emit("store.get_blob_s", ts.get.Seconds(), "s")
	b.emit("server.queue_s_p50", median(ls.queue), "s")
	b.emit("server.measure_s_p50", median(ls.measure), "s")
	b.emit("server.polls", float64(ls.polls), "count")
	b.emit("server.cache_hits", met["streamfetch_cache_hits_total"], "count")
	b.emit("slo.prediction_error_ratio", met["streamfetch_slo_prediction_error_ratio"], "ratio")
	b.emit("loadgen.lag_ms_max", ls.lag.Seconds()*1000, "ms")
	return nil
}
