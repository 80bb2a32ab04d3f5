// Package sim drives trace-based simulation of a superscalar processor with
// a pluggable fetch engine. The driver owns the architecturally correct
// dynamic instruction stream (expanded from the block trace under the active
// code layout) and validates the front-end's fetched addresses against it:
//
//   - decode-stage consistency checks catch fetches that contradict the
//     static code (taken transitions at non-branches, wrong targets of
//     direct branches, fall-throughs of unconditional jumps) and redirect
//     with a short penalty;
//   - a divergence from the correct path marks the preceding correct-path
//     instruction as mispredicted; fetch continues down the wrong path
//     through the static image (polluting caches and speculative predictor
//     history, as in the paper's wrong-path model) until the branch
//     resolves a pipeline-depth after fetch, when the engine recovers.
package sim

import (
	"fmt"

	"streamfetch/internal/cache"
	"streamfetch/internal/cfg"
	"streamfetch/internal/frontend"
	"streamfetch/internal/isa"
	"streamfetch/internal/layout"
	"streamfetch/internal/pipeline"
	"streamfetch/internal/trace"
)

// Config parameterizes one simulation. The driver has no engine-specific
// knowledge: the front-end is named by its registry entry and configured
// through an opaque options value handed to the engine factory.
type Config struct {
	// Width is the pipe width (2, 4 or 8 in the paper).
	Width int
	// Engine names the front-end in the frontend registry ("" = streams).
	Engine string
	// EngineOptions carries engine-specific options for the factory
	// (e.g. frontend.StreamConfig for "streams"); nil selects the
	// engine's Table-2 defaults.
	EngineOptions any
	// Pipeline is the back-end model configuration.
	Pipeline pipeline.Config
	// Hier describes the memory system; zero value uses Table-2 defaults
	// for the width.
	Hier cache.HierarchyConfig
	// MaxInsts stops the simulation after retiring this many
	// correct-path instructions (0 = the whole trace).
	MaxInsts uint64

	// OnCommit, when set, observes every retired instruction (diagnostics).
	OnCommit func(c frontend.Committed)

	// OnMisfetch, when set, is invoked for every decode-stage redirect
	// with the offending transition (debugging/analysis hook).
	OnMisfetch func(prevAddr isa.Addr, prevBranch isa.BranchType, cur, fix isa.Addr, wrongPath, prevWrong, prevTaken bool, prevSeq uint64)

	// OnMispredict, when set, is invoked for every committed mispredicted
	// branch with the current retired-instruction count
	// (debugging/analysis hook).
	OnMispredict func(addr isa.Addr, branch isa.BranchType, taken bool, retired uint64)

	// OnProgress, when set, is invoked roughly every ProgressInterval
	// retired instructions with the retired and cycle counts; returning
	// false stops the simulation early (Result.Aborted is set). Long
	// sweeps use it for cancellation and progress reporting.
	OnProgress func(retired, cycles uint64) bool

	// OnWarmed, when set, fires once per run at the instant the
	// functional-warming prefix has fully drained — after the warm state
	// (caches, address generator, engine tables) reflects the replayed
	// prefix and before the first timed cycle. Checkpoint capture hangs
	// off this hook; it only fires for sources with a lead-in.
	OnWarmed func(p *Processor)
	// ProgressInterval is the OnProgress cadence in retired instructions
	// (0 = 65536).
	ProgressInterval uint64
}

// WithDefaults fills unset fields from the paper's Table 2.
func (c Config) WithDefaults() Config {
	if c.Width == 0 {
		c.Width = 8
	}
	if c.Engine == "" {
		c.Engine = "streams"
	}
	c.Pipeline.Width = c.Width
	if c.Pipeline.Depth == 0 {
		c.Pipeline.Depth = 16
	}
	c.Pipeline = c.Pipeline.WithDefaults()
	if c.Hier.ICache.SizeBytes == 0 {
		c.Hier = cache.DefaultHierarchy(c.Width)
	}
	if c.ProgressInterval == 0 {
		c.ProgressInterval = 65536
	}
	return c
}

// progressCycles is the cycle-cadence backstop for OnProgress: even an
// engine that retires nothing gets a callback at least this often, which
// keeps a wedged simulation observable and cancellable.
const progressCycles = 1 << 16

// Result aggregates one simulation's outcome: the run's identity, its
// mergeable counter block (the measured phase, when the source carried a
// warmup lead-in), and rates derived from those counters.
type Result struct {
	Engine string
	Width  int

	// Aborted is set when an OnProgress callback stopped the run early;
	// the counters then cover only the simulated prefix.
	Aborted bool

	// Counters holds the run's event counts. For a run whose source
	// delivered a warmup lead-in (trace.IntervalSource), it covers the
	// measured phase only; Warmup holds the frozen lead-in.
	Counters
	// Warmup is the counter block of the warmup phase (zero when the run
	// had none): caches and predictors trained, nothing measured.
	Warmup Counters

	// IPC is retired correct-path instructions per cycle.
	IPC float64
	// MispredRate is mispredicted branches per committed branch.
	MispredRate float64
	// FetchIPC is delivered instructions per front-end cycle.
	FetchIPC float64
}

// finalize fills the derived rates from the counter block.
func (r *Result) finalize() {
	r.IPC = r.Counters.IPC()
	r.MispredRate = r.Counters.MispredRate()
	r.FetchIPC = r.Fetch.FetchIPC()
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("%-8s w=%d IPC=%.3f fetchIPC=%.2f mispred=%.2f%% misfetch=%d icacheMiss=%.3f%%",
		r.Engine, r.Width, r.IPC, r.FetchIPC, 100*r.MispredRate, r.Misfetches,
		100*r.ICache.MissRate())
}

// warmSource is the optional source contract for interval sources with
// lead-in regions (trace.IntervalSource): delivered blocks carry a region
// flag. Functional-warming blocks are replayed through the fwarm callback
// without entering the pipeline; timing-warmup blocks are simulated with
// counters frozen until they have all retired.
type warmSource interface {
	// WarmupPending reports whether any lead-in remains.
	WarmupPending() bool
	// LastRegion classifies the block most recently returned by Next.
	LastRegion() trace.Region
}

// supplyBatch is the block granularity of the batched supply path: blocks
// per Source.NextBatch pull, and (times mean block length) the size of the
// reused dyn-inst window.
const supplyBatch = 512

// dynSupply lazily expands the block trace into dynamic instructions under
// the layout. In the common case (no lead-in regions) it pulls blocks
// supplyBatch at a time through one Source.NextBatch interface call and
// expands them en masse into a reusable dyn-inst window, so the driver's
// peek/advance path is an array read — no interface calls, no allocation
// — and memory stays one batch's worth regardless of trace length. The
// final block of each batch is carried into the next one, since expansion
// needs the dynamically following block.
//
// When the source carries lead-in regions (warm != nil), the supply still
// pulls batch-wise: IntervalSource.NextBatch never spans a region
// boundary, so one LastRegion call classifies a whole batch. Regions are
// handled in expansion order: functional-warming batches are expanded,
// handed to the fwarm callback instruction by instruction, and never
// delivered to the pipeline; timing-warmup batches are delivered and
// counted into warmDyn. Lead-in blocks are a strict prefix of the stream,
// so once a measured block has been expanded (crossed), warmDyn is the
// exact retirement count at which the measure phase begins.
type dynSupply struct {
	lay *layout.Layout
	src trace.Source
	buf []layout.DynInst
	pos int

	// Batched path state (warm == nil).
	blk     []cfg.BlockID
	blkLen  int // blocks in blk awaiting expansion (0 or 1 between fills)
	srcDone bool

	// Warm-path carry (warm != nil): the final block of the previous
	// batch, held until its lookahead — the next batch's first block —
	// is known, together with the region it was delivered under.
	carryBlk  [1]cfg.BlockID
	carryReg  trace.Region
	haveCarry bool

	warm    warmSource
	fwarm   func(layout.DynInst)
	warmDyn uint64
	crossed bool
}

func (d *dynSupply) peek() (layout.DynInst, bool) {
	if d.pos < len(d.buf) {
		return d.buf[d.pos], true
	}
	if d.warm != nil {
		return d.peekWarm()
	}
	for d.pos >= len(d.buf) {
		if !d.fill() {
			return layout.DynInst{}, false
		}
	}
	return d.buf[d.pos], true
}

// initBatch readies the batched path's buffers up front: the block window,
// and a dyn-inst window sized for the worst-case expansion of a full batch,
// so the run loop itself performs no allocation.
func (d *dynSupply) initBatch() {
	d.blk = make([]cfg.BlockID, supplyBatch)
	d.buf = make([]layout.DynInst, 0, supplyBatch*d.lay.MaxBlockSlots())
}

// fill refills the block window through one NextBatch call and expands it
// into the dyn buffer. The previous window's final block (whose lookahead
// was unknown) moves to the front; all blocks but the new final one are
// expanded, and once the source is exhausted the last block expands with
// NoBlock. It returns false when nothing remains to expand.
func (d *dynSupply) fill() bool {
	if d.blk == nil {
		d.blk = make([]cfg.BlockID, supplyBatch)
	}
	have := d.blkLen
	if !d.srcDone {
		n := d.src.NextBatch(d.blk[have:])
		if n == 0 {
			d.srcDone = true
		}
		have += n
	}
	d.buf = d.buf[:0]
	d.pos = 0
	if have == 0 {
		d.blkLen = 0
		return false
	}
	if d.srcDone {
		d.buf = d.lay.AppendDynRun(d.buf, d.blk[:have], cfg.NoBlock)
		d.blkLen = 0
		return true
	}
	d.buf = d.lay.AppendDynRun(d.buf, d.blk[:have-1], d.blk[have-1])
	d.blk[0] = d.blk[have-1]
	d.blkLen = 1
	return true
}

// peekWarm is the supply path for sources with lead-in regions: batched
// pulls like the common path, one region classification per batch.
func (d *dynSupply) peekWarm() (layout.DynInst, bool) {
	for d.pos >= len(d.buf) {
		if !d.fillWarm() {
			return layout.DynInst{}, false
		}
	}
	return d.buf[d.pos], true
}

// deliverWarm expands a same-region run of blocks (the last expanding
// toward nb) and routes the result by region: functional-warming
// instructions are fed to the fwarm callback and dropped, warmup and
// measured instructions are appended for the pipeline.
func (d *dynSupply) deliverWarm(blocks []cfg.BlockID, nb cfg.BlockID, reg trace.Region) {
	start := len(d.buf)
	d.buf = d.lay.AppendDynRun(d.buf, blocks, nb)
	switch reg {
	case trace.RegionFuncWarm:
		// Replay state functionally and drop the run: the pipeline
		// never sees it.
		if d.fwarm != nil {
			for _, di := range d.buf[start:] {
				d.fwarm(di)
			}
		}
		d.buf = d.buf[:start]
	case trace.RegionWarm:
		d.warmDyn += uint64(len(d.buf) - start)
	default:
		d.crossed = true
	}
}

// fillWarm refills the dyn window through one NextBatch pull. The source
// guarantees a batch never spans a region boundary, so LastRegion after
// the pull classifies every delivered block; the carried final block of
// the previous batch keeps the region it was delivered under. It returns
// false when nothing remains, and true after making progress — possibly
// with an empty window, when the whole batch was functional warming.
func (d *dynSupply) fillWarm() bool {
	if d.blk == nil {
		d.blk = make([]cfg.BlockID, supplyBatch)
		d.buf = make([]layout.DynInst, 0, supplyBatch*d.lay.MaxBlockSlots())
	}
	d.buf = d.buf[:0]
	d.pos = 0
	n := 0
	var reg trace.Region
	if !d.srcDone {
		n = d.src.NextBatch(d.blk)
		if n == 0 {
			d.srcDone = true
		} else {
			reg = d.warm.LastRegion()
		}
	}
	if !d.haveCarry && n == 0 {
		return false
	}
	if d.haveCarry {
		nb := cfg.NoBlock
		if n > 0 {
			nb = d.blk[0]
		}
		d.haveCarry = false
		d.deliverWarm(d.carryBlk[:], nb, d.carryReg)
	}
	if n > 0 {
		d.deliverWarm(d.blk[:n-1], d.blk[n-1], reg)
		d.carryBlk[0], d.carryReg, d.haveCarry = d.blk[n-1], reg, true
	}
	return true
}

func (d *dynSupply) advance() { d.pos++ }

// Processor is one configured simulation.
type Processor struct {
	cfg    Config
	lay    *layout.Layout
	hier   *cache.Hierarchy
	engine frontend.Engine
	lat    *pipeline.Latency
	supply dynSupply
}

// New builds a processor simulating the block sequence supplied by src
// (generated from lay's program) under lay. The source is consumed
// incrementally — trace memory is independent of run length — and is not
// closed by the processor. The engine is resolved through the frontend
// registry; unknown names and bad engine options are reported as errors.
func New(lay *layout.Layout, src trace.Source, cfg Config) (*Processor, error) {
	cfg = cfg.WithDefaults()
	hier := cache.NewHierarchy(cfg.Hier)
	env := frontend.BuildEnv{
		Hier:  hier,
		Image: lay,
		Width: cfg.Width,
		Entry: lay.Start(lay.Prog.Entry),
	}
	eng, err := frontend.New(cfg.Engine, env, cfg.EngineOptions)
	if err != nil {
		return nil, err
	}
	p := &Processor{
		cfg:    cfg,
		lay:    lay,
		hier:   hier,
		engine: eng,
		lat: &pipeline.Latency{
			Hier: hier,
			Gen: pipeline.NewLoadAddrGen(cfg.Pipeline.DataWorkingSet,
				layout.CodeBase, lay.TotalSlots()),
			Mul: cfg.Pipeline.MulLatency,
		},
		supply: dynSupply{lay: lay, src: src},
	}
	// A source with warmup lead-in splits the run into a counters-frozen
	// warmup phase and a measured phase.
	if ws, ok := src.(warmSource); ok && ws.WarmupPending() {
		p.supply.warm = ws
	} else {
		p.supply.initBatch()
	}
	return p, nil
}

// counters assembles the full counter block at the current point of a run:
// the driver-side counts already in res plus the engine and hierarchy
// statistics.
func (p *Processor) counters(res *Result, cycle uint64) Counters {
	c := res.Counters
	c.Cycles = cycle
	c.Fetch = p.engine.FetchStats()
	c.ICache = p.hier.ICache.Stats()
	c.DCache = p.hier.DCache.Stats()
	c.L2 = p.hier.L2.Stats()
	return c
}

// Engine exposes the running engine (for reports).
func (p *Processor) Engine() frontend.Engine { return p.engine }

// Hier exposes the cache hierarchy (for checkpoint capture/restore).
func (p *Processor) Hier() *cache.Hierarchy { return p.hier }

// Gen exposes the load address generator (for checkpoint
// capture/restore).
func (p *Processor) Gen() *pipeline.LoadAddrGen { return p.lat.Gen }

// outstanding tracks the single unresolved misprediction. It is held by
// value in Run (no per-misprediction heap allocation).
type outstanding struct {
	seq      uint64
	resolve  uint64
	recovery isa.Addr
}

// Run executes the simulation and returns its results. When the source is
// a warmup-bearing interval (trace.IntervalSource), the run splits into a
// warmup phase — caches and predictors train, counters are frozen out of
// the result by snapshot — and a measured phase covering exactly the
// source's measure window; Result.Counters then holds the measured phase
// and Result.Warmup the lead-in. MaxInsts counts all retired instructions,
// warmup included. A run whose trace ends inside the warmup lead-in (an
// empty measure window) reports zero measured counters with everything in
// Warmup, so degenerate intervals merge losslessly.
func (p *Processor) Run() Result {
	cfg := p.cfg
	width := cfg.Width
	lat := p.lat
	// The ROB and the fetch buffer behind it share one ring: issue moves
	// the boundary between them instead of copying entries.
	win := pipeline.NewWindow(cfg.Pipeline.ROBSize, 4*width)

	var (
		cycle, seq  uint64
		out         []frontend.FetchedInst
		wrongPath   bool
		pending     outstanding
		havePending bool
		// prev is the last fetched instruction, in its window slot (nil
		// after a redirect). A slot is rewritten only once the ring wraps,
		// and prev moves to every newly pushed entry first.
		prev            *pipeline.Entry
		lastCorrectSeq  uint64
		fetchHold       uint64
		supplyDone      bool
		nextProgress    = cfg.ProgressInterval
		nextProgCycle   = uint64(progressCycles)
		res             Result
		wantRetired     = cfg.MaxInsts
		decodePenalty   = uint64(cfg.Pipeline.DecodePenalty)
		resolveDepth    = uint64(cfg.Pipeline.Depth)
		correctInFlight = 0 // validated but not yet retired
	)
	res.Engine = cfg.Engine
	res.Width = width

	// Warmup split: while the source's warmup lead-in drains, counters
	// run normally; the moment every warm instruction has retired, the
	// full counter block is snapshotted and later subtracted, so the
	// measured counters cover exactly the source's measure window while
	// caches and predictors keep the training the warmup gave them.
	var (
		warmPending = p.supply.warm != nil
		warmSnap    Counters
		haveWarm    bool
	)

	// Functional warming: the interval's pre-warmup prefix is replayed
	// through the cache hierarchy, the load address generator and the
	// engine's commit-side training (predictor tables, return stacks,
	// stream/trace builders) without timing, so a mid-trace shard starts
	// its measure window with in-situ-accurate memory and predictor state
	// — and with the per-PC address sequences exactly where a whole-trace
	// run would have them. The instruction stream is walked at decode
	// speed (no pipeline), which is what keeps sharding profitable.
	if p.supply.warm != nil {
		lineMask := ^isa.Addr(p.hier.ICache.LineBytes() - 1)
		lastLine := ^isa.Addr(0)
		p.supply.fwarm = func(di layout.DynInst) {
			if line := di.Addr & lineMask; line != lastLine {
				lastLine = line
				p.hier.FetchLatency(di.Addr)
			}
			switch di.Class {
			case isa.ClassLoad:
				p.hier.LoadLatency(isa.Addr(lat.Gen.Next(di.Addr)))
			case isa.ClassStore:
				p.hier.Store(isa.Addr(lat.Gen.Next(di.Addr)))
			}
			cm := frontend.Committed{
				Addr:   di.Addr,
				Branch: di.Branch,
				Taken:  di.Taken,
			}
			if di.Taken {
				cm.Target = di.NextAddr
			}
			p.engine.Commit(cm)
		}
	}

	// A mid-trace interval's first correct-path instruction is not the
	// program entry the engine was built to fetch from: point fetch at it
	// before the first cycle. Whole-trace runs start at the entry already,
	// so they see no redirect (and stay byte-identical).
	first, haveFirst := p.supply.peek()
	// The first peek drains the whole functional-warming prefix (it is a
	// strict prefix of the stream): warm state is complete here, before
	// any timed cycle — the checkpoint capture point.
	if cfg.OnWarmed != nil && p.supply.warm != nil {
		cfg.OnWarmed(p)
	}
	if haveFirst && first.Addr != p.lay.Start(p.lay.Prog.Entry) {
		p.engine.Redirect(first.Addr, false)
	}

	maxCycles := uint64(1) << 40
	for cycle < maxCycles {
		cycle++

		// 1. Retire. Retirement runs before misprediction resolution so
		// that, on the cycle a branch resolves, the branch itself (and
		// everything older) has already committed: the engine's
		// retirement-side state (histories, path registers, stream
		// builders) then includes the diverging stream when Redirect
		// copies it into the speculative state.
		for k := 0; k < width && win.ROBLen() > 0; k++ {
			// Hold retirement at the warmup boundary so the snapshot
			// below lands exactly between the last warm and the first
			// measured instruction (a single cycle can retire both).
			if warmPending && res.Retired >= p.supply.warmDyn {
				break
			}
			h := win.Head()
			if h.WrongPath || h.DoneCycle > cycle {
				break
			}
			if h.Branch != isa.BranchNone && h.ResolveCycle > cycle {
				break
			}
			// Hold the newest validated branch until its successor
			// has been checked (divergence detection needs the next
			// fetch).
			if !supplyDone && h.Seq == lastCorrectSeq && h.Branch != isa.BranchNone && !wrongPath {
				if _, more := p.supply.peek(); more {
					break
				}
			}
			e := win.PopHead()
			res.Retired++
			correctInFlight--
			if e.Branch != isa.BranchNone {
				res.Branches++
				if e.Mispredicted {
					res.Mispredicted++
					res.MispredByType[e.Branch]++
					if cfg.OnMispredict != nil {
						cfg.OnMispredict(e.Addr, e.Branch, e.Taken, res.Retired)
					}
				}
			}
			cm := frontend.Committed{
				Addr:         e.Addr,
				Branch:       e.Branch,
				Taken:        e.Taken,
				Target:       e.Target,
				Mispredicted: e.Mispredicted,
			}
			if cfg.OnCommit != nil {
				cfg.OnCommit(cm)
			}
			p.engine.Commit(cm)
		}
		// 1b. End of warmup: every warm instruction has retired (warmDyn
		// is final once a measured block has been expanded, which always
		// precedes its fetch and retirement). Freeze the warmup counters
		// by snapshot; state (caches, predictors, pipeline) carries over.
		if warmPending && p.supply.crossed && res.Retired >= p.supply.warmDyn {
			warmPending = false
			haveWarm = true
			warmSnap = p.counters(&res, cycle)
		}
		// 2. Resolve an outstanding misprediction.
		if havePending && cycle >= pending.resolve {
			win.SquashAfter(pending.seq)
			// Rewind the sequence counter to the squash point so in-flight
			// sequence numbers stay contiguous — the invariant that lets
			// the window locate entries by offset arithmetic.
			seq = pending.seq
			p.engine.Redirect(pending.recovery, true)
			wrongPath = false
			prev = nil
			havePending = false
		}
		if wantRetired > 0 && res.Retired >= wantRetired {
			break
		}
		// Progress fires on retired instructions — and, as a backstop, on a
		// cycle cadence: an engine that stops retiring (wedged, livelocked)
		// must still surface callbacks, or cancellation and watchdogs could
		// never reach it. The callback only reads counters, so the extra
		// cadence cannot perturb simulated state.
		if cfg.OnProgress != nil && (res.Retired >= nextProgress || cycle >= nextProgCycle) {
			nextProgress = res.Retired + cfg.ProgressInterval
			nextProgCycle = cycle + progressCycles
			if !cfg.OnProgress(res.Retired, cycle) {
				res.Aborted = true
				break
			}
		}
		if supplyDone && correctInFlight == 0 && !havePending {
			break
		}

		// 3. Issue fetch buffer into the ROB.
		for k := 0; k < width && win.FetchLen() > 0 && !win.ROBFull(); k++ {
			e := win.Issue()
			e.DoneCycle = cycle + uint64(lat.For(e))
		}

		// 4. Fetch.
		if supplyDone && !wrongPath {
			continue // nothing correct left to fetch
		}
		if cycle < fetchHold || win.FetchLen()+width > win.FetchCap() {
			continue
		}
		out = p.engine.Cycle(out[:0])
		for _, fi := range out {
			// Decode-stage consistency check against the previous
			// fetched instruction.
			if prev != nil {
				if fix, bad := p.staticCheck(prev.Addr, prev.Branch, fi.Addr); bad {
					p.engine.Redirect(fix, false)
					fetchHold = cycle + decodePenalty
					res.Misfetches++
					if cfg.OnMisfetch != nil {
						cfg.OnMisfetch(prev.Addr, prev.Branch, fi.Addr, fix, wrongPath, prev.WrongPath, prev.Taken, prev.Seq)
					}
					prev = nil
					break
				}
			}
			seq++
			e := pipeline.Entry{
				Seq:          seq,
				Addr:         fi.Addr,
				Class:        fi.Inst.Class,
				Branch:       fi.Inst.Branch,
				ResolveCycle: cycle + resolveDepth,
			}
			if !wrongPath {
				c, more := p.supply.peek()
				if !more {
					supplyDone = true
					break
				}
				if fi.Addr == c.Addr {
					e.Class = c.Class
					e.Branch = c.Branch
					e.Taken = c.Taken
					if c.Taken {
						e.Target = c.NextAddr
					}
					p.supply.advance()
					lastCorrectSeq = seq
					correctInFlight++
				} else {
					// Divergence: the previous correct-path
					// instruction was mispredicted.
					me := win.Find(lastCorrectSeq)
					if me == nil {
						panic("sim: diverging entry already retired")
					}
					me.Mispredicted = true
					pending = outstanding{
						seq:      me.Seq,
						resolve:  me.ResolveCycle,
						recovery: c.Addr,
					}
					havePending = true
					wrongPath = true
					e.WrongPath = true
				}
			} else {
				e.WrongPath = true
			}
			prev = win.Push(e)
		}
	}

	if warmPending {
		// The trace ended (or the run aborted) before the measure window
		// began: nothing was measured. Freeze everything as warmup, so a
		// degenerate interval contributes zero to a merge instead of
		// double-counting lead-in work that belongs to other intervals.
		haveWarm = true
		warmSnap = p.counters(&res, cycle)
	}
	res.Counters = p.counters(&res, cycle)
	if haveWarm {
		res.Warmup = warmSnap
		res.Counters = res.Counters.Delta(warmSnap)
	}
	res.finalize()
	return res
}

// staticCheck verifies that the transition from the instruction at
// prevAddr (of branch type prevBranch) to cur is consistent with the
// static code, as the decode stage would. It returns the redirect target
// when the transition is impossible.
func (p *Processor) staticCheck(prevAddr isa.Addr, prevBranch isa.BranchType, cur isa.Addr) (fix isa.Addr, bad bool) {
	seqNext := prevAddr.Next()
	if cur == seqNext {
		// Sequential flow: impossible after a direct unconditional
		// transfer (decode computes the target and redirects).
		switch prevBranch {
		case isa.BranchUncond, isa.BranchCall:
			if t, ok := p.lay.StaticTarget(prevAddr); ok {
				return t, true
			}
		}
		return 0, false
	}
	// Taken transition.
	switch prevBranch {
	case isa.BranchNone:
		// A non-branch cannot transfer control: the predicted unit was
		// too short; decode resumes at the fall-through.
		return seqNext, true
	case isa.BranchCond, isa.BranchUncond, isa.BranchCall:
		if t, ok := p.lay.StaticTarget(prevAddr); ok && cur != t {
			return t, true
		}
		return 0, false
	default:
		// Returns and indirects cannot be verified at decode.
		return 0, false
	}
}

// Run is a convenience: build and run one simulation. It panics on an
// unresolvable engine configuration (callers wanting an error use New).
func Run(lay *layout.Layout, src trace.Source, cfg Config) Result {
	p, err := New(lay, src, cfg)
	if err != nil {
		panic(err)
	}
	return p.Run()
}
