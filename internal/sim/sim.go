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
	"context"
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

	// OnCommit, when set, observes every retired instruction (diagnostics).
	OnCommit func(c frontend.Committed)

	// OnProgress, when set, is invoked roughly every ProgressInterval
	// retired instructions with the retired and cycle counts; returning
	// false stops the simulation early (Result.Aborted is set). Long
	// sweeps use it for cancellation and progress reporting.
	OnProgress func(retired, cycles uint64) bool
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

// Result aggregates one simulation's outcome: the run's identity and its
// mergeable counter block (the measured phase, when the source carried a
// warmup lead-in). Rates are the block's methods (IPC, MispredRate,
// Fetch.FetchIPC), promoted through the embedding.
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
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("%-8s w=%d IPC=%.3f fetchIPC=%.2f mispred=%.2f%% misfetch=%d icacheMiss=%.3f%%",
		r.Engine, r.Width, r.IPC(), r.Fetch.FetchIPC(), 100*r.MispredRate(), r.Misfetches,
		100*r.ICache.MissRate())
}

// warmSource is the optional source contract for interval sources with a
// timing-warmup lead-in (trace.IntervalSource): delivered blocks carry a
// region flag, and warmup blocks are simulated with counters frozen until
// they have all retired.
type warmSource interface {
	// WarmupPending reports whether any lead-in remains.
	WarmupPending() bool
	// LastRegion classifies the blocks of the most recent NextBatch.
	LastRegion() trace.Region
}

// supplyBatch is the block granularity of the batched supply path: blocks
// per Source.NextBatch pull, and (times mean block length) the size of the
// reused dyn-inst window.
const supplyBatch = 512

// dynSupply lazily expands the block trace into dynamic instructions under
// the layout. It pulls blocks supplyBatch at a time through one
// Source.NextBatch interface call and expands them with one AppendDynRun
// call into a reusable dyn-inst window, sized by initBatch for a full
// batch's worst case, which AppendDyn fills in place, field by field. The
// driver's peek/advance path is an array read — no interface calls, no
// allocation — and memory stays one batch's worth regardless of trace
// length. The final block of each batch is carried into the next fill,
// since expansion needs the dynamically following block.
//
// A source with a warmup lead-in (warm != nil) never spans a region
// boundary in one NextBatch, so one LastRegion call classifies a whole
// batch, and the carried block keeps the region it was delivered under.
// Warmup instructions are counted into warmDyn. Lead-in blocks are a
// strict prefix of the stream, so once a measured block has been expanded
// (crossed), warmDyn is the exact retirement count at which the measure
// phase begins. Without a lead-in every batch is measured.
type dynSupply struct {
	lay *layout.Layout
	src trace.Source
	buf []layout.DynInst
	pos int

	blk     []cfg.BlockID
	srcDone bool

	// The final block of the previous batch, held until its lookahead —
	// the next batch's first block — is known, with its region.
	carryBlk  [1]cfg.BlockID
	carryReg  trace.Region
	haveCarry bool

	warm    warmSource
	warmDyn uint64
	crossed bool
}

// peek returns the next dyn inst in place, valid until advance, or nil
// when the trace is exhausted.
func (d *dynSupply) peek() *layout.DynInst {
	for d.pos >= len(d.buf) {
		if !d.fill() {
			return nil
		}
	}
	return &d.buf[d.pos]
}

// initBatch readies the block window and a dyn-inst window sized for the
// worst-case expansion of a full batch, so the loops over them perform no
// allocation.
func (d *dynSupply) initBatch() {
	d.blk = make([]cfg.BlockID, supplyBatch)
	d.buf = make([]layout.DynInst, 0, supplyBatch*d.lay.MaxBlockSlots())
}

// fill refills the dyn window through one NextBatch pull: the carried
// block expands toward the new batch's first block, the new batch's blocks
// all but the last expand in place, and the last is carried. Once the
// source is exhausted the carried block expands with NoBlock. It returns
// false when nothing remains, and true after making progress — possibly
// with an empty window, when the batch held a single block.
func (d *dynSupply) fill() bool {
	d.buf = d.buf[:0]
	d.pos = 0
	n := 0
	reg := trace.RegionMeasure
	if !d.srcDone {
		if n = d.src.NextBatch(d.blk); n == 0 {
			d.srcDone = true
		} else if d.warm != nil {
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
		d.expand(d.carryBlk[:], nb, d.carryReg)
	}
	if n > 0 {
		d.expand(d.blk[:n-1], d.blk[n-1], reg)
		d.carryBlk[0], d.carryReg, d.haveCarry = d.blk[n-1], reg, true
	}
	return true
}

// expand appends a same-region run of blocks (the last expanding toward
// nb) to the dyn window, counting warmup instructions.
func (d *dynSupply) expand(blocks []cfg.BlockID, nb cfg.BlockID, reg trace.Region) {
	start := len(d.buf)
	d.buf = d.lay.AppendDynRun(d.buf, blocks, nb)
	if reg == trace.RegionWarm {
		d.warmDyn += uint64(len(d.buf) - start)
	} else {
		d.crossed = true
	}
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
	// err is set when Run stops on a trace the program cannot execute.
	err error
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
	}
	p.supply.initBatch()
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

// Err reports why Run stopped early on a trace that is no walk of the
// program (nil otherwise); the result then covers the prefix before it.
func (p *Processor) Err() error { return p.err }

// WarmPrefix functionally warms the processor from the head of its
// source: every instruction is replayed without timing through the
// I-cache (one access per line change), the load address generator and
// the data caches, and the engine's commit-side training (predictor
// tables, return stacks, stream and trace builders). The walk runs at
// decode speed — no pipeline — and visits the trace once however many
// boundaries it serves.
//
// bounds are ascending trace positions in CFG instructions. At each one
// the walk stops and calls at(i, warmed) with the state reflecting exactly
// the maximal whole-block prefix of at most bounds[i] instructions — the
// rule trace.Source.Skip and trace.NewInterval use — warmed being that
// prefix's length. The prefix's last block expands under the layout with
// its real successor as lookahead, as in a run over the whole trace; a
// boundary past the trace's end sees the whole trace. An error from at
// ends the walk and is returned, as is ctx's error, polled once per
// batch of blocks.
//
// The walk consumes the processor's source and leaves it mid-trace: a
// walked processor serves to capture warm state, not to Run.
func (p *Processor) WarmPrefix(ctx context.Context, bounds []uint64, at func(i int, warmed uint64) error) error {
	d := &p.supply
	blocks := p.lay.Prog.Blocks
	lastLine := ^isa.Addr(0)
	var pos uint64
	bi := 0
	have := 0 // d.blk[:have] is the block carried from the previous batch
	for bi < len(bounds) {
		if err := ctx.Err(); err != nil {
			return err
		}
		n := d.src.NextBatch(d.blk[have:])
		end := have + n
		from := 0 // d.blk[from:j] are warmed but not yet replayed
		for j := have; j < end; j++ {
			id := d.blk[j]
			if int(id) < 0 || int(id) >= len(blocks) {
				return fmt.Errorf("sim: trace block %d outside the program (%d blocks)", id, len(blocks))
			}
			ni := uint64(blocks[id].NInsts)
			for ; bi < len(bounds) && pos+ni > bounds[bi]; bi++ {
				lastLine = p.replay(d.blk[from:j], id, lastLine)
				from = j
				if err := at(bi, pos); err != nil {
					return err
				}
			}
			if bi == len(bounds) {
				return nil
			}
			pos += ni
		}
		if n == 0 {
			p.replay(d.blk[from:end], cfg.NoBlock, lastLine)
			for ; bi < len(bounds); bi++ {
				if err := at(bi, pos); err != nil {
					return err
				}
			}
			return nil
		}
		// The batch's final block waits for its lookahead, the next
		// batch's first block.
		lastLine = p.replay(d.blk[from:end-1], d.blk[end-1], lastLine)
		d.blk[0] = d.blk[end-1]
		have = 1
	}
	return nil
}

// replay expands a run of blocks (the last toward next) and replays it
// functionally for WarmPrefix. lastLine is the I-cache line of the
// previous replayed instruction; the updated one is returned.
func (p *Processor) replay(run []cfg.BlockID, next cfg.BlockID, lastLine isa.Addr) isa.Addr {
	d := &p.supply
	d.buf = p.lay.AppendDynRun(d.buf[:0], run, next)
	lineMask := ^isa.Addr(p.hier.ICache.LineBytes() - 1)
	gen := p.lat.Gen
	for i := range d.buf {
		di := &d.buf[i]
		if line := di.Addr & lineMask; line != lastLine {
			lastLine = line
			p.hier.FetchLatency(di.Addr)
		}
		switch di.Class {
		case isa.ClassLoad:
			p.hier.LoadLatency(isa.Addr(gen.Next(di.Addr)))
		case isa.ClassStore:
			p.hier.Store(isa.Addr(gen.Next(di.Addr)))
		}
		cm := frontend.Committed{Addr: di.Addr, Branch: di.Branch, Taken: di.Taken}
		if di.Taken {
			cm.Target = di.NextAddr
		}
		p.engine.Commit(cm)
	}
	return lastLine
}

// fetched is the decode check's copy of the last fetched instruction,
// whose sequence number is always the driver's current one.
type fetched struct {
	addr   isa.Addr
	branch isa.BranchType
}

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
// and Result.Warmup the lead-in. The run retires every instruction its
// source supplies: an instruction cap is a trace position, applied by the
// source (an interval's End), not by the simulator. A run whose trace
// ends inside the warmup lead-in (an empty measure window) reports zero
// measured counters with everything in Warmup, so degenerate intervals
// merge losslessly.
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
		// prev is the last fetched instruction; havePrev is cleared by a
		// redirect.
		prev            fetched
		havePrev        bool
		lastCorrectSeq  uint64
		fetchHold       uint64
		supplyDone      bool
		nextProgress    = cfg.ProgressInterval
		nextProgCycle   = uint64(progressCycles)
		res             Result
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

	// A mid-trace interval's first correct-path instruction is not the
	// program entry the engine was built to fetch from: point fetch at it
	// before the first cycle. Whole-trace runs start at the entry already,
	// so they see no redirect (and stay byte-identical).
	if first := p.supply.peek(); first != nil && first.Addr != p.lay.Start(p.lay.Prog.Entry) {
		p.engine.Redirect(first.Addr, false)
	}

	maxCycles := uint64(1) << 40
	robSize := cfg.Pipeline.ROBSize
cycles:
	for cycle < maxCycles {
		cycle++
		// A cycle that retires, takes the warmup snapshot, resolves,
		// issues and fetches nothing is idle, and so is every cycle after
		// it until the next timed event (nextEvent): the loop skips them.
		// busy records the snapshot and the resolution.
		retiredBefore := res.Retired
		busy := false

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
			if h == nil || h.DoneCycle > cycle {
				break
			}
			if h.Branch != isa.BranchNone && h.ResolveCycle > cycle {
				break
			}
			// Hold the newest validated branch until its successor
			// has been checked (divergence detection needs the next
			// fetch).
			if !supplyDone && h.Seq == lastCorrectSeq && h.Branch != isa.BranchNone && !wrongPath {
				if p.supply.peek() != nil {
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
			busy = true
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
			havePrev = false
			havePending = false
			busy = true
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

		// 3. Issue fetch buffer into the ROB. A wrong-path instruction
		// has no slot: it never retires, so its latency is never read.
		issue := min(width, win.FetchLen(), robSize-win.ROBLen())
		for range issue {
			if e := win.Issue(); e != nil {
				e.DoneCycle = cycle + uint64(lat.For(e))
			}
		}

		// 4. Fetch: not once nothing correct is left to fetch, during a
		// decode redirect's bubble, or into a full fetch buffer.
		if (supplyDone && !wrongPath) || cycle < fetchHold || win.FetchLen()+width > win.FetchCap() {
			if !busy && issue == 0 && res.Retired == retiredBefore {
				cycle = max(cycle, nextEvent(win, cycle, maxCycles, pending.resolve, fetchHold, nextProgCycle)-1)
			}
			continue
		}
		out = p.engine.Cycle(out[:0])
		for i := range out {
			fi := &out[i]
			// Decode-stage consistency check against the previous
			// fetched instruction; only transitions that can fail it pay
			// the call.
			if havePrev && !alwaysDecodes(prev.addr, prev.branch, fi.Addr) {
				if fix, bad := p.staticCheck(prev.addr, prev.branch, fi.Addr); bad {
					p.engine.Redirect(fix, false)
					fetchHold = cycle + decodePenalty
					res.Misfetches++
					havePrev = false
					break
				}
			}
			seq++
			prev = fetched{addr: fi.Addr, branch: fi.Inst.Branch}
			havePrev = true
			if !wrongPath {
				c := p.supply.peek()
				if c == nil {
					supplyDone = true
					break
				}
				if fi.Addr == c.Addr {
					e := win.Push(seq)
					e.Addr = c.Addr
					e.Class = c.Class
					e.Branch = c.Branch
					e.Taken = c.Taken
					if c.Taken {
						e.Target = c.NextAddr
					}
					e.ResolveCycle = cycle + resolveDepth
					prev.branch = c.Branch
					p.supply.advance()
					lastCorrectSeq = seq
					correctInFlight++
					continue
				}
				// Divergence: the previous correct-path instruction
				// was mispredicted.
				me := win.Find(lastCorrectSeq)
				if me == nil {
					// The last correct-path instruction has retired, so
					// it was no branch, and no walk of the program
					// leaves it for anything but its successor.
					p.err = fmt.Errorf("sim: trace leaves the program's control flow at %v", c.Addr)
					break cycles
				}
				me.Mispredicted = true
				pending = outstanding{
					seq:      me.Seq,
					resolve:  me.ResolveCycle,
					recovery: c.Addr,
				}
				havePending = true
				wrongPath = true
			}
			win.PushWrongPath(seq)
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
	return res
}

// nextEvent returns the earliest cycle after cycle, and at most limit, at
// which an idle pipeline can change: the ROB head completes or (a branch)
// resolves, or one of the timers falls due (the misprediction resolution,
// the end of a decode bubble, the progress backstop). A timer already
// past, such as the resolution of a misprediction no longer outstanding,
// is no event. Every other input of a cycle changes only when a cycle
// retires, resolves, issues or fetches, so the cycles before it pass as
// the idle one did.
func nextEvent(win *pipeline.Window, cycle, limit uint64, timers ...uint64) uint64 {
	next := limit
	for _, c := range timers {
		if c > cycle {
			next = min(next, c)
		}
	}
	if win.ROBLen() > 0 {
		if h := win.Head(); h != nil {
			if h.DoneCycle > cycle {
				next = min(next, h.DoneCycle)
			}
			if h.Branch != isa.BranchNone && h.ResolveCycle > cycle {
				next = min(next, h.ResolveCycle)
			}
		}
	}
	return next
}

// alwaysDecodes reports whether the transition from the instruction at
// prevAddr (of branch type prevBranch) to cur is sequential flow after
// anything but a direct jump or call: the transition staticCheck always
// passes. It is small enough to inline, so the driver loop pays no call
// for the common case.
func alwaysDecodes(prevAddr isa.Addr, prevBranch isa.BranchType, cur isa.Addr) bool {
	return cur == prevAddr.Next() && prevBranch != isa.BranchUncond && prevBranch != isa.BranchCall
}

// staticCheck verifies that the transition from the instruction at
// prevAddr (of branch type prevBranch) to cur is consistent with the
// static code, as the decode stage would. It returns the redirect target
// when the transition is impossible.
func (p *Processor) staticCheck(prevAddr isa.Addr, prevBranch isa.BranchType, cur isa.Addr) (fix isa.Addr, bad bool) {
	if alwaysDecodes(prevAddr, prevBranch, cur) {
		return 0, false
	}
	seqNext := prevAddr.Next()
	if cur == seqNext {
		// Sequential flow after a direct jump or call: decode computes
		// the target and redirects.
		if t, ok := p.lay.StaticTarget(prevAddr); ok {
			return t, true
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
