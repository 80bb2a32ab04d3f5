// Package workload synthesizes SPECint2000-like benchmark programs as
// control flow graphs. The paper evaluates on SPECint2000 binaries traced
// with ref inputs; we do not have those binaries, so this package generates
// deterministic structured programs (loops, hammocks, switches, call trees)
// whose distributional properties — basic block sizes, branch mix, branch
// bias spectrum, loop trip counts, code footprint — are parameterized per
// benchmark to land in the ranges the paper reports (basic blocks of 5–6
// instructions, streams of 16+ instructions in layout-optimized codes).
//
// Every benchmark is generated from a fixed seed, so the whole evaluation is
// exactly reproducible.
package workload

import (
	"fmt"
	"slices"

	"streamfetch/internal/cfg"
	"streamfetch/internal/isa"
	"streamfetch/internal/xrand"
)

// Params controls the shape of one synthetic benchmark.
type Params struct {
	// Name identifies the benchmark (e.g. "164.gzip").
	Name string
	// Seed drives all randomness in synthesis.
	Seed uint64
	// NumProcs is the number of procedures (procedure 0 is the driver).
	NumProcs int
	// RegionsPerProc bounds the structured regions per procedure body.
	RegionsPerProc [2]int
	// MeanBlockLen is the mean basic-block length in instructions,
	// including the terminating branch.
	MeanBlockLen float64
	// LoadFrac, StoreFrac, MulFrac give the instruction class mix of
	// non-branch slots; the remainder is ALU.
	LoadFrac, StoreFrac, MulFrac float64
	// FracLoopRegion, FracIfRegion, FracSwitchRegion, FracCallRegion set
	// the structured-region mix; the remainder is straight-line blocks.
	FracLoopRegion, FracIfRegion, FracSwitchRegion, FracCallRegion float64
	// FracPattern is the fraction of non-loop conditional branches that
	// follow a repeating pattern (history-predictable); the rest are
	// Bernoulli-biased.
	FracPattern float64
	// StrongBias is the probability that a biased branch is strongly
	// biased (p in [0.02,0.10] or [0.90,0.98]); otherwise p is drawn
	// from [0.15, 0.85].
	StrongBias float64
	// MeanTrip is the mean loop trip count.
	MeanTrip int
	// TripJitter is the +/- spread of trip counts around MeanTrip.
	TripJitter int
	// LoopStability is the fraction of loops whose trip count is fixed
	// across entries (data-independent bounds); the rest jitter per
	// entry. Stable short loops are exactly what path-based predictors
	// can count and per-branch outcome histories cannot.
	LoopStability float64
	// IndMarkov is the probability that an indirect dispatch follows its
	// deterministic cycle (correlated interpreter-style dispatch).
	IndMarkov float64
	// SwitchFanout is the number of arms of indirect switches.
	SwitchFanout [2]int
	// MaxDepth bounds nesting of structured regions.
	MaxDepth int
	// DataWorkingSet is the benchmark's intended data footprint in bytes.
	// Nothing reads it yet: no run sets pipeline.Config.DataWorkingSet
	// from it, so every benchmark's load/store addresses span that
	// config's 2 MB default.
	DataWorkingSet int
	// IndirectCallFrac is the chance a call region uses an indirect call
	// over several callees instead of a direct one.
	IndirectCallFrac float64
}

// Suite returns the parameter sets of the 11 SPECint2000 benchmarks the
// paper evaluates. The shapes differ per benchmark: gcc is large and
// branchy, gzip/bzip2 are small loopy codes, perlbmk/gap use indirect
// dispatch heavily, crafty/twolf have hard-to-predict data-dependent
// branches, eon is call-intensive.
func Suite() []Params {
	base := Params{
		NumProcs:         140,
		RegionsPerProc:   [2]int{8, 18},
		MeanBlockLen:     5.5,
		LoadFrac:         0.24,
		StoreFrac:        0.12,
		MulFrac:          0.03,
		FracLoopRegion:   0.22,
		FracIfRegion:     0.34,
		FracSwitchRegion: 0.05,
		FracCallRegion:   0.14,
		FracPattern:      0.25,
		StrongBias:       0.84,
		MeanTrip:         12,
		TripJitter:       4,
		LoopStability:    0.7,
		IndMarkov:        0.6,
		SwitchFanout:     [2]int{3, 6},
		MaxDepth:         3,
		DataWorkingSet:   1 << 21,
	}
	mk := func(name string, seed uint64, mut func(*Params)) Params {
		p := base
		p.Name = name
		p.Seed = seed
		if mut != nil {
			mut(&p)
		}
		return p
	}
	return []Params{
		mk("164.gzip", 0x1164, func(p *Params) {
			p.NumProcs = 190
			p.FracLoopRegion = 0.32
			p.MeanTrip = 24
			p.StrongBias = 0.88
			p.DataWorkingSet = 1 << 20
		}),
		mk("175.vpr", 0x1175, func(p *Params) {
			p.NumProcs = 150
			p.StrongBias = 0.78
			p.FracPattern = 0.18
			p.MeanTrip = 9
			p.DataWorkingSet = 1 << 22
		}),
		mk("176.gcc", 0x1176, func(p *Params) {
			p.NumProcs = 420
			p.RegionsPerProc = [2]int{8, 18}
			p.FracSwitchRegion = 0.09
			p.FracCallRegion = 0.18
			p.MeanTrip = 6
			p.DataWorkingSet = 1 << 23
		}),
		mk("186.crafty", 0x1186, func(p *Params) {
			p.NumProcs = 120
			p.StrongBias = 0.87
			p.FracPattern = 0.14
			p.MeanBlockLen = 6.2
			p.MeanTrip = 7
		}),
		mk("197.parser", 0x1197, func(p *Params) {
			p.NumProcs = 60
			p.StrongBias = 0.89
			p.FracCallRegion = 0.20
			p.MeanTrip = 5
			p.DataWorkingSet = 1 << 22
		}),
		mk("252.eon", 0x1252, func(p *Params) {
			p.NumProcs = 260
			p.FracCallRegion = 0.26
			p.IndirectCallFrac = 0.25
			p.MeanBlockLen = 6.5
			p.StrongBias = 0.72
			p.MeanTrip = 10
		}),
		mk("253.perlbmk", 0x1253, func(p *Params) {
			p.NumProcs = 280
			p.FracSwitchRegion = 0.12
			p.IndirectCallFrac = 0.30
			p.FracCallRegion = 0.20
			p.MeanTrip = 8
		}),
		mk("254.gap", 0x1254, func(p *Params) {
			p.NumProcs = 230
			p.FracSwitchRegion = 0.10
			p.IndirectCallFrac = 0.22
			p.MeanTrip = 14
			p.StrongBias = 0.85
		}),
		mk("255.vortex", 0x1255, func(p *Params) {
			p.NumProcs = 340
			p.FracCallRegion = 0.22
			p.StrongBias = 0.74
			p.MeanBlockLen = 5.8
			p.MeanTrip = 9
			p.DataWorkingSet = 1 << 23
		}),
		mk("256.bzip2", 0x1256, func(p *Params) {
			p.NumProcs = 56
			p.FracLoopRegion = 0.34
			p.MeanTrip = 28
			p.StrongBias = 0.86
			p.DataWorkingSet = 1 << 22
		}),
		mk("300.twolf", 0x1300, func(p *Params) {
			p.NumProcs = 160
			p.StrongBias = 0.73
			p.FracPattern = 0.16
			p.MeanTrip = 8
			p.DataWorkingSet = 1 << 22
		}),
	}
}

// ByName returns the parameters of the named benchmark from Suite.
func ByName(name string) (Params, error) {
	for _, p := range Suite() {
		if p.Name == name {
			return p, nil
		}
	}
	return Params{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// builder synthesizes one program. It builds the program's arrays in place
// and addresses blocks by ID: a *cfg.Block or a Classes/Succs/ArmProbs
// slice is stale once the next block or successor is appended, so none is
// held across one.
type builder struct {
	p    Params
	rng  *xrand.RNG
	prog *cfg.Program
	proc int // current procedure index
	// callSites collects the calls to wire after all procedures exist.
	// Callees of proc i are always procs > i, so the static call graph
	// is a DAG and the call stack is bounded.
	callSites []callSite
	// callees and calleeProbs are wireCalls' scratch lists of an indirect
	// call's targets and their probabilities.
	callees     []cfg.BlockID
	calleeProbs []float64
}

type callSite struct {
	block    cfg.BlockID
	caller   int // the procedure holding the call
	indirect bool
}

// Generate synthesizes the benchmark described by p.
func Generate(p Params) *cfg.Program {
	b := &builder{
		p:    p,
		rng:  xrand.New(p.Seed),
		prog: &cfg.Program{Name: p.Name},
	}
	for i := 0; i < p.NumProcs; i++ {
		b.genProc(i)
	}
	b.wireCalls()
	b.genDriver()
	b.prog.Compact()
	if err := b.prog.Validate(); err != nil {
		panic("workload: generated invalid program: " + err.Error())
	}
	return b.prog
}

// newBlock appends a fresh block to the current procedure and draws its
// classes. A block with a fixed successor count gets its successors now,
// NoBlock until link or its region fills them; indirect branches and calls
// get theirs once their targets are drawn.
func (b *builder) newBlock(n int, br isa.BranchType) cfg.BlockID {
	if n < 1 {
		n = 1
	}
	id := b.prog.AddBlock(n, br)
	b.classes(b.prog.Classes(id), br)
	switch br {
	case isa.BranchNone, isa.BranchUncond:
		b.prog.AddSuccs(id, 1)
	case isa.BranchCond:
		b.prog.AddSuccs(id, 2)
	}
	return id
}

// classes draws the instruction class mix of a block into cs.
func (b *builder) classes(cs []isa.Class, br isa.BranchType) {
	n := len(cs)
	body := n
	if br != isa.BranchNone {
		body = n - 1
		cs[n-1] = isa.ClassBranch
	}
	for i := 0; i < body; i++ {
		x := b.rng.Float64()
		switch {
		case x < b.p.LoadFrac:
			cs[i] = isa.ClassLoad
		case x < b.p.LoadFrac+b.p.StoreFrac:
			cs[i] = isa.ClassStore
		case x < b.p.LoadFrac+b.p.StoreFrac+b.p.MulFrac:
			cs[i] = isa.ClassMul
		default:
			cs[i] = isa.ClassALU
		}
	}
}

// blockLen draws a basic-block body length.
func (b *builder) blockLen() int {
	n := b.rng.Geometric(b.p.MeanBlockLen - 1)
	if n > 24 {
		n = 24
	}
	return n + 1 // room for the terminating branch
}

// condModel draws a behaviour model for a non-loop conditional branch.
func (b *builder) condModel() cfg.CondModel {
	if b.rng.Bool(b.p.FracPattern) {
		// A short repeating pattern; period 2..8.
		period := b.rng.IntRange(2, cfg.MaxPeriod)
		var pat uint8
		for i := 0; i < period; i++ {
			if b.rng.Bool(0.5) {
				pat |= 1 << i
			}
		}
		return cfg.CondModel{Kind: cfg.CondPattern, Period: uint8(period), Pattern: pat}
	}
	var p float64
	if b.rng.Bool(b.p.StrongBias) {
		p = 0.02 + b.rng.Float64()*0.08
		if b.rng.Bool(0.5) {
			p = 1 - p
		}
	} else {
		p = 0.15 + b.rng.Float64()*0.70
	}
	return cfg.CondModel{Kind: cfg.CondBias, P: p}
}

// genProc synthesizes one procedure as a chain of structured regions ending
// in a return block: one contiguous run of block IDs, entry first.
func (b *builder) genProc(idx int) {
	b.proc = idx
	nRegions := b.rng.IntRange(b.p.RegionsPerProc[0], b.p.RegionsPerProc[1])
	entry := b.newBlock(b.blockLen(), isa.BranchNone)
	tail := entry // block whose control flow must be wired to the next region
	for i := 0; i < nRegions; i++ {
		head, out := b.genRegion(0)
		b.link(tail, head)
		tail = out
	}
	ret := b.newBlock(b.rng.IntRange(1, 3), isa.BranchReturn)
	b.link(tail, ret)

	b.prog.Procs = append(b.prog.Procs, cfg.Proc{
		Name:  fmt.Sprintf("proc_%03d", idx),
		Entry: entry,
	})
}

// link wires block t's fall-through edge to head. For blocks that already
// transfer control (cond/loop exits are wired by genRegion), link only
// fills the missing successor; t is never a call, whose region ends in its
// continuation.
func (b *builder) link(t, head cfg.BlockID) {
	blk := &b.prog.Blocks[t]
	switch blk.Branch {
	case isa.BranchNone, isa.BranchUncond:
		if s := b.prog.Succs(t); s[0] == cfg.NoBlock {
			s[0] = head
		}
	case isa.BranchCond:
		// Loop headers and hammock conds wire both edges in genRegion;
		// only the exit edge (Succs[0]) may be pending.
		s := b.prog.Succs(t)
		for i := range s {
			if s[i] == cfg.NoBlock {
				s[i] = head
			}
		}
	}
}

// genRegion emits one structured region and returns its entry block and the
// block whose outgoing fall-through edge leads out of the region. depth
// limits nesting.
func (b *builder) genRegion(depth int) (head, out cfg.BlockID) {
	x := b.rng.Float64()
	p := b.p
	if depth >= p.MaxDepth {
		x = 1 // force straight-line at max depth
	}
	switch {
	case x < p.FracLoopRegion:
		return b.genLoop(depth)
	case x < p.FracLoopRegion+p.FracIfRegion:
		return b.genIf(depth)
	case x < p.FracLoopRegion+p.FracIfRegion+p.FracSwitchRegion:
		return b.genSwitch(depth)
	case x < p.FracLoopRegion+p.FracIfRegion+p.FracSwitchRegion+p.FracCallRegion:
		return b.genCall()
	default:
		blk := b.newBlock(b.blockLen(), isa.BranchNone)
		return blk, blk
	}
}

// genLoop emits: header(cond) -> body... -> latch(uncond back to header);
// header's fall-through edge exits the loop. The back edge is the branch
// side of the header condition, modelled as CondLoop so trip counts are
// coherent per loop entry.
func (b *builder) genLoop(depth int) (head, out cfg.BlockID) {
	header := b.newBlock(b.blockLen(), isa.BranchCond)
	trip := b.p.MeanTrip + b.rng.IntRange(-b.p.TripJitter, b.p.TripJitter)
	if trip < 2 {
		trip = 2
	}
	jitter := 0
	if !b.rng.Bool(b.p.LoopStability) {
		jitter = trip / 4
		if jitter < 1 {
			jitter = 1
		}
	}
	b.prog.SetCond(header, cfg.LoopModel(trip, jitter))
	// Loop bodies span several structured regions, like real inner loops;
	// this sets the stream length achievable inside loops (one taken
	// back-edge per iteration).
	bodyHead, bodyOut := b.genRegion(depth + 1)
	for i := b.rng.IntRange(0, 2); i > 0; i-- {
		h, o := b.genRegion(depth + 1)
		b.link(bodyOut, h)
		bodyOut = o
	}
	latch := b.newBlock(b.rng.IntRange(1, 3), isa.BranchUncond)
	b.prog.Succs(latch)[0] = header
	b.link(bodyOut, latch)
	// Succs[0] = exit (fall-through side, pending), Succs[1] = body.
	b.prog.Succs(header)[1] = bodyHead
	return header, header
}

// genIf emits an if-then or if-then-else hammock joining into a join block.
// Blocks are created in compiler source order (cond, then-arm, else-arm,
// join), which is hotness-agnostic: whether the frequent arm ends up
// adjacent to the condition in the baseline layout is a coin flip, exactly
// the situation profile-guided layout optimization exploits.
func (b *builder) genIf(depth int) (head, out cfg.BlockID) {
	cond := b.newBlock(b.blockLen(), isa.BranchCond)
	b.prog.SetCond(cond, b.condModel())

	if b.rng.Bool(0.45) {
		// if-then-else: then-arm laid first (base fall-through),
		// else-arm reached by taking the branch.
		thenHead, thenOut := b.genRegion(depth + 1)
		elseHead, elseOut := b.genRegion(depth + 1)
		join := b.newBlock(b.blockLen(), isa.BranchNone)
		b.link(thenOut, join)
		b.link(elseOut, join)
		s := b.prog.Succs(cond)
		s[0], s[1] = thenHead, elseHead
		return cond, join
	}
	// if-then: the branch skips the arm to the join.
	thenHead, thenOut := b.genRegion(depth + 1)
	join := b.newBlock(b.blockLen(), isa.BranchNone)
	b.link(thenOut, join)
	s := b.prog.Succs(cond)
	s[0], s[1] = thenHead, join
	return cond, join
}

// genSwitch emits an indirect multi-way branch with per-arm regions joining
// into a join block. Arm weights follow a skewed distribution so a couple of
// arms dominate, as real interpreters do.
func (b *builder) genSwitch(depth int) (head, out cfg.BlockID) {
	sw := b.newBlock(b.blockLen(), isa.BranchIndirect)
	join := b.newBlock(b.blockLen(), isa.BranchNone)
	arms := b.rng.IntRange(b.p.SwitchFanout[0], b.p.SwitchFanout[1])
	weights := make([]float64, arms)
	w := 1.0
	for i := range weights {
		weights[i] = w
		w *= 0.55
	}
	total := 0.0
	for _, x := range weights {
		total += x
	}
	b.prog.AddSuccs(sw, arms)
	b.prog.SetIndMarkov(sw, b.p.IndMarkov)
	probs := b.prog.ArmProbs(sw)
	for i := range probs {
		probs[i] = weights[i] / total
	}
	for i := 0; i < arms; i++ {
		armHead, armOut := b.genRegion(depth + 1)
		b.link(armOut, join)
		b.prog.Succs(sw)[i] = armHead
	}
	return sw, join
}

// genCall emits a call block; the callee is wired in wireCalls once all
// procedures exist.
func (b *builder) genCall() (head, out cfg.BlockID) {
	indirect := b.rng.Bool(b.p.IndirectCallFrac)
	bt := isa.BranchCall
	if indirect {
		bt = isa.BranchIndirectCall
	}
	blk := b.newBlock(b.blockLen(), bt)
	b.callSites = append(b.callSites, callSite{block: blk, caller: b.proc, indirect: indirect})
	// Every call gets a private epilogue block as its continuation, the
	// next block ID (cfg.Program.Cont), so that continuations are unique
	// per call site and can always be laid out immediately after the call
	// (the return-address invariant).
	epi := b.newBlock(b.rng.IntRange(1, 3), isa.BranchNone)
	return blk, epi
}

// wireCalls assigns callees to call sites. Caller proc i only calls procs
// with larger index, keeping the call graph acyclic so the dynamic call
// depth is bounded by NumProcs.
func (b *builder) wireCalls() {
	n := len(b.prog.Procs)
	for _, cs := range b.callSites {
		// wireCalls adds successors but no blocks, so blk stays valid.
		blk := &b.prog.Blocks[cs.block]
		caller := cs.caller
		if caller >= n-1 {
			// Last procedure cannot call anyone: demote to a plain
			// fall-through block into its continuation.
			cont := b.prog.Cont(cs.block)
			blk.Branch = isa.BranchNone
			b.prog.Classes(cs.block)[blk.NInsts-1] = isa.ClassALU
			b.prog.AddSuccs(cs.block, 1)[0] = cont
			continue
		}
		if cs.indirect {
			k := b.rng.IntRange(2, 4)
			weights := make([]float64, k)
			w := 1.0
			total := 0.0
			for i := range weights {
				weights[i] = w
				total += w
				w *= 0.5
			}
			b.callees, b.calleeProbs = b.callees[:0], b.calleeProbs[:0]
			for i := 0; i < k; i++ {
				entry := b.prog.Procs[b.rng.IntRange(caller+1, n-1)].Entry
				if !slices.Contains(b.callees, entry) {
					b.callees = append(b.callees, entry)
					b.calleeProbs = append(b.calleeProbs, weights[i]/total)
				}
			}
			copy(b.prog.AddSuccs(cs.block, len(b.callees)), b.callees)
			b.prog.SetIndMarkov(cs.block, b.p.IndMarkov)
			copy(b.prog.ArmProbs(cs.block), b.calleeProbs)
		} else {
			callee := b.rng.IntRange(caller+1, n-1)
			b.prog.AddSuccs(cs.block, 1)[0] = b.prog.Procs[callee].Entry
		}
	}
}

// genDriver turns procedure 0, the blocks before procedure 1's entry, into
// the program driver: its return block is replaced by an unconditional
// jump back to its entry so the program runs for as long as the trace
// generator wants.
func (b *builder) genDriver() {
	entry, end := b.prog.Procs[0].Entry, cfg.BlockID(len(b.prog.Blocks))
	if len(b.prog.Procs) > 1 {
		end = b.prog.Procs[1].Entry
	}
	for i := entry; i < end; i++ {
		if blk := &b.prog.Blocks[i]; blk.Branch == isa.BranchReturn {
			blk.Branch = isa.BranchUncond
			b.prog.AddSuccs(i, 1)[0] = entry
		}
	}
	b.prog.Entry = entry
}
