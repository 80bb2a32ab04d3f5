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
	// DataWorkingSet is the benchmark's data footprint in bytes, used to
	// synthesize load/store addresses in the back-end model.
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

// builder synthesizes one program.
type builder struct {
	p      Params
	rng    *xrand.RNG
	prog   *cfg.Program
	proc   int // current procedure index
	blocks []cfg.BlockID
	// callSites collects (block, calleeCount) to wire after all
	// procedures exist. Callees of proc i are always procs > i, so the
	// static call graph is a DAG and the call stack is bounded.
	callSites []callSite
}

type callSite struct {
	block    cfg.BlockID
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
	if err := b.prog.Validate(); err != nil {
		panic("workload: generated invalid program: " + err.Error())
	}
	return b.prog
}

// newBlock appends a fresh block to the current procedure.
func (b *builder) newBlock(n int, br isa.BranchType) *cfg.Block {
	if n < 1 {
		n = 1
	}
	blk := &cfg.Block{
		ID:     cfg.BlockID(len(b.prog.Blocks)),
		Proc:   int32(b.proc),
		NInsts: int32(n),
		Branch: br,
		Cont:   cfg.NoBlock,
	}
	blk.Classes = b.classes(n, br)
	b.prog.Blocks = append(b.prog.Blocks, blk)
	b.blocks = append(b.blocks, blk.ID)
	return blk
}

// classes draws the instruction class mix for a block.
func (b *builder) classes(n int, br isa.BranchType) []isa.Class {
	cs := make([]isa.Class, n)
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
	return cs
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
		period := b.rng.IntRange(2, 8)
		pat := make([]bool, period)
		for i := range pat {
			pat[i] = b.rng.Bool(0.5)
		}
		return cfg.CondModel{Kind: cfg.CondPattern, Pattern: pat}
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
// in a return block.
func (b *builder) genProc(idx int) {
	b.proc = idx
	start := len(b.prog.Blocks)
	b.blocks = nil

	nRegions := b.rng.IntRange(b.p.RegionsPerProc[0], b.p.RegionsPerProc[1])
	entry := b.newBlock(b.blockLen(), isa.BranchNone)
	tail := entry // block whose control flow must be wired to the next region
	for i := 0; i < nRegions; i++ {
		head, out := b.genRegion(0)
		b.link(tail, head.ID)
		tail = out
	}
	ret := b.newBlock(b.rng.IntRange(1, 3), isa.BranchReturn)
	b.link(tail, ret.ID)

	b.prog.Procs = append(b.prog.Procs, cfg.Proc{
		Name:   fmt.Sprintf("proc_%03d", idx),
		Entry:  entry.ID,
		Blocks: b.blockIDsFrom(start),
	})
}

func (b *builder) blockIDsFrom(start int) []cfg.BlockID {
	ids := make([]cfg.BlockID, 0, len(b.prog.Blocks)-start)
	for i := start; i < len(b.prog.Blocks); i++ {
		ids = append(ids, cfg.BlockID(i))
	}
	return ids
}

// link wires block t's fall-through/continuation edge to head. For blocks
// that already transfer control (cond/loop exits are wired by genRegion),
// link only fills the missing successor.
func (b *builder) link(t *cfg.Block, head cfg.BlockID) {
	switch t.Branch {
	case isa.BranchNone, isa.BranchUncond:
		if len(t.Succs) == 0 {
			t.Succs = []cfg.Edge{{To: head, Prob: 1}}
		}
	case isa.BranchCall, isa.BranchIndirectCall:
		if t.Cont == cfg.NoBlock {
			t.Cont = head
		}
	case isa.BranchCond:
		// Loop headers and hammock conds wire both edges in genRegion;
		// only the exit edge (Succs[0]) may be pending.
		for i := range t.Succs {
			if t.Succs[i].To == cfg.NoBlock {
				t.Succs[i].To = head
			}
		}
	}
}

// genRegion emits one structured region and returns its entry block and the
// block whose outgoing fall-through edge leads out of the region. depth
// limits nesting.
func (b *builder) genRegion(depth int) (head, out *cfg.Block) {
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
func (b *builder) genLoop(depth int) (head, out *cfg.Block) {
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
	header.Cond = cfg.CondModel{
		Kind:       cfg.CondLoop,
		Trip:       int32(trip),
		TripJitter: int32(jitter),
	}
	// Loop bodies span several structured regions, like real inner loops;
	// this sets the stream length achievable inside loops (one taken
	// back-edge per iteration).
	bodyHead, bodyOut := b.genRegion(depth + 1)
	for i := b.rng.IntRange(0, 2); i > 0; i-- {
		h, o := b.genRegion(depth + 1)
		b.link(bodyOut, h.ID)
		bodyOut = o
	}
	latch := b.newBlock(b.rng.IntRange(1, 3), isa.BranchUncond)
	latch.Succs = []cfg.Edge{{To: header.ID, Prob: 1}}
	b.link(bodyOut, latch.ID)
	// Succs[0] = exit (fall-through side, pending), Succs[1] = body.
	header.Succs = []cfg.Edge{
		{To: cfg.NoBlock, Prob: 1.0 / float64(trip)},
		{To: bodyHead.ID, Prob: 1 - 1.0/float64(trip)},
	}
	return header, header
}

// genIf emits an if-then or if-then-else hammock joining into a join block.
// Blocks are created in compiler source order (cond, then-arm, else-arm,
// join), which is hotness-agnostic: whether the frequent arm ends up
// adjacent to the condition in the baseline layout is a coin flip, exactly
// the situation profile-guided layout optimization exploits.
func (b *builder) genIf(depth int) (head, out *cfg.Block) {
	cond := b.newBlock(b.blockLen(), isa.BranchCond)
	cond.Cond = b.condModel()
	pTaken := condProb(cond.Cond) // long-run probability of Succs[1]

	if b.rng.Bool(0.45) {
		// if-then-else: then-arm laid first (base fall-through),
		// else-arm reached by taking the branch.
		thenHead, thenOut := b.genRegion(depth + 1)
		elseHead, elseOut := b.genRegion(depth + 1)
		join := b.newBlock(b.blockLen(), isa.BranchNone)
		b.link(thenOut, join.ID)
		b.link(elseOut, join.ID)
		cond.Succs = []cfg.Edge{
			{To: thenHead.ID, Prob: 1 - pTaken},
			{To: elseHead.ID, Prob: pTaken},
		}
		return cond, join
	}
	// if-then: the branch skips the arm to the join.
	thenHead, thenOut := b.genRegion(depth + 1)
	join := b.newBlock(b.blockLen(), isa.BranchNone)
	b.link(thenOut, join.ID)
	cond.Succs = []cfg.Edge{
		{To: thenHead.ID, Prob: 1 - pTaken},
		{To: join.ID, Prob: pTaken},
	}
	return cond, join
}

// condProb returns the long-run probability of the branch side of a cond.
func condProb(m cfg.CondModel) float64 {
	switch m.Kind {
	case cfg.CondBias:
		return m.P
	case cfg.CondPattern:
		n := 0
		for _, t := range m.Pattern {
			if t {
				n++
			}
		}
		return float64(n) / float64(len(m.Pattern))
	case cfg.CondLoop:
		return 1 - 1/float64(m.Trip)
	}
	return 0.5
}

// genSwitch emits an indirect multi-way branch with per-arm regions joining
// into a join block. Arm weights follow a skewed distribution so a couple of
// arms dominate, as real interpreters do.
func (b *builder) genSwitch(depth int) (head, out *cfg.Block) {
	sw := b.newBlock(b.blockLen(), isa.BranchIndirect)
	sw.IndMarkov = b.p.IndMarkov
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
	for i := 0; i < arms; i++ {
		armHead, armOut := b.genRegion(depth + 1)
		b.link(armOut, join.ID)
		sw.Succs = append(sw.Succs, cfg.Edge{To: armHead.ID, Prob: weights[i] / total})
	}
	return sw, join
}

// genCall emits a call block; the callee is wired in wireCalls once all
// procedures exist.
func (b *builder) genCall() (head, out *cfg.Block) {
	indirect := b.rng.Bool(b.p.IndirectCallFrac)
	bt := isa.BranchCall
	if indirect {
		bt = isa.BranchIndirectCall
	}
	blk := b.newBlock(b.blockLen(), bt)
	b.callSites = append(b.callSites, callSite{block: blk.ID, indirect: indirect})
	// Every call gets a private epilogue block as its continuation, so
	// that continuations are unique per call site and can always be laid
	// out immediately after the call (the return-address invariant).
	epi := b.newBlock(b.rng.IntRange(1, 3), isa.BranchNone)
	blk.Cont = epi.ID
	return blk, epi
}

// wireCalls assigns callees to call sites. Caller proc i only calls procs
// with larger index, keeping the call graph acyclic so the dynamic call
// depth is bounded by NumProcs.
func (b *builder) wireCalls() {
	n := len(b.prog.Procs)
	for _, cs := range b.callSites {
		blk := b.prog.Blocks[cs.block]
		caller := int(blk.Proc)
		if caller >= n-1 {
			// Last procedure cannot call anyone: demote to a plain
			// fall-through block into its continuation.
			blk.Branch = isa.BranchNone
			blk.Classes[blk.NInsts-1] = isa.ClassALU
			blk.Succs = []cfg.Edge{{To: blk.Cont, Prob: 1}}
			blk.Cont = cfg.NoBlock
			continue
		}
		if cs.indirect {
			blk.IndMarkov = b.p.IndMarkov
			k := b.rng.IntRange(2, 4)
			weights := make([]float64, k)
			w := 1.0
			total := 0.0
			for i := range weights {
				weights[i] = w
				total += w
				w *= 0.5
			}
			seen := map[int]bool{}
			for i := 0; i < k; i++ {
				callee := b.rng.IntRange(caller+1, n-1)
				if seen[callee] {
					continue
				}
				seen[callee] = true
				blk.Succs = append(blk.Succs, cfg.Edge{
					To:   b.prog.Procs[callee].Entry,
					Prob: weights[i] / total,
				})
			}
		} else {
			callee := b.rng.IntRange(caller+1, n-1)
			blk.Succs = []cfg.Edge{{To: b.prog.Procs[callee].Entry, Prob: 1}}
		}
	}
}

// genDriver turns procedure 0 into the program driver: its return block is
// replaced by an unconditional jump back to its entry so the program runs
// for as long as the trace generator wants.
func (b *builder) genDriver() {
	entry := b.prog.Procs[0].Entry
	for _, id := range b.prog.Procs[0].Blocks {
		blk := b.prog.Blocks[id]
		if blk.Branch == isa.BranchReturn {
			blk.Branch = isa.BranchUncond
			blk.Succs = []cfg.Edge{{To: entry, Prob: 1}}
		}
	}
	b.prog.Entry = entry
}
