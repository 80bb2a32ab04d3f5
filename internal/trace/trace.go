// Package trace executes a program CFG to produce dynamic traces: the
// sequence of basic blocks a run visits. Branch behaviour (bias, loop trip
// counts, repeating patterns, indirect target selection) is driven by a
// seeded PRNG plus per-branch runtime state, so traces are deterministic and
// reproducible.
//
// The dynamic block sequence is layout-independent; package layout expands
// it to concrete instruction addresses under a given code layout. The
// package also implements a compact binary on-disk trace format, standing in
// for the paper's 300M-instruction SPEC2000 trace files.
//
// Traces are delivered through the pull-based Source interface (source.go):
// generated on the fly, streamed from disk, or, in tests, wrapped around a
// block slice. Consumers that iterate a Source run in memory independent of trace
// length, which is what makes paper-scale (100M+ instruction) runs
// practical. Sources deliver blocks in bulk through Source.NextBatch — one
// interface call per batch instead of one per block — and Blocks ranges
// over a source one block at a time.
package trace

import (
	"streamfetch/internal/cfg"
	"streamfetch/internal/isa"
	"streamfetch/internal/xrand"
)

// Trace is a dynamic execution of a program, recorded at basic-block
// granularity (the paper's simulator is trace driven with a static basic
// block dictionary; this is the same representation).
type Trace struct {
	// Name is the benchmark name.
	Name string
	// Blocks is the dynamic basic-block sequence.
	Blocks []cfg.BlockID
	// Insts is the total CFG-level instruction count (layout extras such
	// as materialized or elided jumps not included).
	Insts uint64
}

// GenConfig controls trace generation.
type GenConfig struct {
	// Seed drives branch behaviour. Different seeds model different
	// inputs (the paper uses train input for profiling and ref input for
	// measurement).
	Seed uint64
	// MaxInsts stops generation once this many CFG-level instructions
	// have been emitted.
	MaxInsts uint64
	// Profile, if non-nil, accumulates block and chainable-edge counts
	// during generation (used to drive the layout optimizer).
	Profile *cfg.Profile
}

// branchState holds per-static-branch runtime state. A generator holds
// one per block its walk has reached, so its fields are narrowed to 8
// bytes.
type branchState struct {
	// remaining is the number of loop-body iterations left (CondLoop).
	remaining int32
	// prevArm is the previously chosen arm of an indirect branch
	// (first-order Markov dispatch); a block has at most 2^16-1 arms.
	prevArm uint16
	// pos is the position within the repeating pattern (CondPattern),
	// below cfg.MaxPeriod.
	pos    uint8
	active bool
}

// statePageBits sizes a branch-state page: 512 blocks, 4 KB.
const statePageBits = 9

// statePage is the branch state of 512 consecutive block IDs.
type statePage [1 << statePageBits]branchState

// Generator walks a CFG emitting the dynamic block sequence. It can be used
// incrementally (Next) or in one shot (Generate).
//
// Branch state lives in pages of 512 blocks, allocated when the walk first
// evaluates a stateful branch in one of them: a walk reaches a small part
// of a large program's code, so a generator (and each Clone of it) holds
// state for that part only.
type Generator struct {
	prog  *cfg.Program
	rng   xrand.RNG
	pages []*statePage  // nil until a block of the page needs state
	stack []cfg.BlockID // continuation blocks of active calls
	cur   cfg.BlockID
	insts uint64
	prof  *cfg.Profile
}

// NewGenerator returns a generator positioned at the program entry.
func NewGenerator(p *cfg.Program, seed uint64, prof *cfg.Profile) *Generator {
	return &Generator{
		prog:  p,
		rng:   *xrand.New(seed),
		pages: make([]*statePage, (len(p.Blocks)+1<<statePageBits-1)>>statePageBits),
		cur:   p.Entry,
		prof:  prof,
	}
}

// Clone returns an independent generator at g's position: it emits
// exactly the blocks g would emit next, and advancing either leaves the
// other where it was. The clone records no profile.
func (g *Generator) Clone() *Generator {
	c := *g
	c.pages = make([]*statePage, len(g.pages))
	for i, p := range g.pages {
		if p != nil {
			cp := *p
			c.pages[i] = &cp
		}
	}
	c.stack = append([]cfg.BlockID(nil), g.stack...)
	c.prof = nil
	return &c
}

// state returns the branch state of block id, allocating its page on
// first use.
func (g *Generator) state(id cfg.BlockID) *branchState {
	p := g.pages[id>>statePageBits]
	if p == nil {
		p = new(statePage)
		g.pages[id>>statePageBits] = p
	}
	return &p[id&(1<<statePageBits-1)]
}

// Next returns the next executed block. ok is false once the program has
// terminated (a return with an empty call stack).
func (g *Generator) Next() (id cfg.BlockID, ok bool) {
	if g.cur == cfg.NoBlock {
		return cfg.NoBlock, false
	}
	id = g.cur
	b := &g.prog.Blocks[id]
	g.insts += uint64(b.NInsts)
	if g.prof != nil {
		g.prof.AddBlock(id)
	}
	next := g.step(id, b)
	if g.prof != nil && next != cfg.NoBlock {
		switch b.Branch {
		case isa.BranchNone, isa.BranchUncond, isa.BranchCond:
			g.prof.AddEdge(id, next)
		}
	}
	g.cur = next
	return id, true
}

// Insts returns the CFG-level instruction count emitted so far.
func (g *Generator) Insts() uint64 { return g.insts }

// PeekInsts returns the instruction count of the block Next would emit,
// without advancing the walk; ok is false once the program has terminated.
func (g *Generator) PeekInsts() (int, bool) {
	if g.cur == cfg.NoBlock {
		return 0, false
	}
	return int(g.prog.Blocks[g.cur].NInsts), true
}

// step evaluates the terminating branch of block id, b, and returns the
// next block.
func (g *Generator) step(id cfg.BlockID, b *cfg.Block) cfg.BlockID {
	succs := g.prog.Succs(id)
	switch b.Branch {
	case isa.BranchNone, isa.BranchUncond:
		return succs[0]
	case isa.BranchCond:
		if g.condTakesBranchSide(id) {
			return succs[1]
		}
		return succs[0]
	case isa.BranchCall:
		g.stack = append(g.stack, g.prog.Cont(id))
		return succs[0]
	case isa.BranchIndirectCall:
		g.stack = append(g.stack, g.prog.Cont(id))
		return succs[g.pickArm(id, len(succs))]
	case isa.BranchIndirect:
		return succs[g.pickArm(id, len(succs))]
	case isa.BranchReturn:
		if len(g.stack) == 0 {
			return cfg.NoBlock
		}
		top := g.stack[len(g.stack)-1]
		g.stack = g.stack[:len(g.stack)-1]
		return top
	default:
		return cfg.NoBlock
	}
}

// condTakesBranchSide evaluates the conditional model of block id,
// returning true when the branch side (Succs[1]) is followed. Biased
// branches keep no state.
func (g *Generator) condTakesBranchSide(id cfg.BlockID) bool {
	m := g.prog.Cond(id)
	switch m.Kind {
	case cfg.CondLoop:
		st := g.state(id)
		if !st.active {
			trip := int(m.Trip)
			if j := int(m.TripJitter); j > 0 {
				trip += g.rng.IntRange(-j, j)
			}
			if trip < 1 {
				trip = 1
			}
			st.active = true
			st.remaining = int32(trip)
		}
		if st.remaining > 0 {
			st.remaining--
			return true // stay in the loop (branch side is the body)
		}
		st.active = false
		return false // exit
	case cfg.CondPattern:
		st := g.state(id)
		t := m.PatternAt(int(st.pos))
		st.pos++
		if st.pos >= m.Period {
			st.pos = 0
		}
		return t
	default: // CondBias
		return g.rng.Bool(m.P)
	}
}

// pickArm selects one of the n arms of indirect branch or call id: with
// probability IndMarkov the dispatch follows a deterministic cycle over
// the arms (correlated, path-predictable, as interpreter loops are);
// otherwise it picks by arm probability.
func (g *Generator) pickArm(id cfg.BlockID, n int) int {
	st := g.state(id)
	if n > 1 && g.rng.Bool(g.prog.IndMarkov(id)) {
		st.prevArm = uint16((int(st.prevArm) + 1) % n)
	} else {
		st.prevArm = uint16(g.pickEdge(g.prog.ArmProbs(id)))
	}
	return int(st.prevArm)
}

// pickEdge selects an arm index by its probability.
func (g *Generator) pickEdge(probs []float64) int {
	if len(probs) == 1 {
		return 0
	}
	x := g.rng.Float64()
	for i, p := range probs {
		x -= p
		if x < 0 {
			return i
		}
	}
	return len(probs) - 1
}

// Generate runs the program from its entry and materializes the trace in
// memory. It emits exactly the sequence NewGenSource streams for the same
// config; callers that only iterate should prefer the source, whose memory
// use is independent of MaxInsts.
func Generate(p *cfg.Program, gc GenConfig) *Trace {
	g := NewGenerator(p, gc.Seed, gc.Profile)
	t := &Trace{Name: p.Name, Blocks: make([]cfg.BlockID, 0, max(gc.MaxInsts/5, 16))}
	for g.insts < gc.MaxInsts {
		id, ok := g.Next()
		if !ok {
			break
		}
		t.Blocks = append(t.Blocks, id)
	}
	t.Insts = g.insts
	return t
}

// CollectProfile runs a training execution of maxInsts instructions and
// returns the profile, without materializing the block sequence. This is the
// pixie+train-input step of the paper's methodology.
func CollectProfile(p *cfg.Program, seed uint64, maxInsts uint64) *cfg.Profile {
	prof := cfg.NewProfile(p)
	g := NewGenerator(p, seed, prof)
	for g.insts < maxInsts {
		if _, ok := g.Next(); !ok {
			break
		}
	}
	return prof
}
