// Package layout assigns code addresses to the basic blocks of a program.
// It implements two layouts, mirroring the paper's methodology:
//
//   - Baseline: blocks in program order (compiler order, no profile).
//   - Optimized: profile-guided greedy chaining in the style of
//     Pettis–Hansen / the Software Trace Cache, standing in for Compaq's
//     spike tool. Hot chains fall through their most likely successor and
//     are packed first; cold code is moved out of the way.
//
// Crucially, taken/not-taken is *derived from layout*: a branch instance is
// taken iff the dynamically following block is not the fall-through block.
// The optimizer therefore converts frequent taken branches into not-taken
// ones, removes unconditional jumps to adjacent blocks, and materializes
// jumps when a chain breaks — exactly the mechanism by which code layout
// optimization lengthens instruction streams.
package layout

import (
	"fmt"
	"sort"

	"streamfetch/internal/cfg"
	"streamfetch/internal/isa"
)

// Arrangement describes how a block's terminating control flow is encoded
// under a layout.
type Arrangement uint8

const (
	// ArrAsIs keeps the block's CFG instructions unchanged.
	ArrAsIs Arrangement = iota
	// ArrElide removes a trailing unconditional jump whose target is the
	// layout-adjacent block (layout optimizers delete such jumps).
	ArrElide
	// ArrAppendJump appends an unconditional jump because no successor is
	// layout-adjacent (a broken chain).
	ArrAppendJump
)

// CodeBase is the address of the first instruction.
const CodeBase isa.Addr = 0x0001_0000

// Layout is an address assignment for a program. Besides the per-block
// tables it holds the static image: one packed uint32 decode word per code
// slot (class, branch type and static target; format in image.go), about 4
// bytes per slot. Slots are not mapped back to their owning blocks: BlockAt
// searches the block starts, since nothing on the fetch path calls it.
type Layout struct {
	Prog *cfg.Program
	// Name is "base" or "optimized".
	Name string
	// Order lists blocks in address order.
	Order []cfg.BlockID

	start []isa.Addr // block start address
	slots []int32    // encoded slot count (NInsts +/- arrangement)
	arr   []Arrangement
	fall  []cfg.BlockID // block placed immediately after (NoBlock for last)
	// condTarget is, for ArrAsIs conditional blocks, the successor index
	// (0 or 1) reached by *taking* the encoded branch; the other side is
	// the fall-through.
	condTarget []int8
	totalSlots int

	// decode holds one packed word per slot of the code segment, built
	// once in build(); see image.go.
	decode []uint32
}

// contCalls returns, per block, the call block whose continuation it is
// (NoBlock otherwise).
func contCalls(p *cfg.Program) []cfg.BlockID {
	m := make([]cfg.BlockID, len(p.Blocks))
	for i := range m {
		m[i] = cfg.NoBlock
	}
	for i, b := range p.Blocks {
		if b.Branch == isa.BranchCall || b.Branch == isa.BranchIndirectCall {
			m[b.Cont] = cfg.BlockID(i)
		}
	}
	return m
}

// build assigns addresses following order.
func build(p *cfg.Program, name string, order []cfg.BlockID) *Layout {
	if len(order) != len(p.Blocks) {
		panic(fmt.Sprintf("layout: order has %d blocks, program has %d",
			len(order), len(p.Blocks)))
	}
	l := &Layout{
		Prog:       p,
		Name:       name,
		Order:      order,
		start:      make([]isa.Addr, len(p.Blocks)),
		slots:      make([]int32, len(p.Blocks)),
		arr:        make([]Arrangement, len(p.Blocks)),
		fall:       make([]cfg.BlockID, len(p.Blocks)),
		condTarget: make([]int8, len(p.Blocks)),
	}
	// Layout successor relation.
	for i, id := range order {
		if i+1 < len(order) {
			l.fall[id] = order[i+1]
		} else {
			l.fall[id] = cfg.NoBlock
		}
	}
	// Decide arrangements.
	for _, id := range order {
		b := &p.Blocks[id]
		succs := p.Succs(id)
		next := l.fall[id]
		arrange := ArrAsIs
		slots := int32(b.NInsts)
		switch b.Branch {
		case isa.BranchNone:
			if succs[0] != next {
				arrange = ArrAppendJump
				slots++
			}
		case isa.BranchUncond:
			if succs[0] == next {
				arrange = ArrElide
				slots--
			}
		case isa.BranchCond:
			switch {
			case succs[0] == next:
				l.condTarget[id] = 1
			case succs[1] == next:
				l.condTarget[id] = 0
			default:
				arrange = ArrAppendJump
				l.condTarget[id] = 1 // encoded branch aims at Succs[1]
				slots++              // appended jump aims at Succs[0]
			}
		case isa.BranchCall, isa.BranchIndirectCall:
			if b.Cont != next {
				panic(fmt.Sprintf("layout %s: call block %d continuation %d not adjacent (next %d)",
					name, id, b.Cont, next))
			}
		}
		if slots < 1 {
			// An elided single-instruction jump block still occupies
			// one slot (a nop); real optimizers would merge it away,
			// but keeping one slot preserves block identity.
			slots = 1
			arrange = ArrAsIs
		}
		l.arr[id] = arrange
		l.slots[id] = slots
	}
	// Assign addresses.
	addr := CodeBase
	for _, id := range order {
		l.start[id] = addr
		addr = addr.Plus(int(l.slots[id]))
		l.totalSlots += int(l.slots[id])
	}
	if l.totalSlots >= maxSlots {
		panic(fmt.Sprintf("layout %s: %d code slots do not fit a decode word (at most %d)",
			name, l.totalSlots, maxSlots-1))
	}
	l.buildDecode()
	return l
}

// Baseline lays blocks out in program (creation) order, repaired so that
// call continuations stay adjacent to their call sites.
func Baseline(p *cfg.Program) *Layout {
	order := make([]cfg.BlockID, len(p.Blocks))
	for i := range order {
		order[i] = cfg.BlockID(i)
	}
	order = repairCallAdjacency(p, order, contCalls(p))
	return build(p, "base", order)
}

// Optimized lays blocks out with profile-guided Pettis–Hansen chain merging
// (as the Software Trace Cache does): every block starts as its own chain;
// call→continuation pairs merge first (mandatory adjacency); then chainable
// edges merge in descending weight order whenever the source is a chain tail
// and the destination a chain head. Hot chains are emitted first (entry
// chain leading), cold never-executed code last.
func Optimized(p *cfg.Program, prof *cfg.Profile) *Layout {
	n := len(p.Blocks)

	// Chain bookkeeping: chainID per block; chains as block lists.
	chainID := make([]int, n)
	chains := make([][]cfg.BlockID, n)
	for i := 0; i < n; i++ {
		chainID[i] = i
		chains[i] = []cfg.BlockID{cfg.BlockID(i)}
	}
	isTail := func(id cfg.BlockID) bool {
		c := chains[chainID[id]]
		return c[len(c)-1] == id
	}
	isHead := func(id cfg.BlockID) bool {
		return chains[chainID[id]][0] == id
	}
	merge := func(a, b cfg.BlockID) bool {
		ca, cb := chainID[a], chainID[b]
		if ca == cb || !isTail(a) || !isHead(b) {
			return false
		}
		for _, id := range chains[cb] {
			chainID[id] = ca
		}
		chains[ca] = append(chains[ca], chains[cb]...)
		chains[cb] = nil
		return true
	}

	// 1. Mandatory merges: a call's continuation must follow it.
	for i, b := range p.Blocks {
		if b.Branch == isa.BranchCall || b.Branch == isa.BranchIndirectCall {
			if !merge(cfg.BlockID(i), b.Cont) {
				panic(fmt.Sprintf("layout: cannot keep continuation %d after call %d",
					b.Cont, i))
			}
		}
	}

	// 2. Chainable edges (control flow that can be encoded as a
	// fall-through) in descending weight order.
	type wedge struct {
		from, to cfg.BlockID
		w        uint64
	}
	var edges []wedge
	for i := range p.Blocks {
		switch id := cfg.BlockID(i); p.Blocks[i].Branch {
		case isa.BranchNone, isa.BranchUncond, isa.BranchCond:
			for _, to := range p.Succs(id) {
				w := prof.EdgeCount[cfg.EdgeKey{From: id, To: to}]
				if w > 0 {
					edges = append(edges, wedge{id, to, w})
				}
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].w != edges[j].w {
			return edges[i].w > edges[j].w
		}
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		return edges[i].to < edges[j].to
	})
	for _, e := range edges {
		merge(e.from, e.to)
	}
	// Second pass: merge remaining *static* fall-through edges (weight 0)
	// in program order, so code the training run never reached still lays
	// out in structured order instead of degenerating into singleton
	// chains of materialized jumps.
	for i := range p.Blocks {
		switch id := cfg.BlockID(i); p.Blocks[i].Branch {
		case isa.BranchNone, isa.BranchUncond, isa.BranchCond:
			merge(id, p.Succs(id)[0])
		}
	}

	// 3. Emit chains: the entry chain first, then remaining chains by
	// descending hotness (the hottest block they contain), cold chains
	// (never executed) last in block-ID order for determinism.
	type rankedChain struct {
		id   int
		hot  uint64
		head cfg.BlockID
	}
	var ranked []rankedChain
	for ci, c := range chains {
		if len(c) == 0 {
			continue
		}
		var hot uint64
		for _, id := range c {
			if prof.BlockCount[id] > hot {
				hot = prof.BlockCount[id]
			}
		}
		ranked = append(ranked, rankedChain{ci, hot, c[0]})
	}
	entryChain := chainID[p.Entry]
	sort.SliceStable(ranked, func(i, j int) bool {
		if ranked[i].id == entryChain {
			return true
		}
		if ranked[j].id == entryChain {
			return false
		}
		if ranked[i].hot != ranked[j].hot {
			return ranked[i].hot > ranked[j].hot
		}
		return ranked[i].head < ranked[j].head
	})
	order := make([]cfg.BlockID, 0, n)
	for _, rc := range ranked {
		order = append(order, chains[rc.id]...)
	}
	return build(p, "optimized", order)
}

// repairCallAdjacency re-orders blocks minimally so every call block is
// immediately followed by its continuation.
func repairCallAdjacency(p *cfg.Program, order []cfg.BlockID, contOf []cfg.BlockID) []cfg.BlockID {
	out := make([]cfg.BlockID, 0, len(order))
	emitted := make([]bool, len(p.Blocks))
	var emit func(id cfg.BlockID)
	emit = func(id cfg.BlockID) {
		if emitted[id] {
			return
		}
		emitted[id] = true
		out = append(out, id)
		if b := &p.Blocks[id]; b.Branch == isa.BranchCall || b.Branch == isa.BranchIndirectCall {
			emit(b.Cont)
		}
	}
	for _, id := range order {
		// Skip continuations here; they are pulled in by their call.
		if contOf[id] != cfg.NoBlock && !emitted[id] {
			continue
		}
		emit(id)
	}
	// Any continuation whose call was never placed (unreachable code).
	for _, id := range order {
		emit(id)
	}
	return out
}

// Start returns the first instruction address of block id.
func (l *Layout) Start(id cfg.BlockID) isa.Addr { return l.start[id] }

// Slots returns the encoded instruction count of block id under this layout
// (NInsts, plus an appended jump or minus an elided jump).
func (l *Layout) Slots(id cfg.BlockID) int { return int(l.slots[id]) }

// End returns the address one past the last slot of block id.
func (l *Layout) End(id cfg.BlockID) isa.Addr {
	return l.start[id].Plus(int(l.slots[id]))
}

// Arrange returns the arrangement of block id.
func (l *Layout) Arrange(id cfg.BlockID) Arrangement { return l.arr[id] }

// FallThrough returns the block placed immediately after id.
func (l *Layout) FallThrough(id cfg.BlockID) cfg.BlockID { return l.fall[id] }

// CondTargetSide returns which successor index (0/1) the encoded conditional
// branch of block id jumps to when taken.
func (l *Layout) CondTargetSide(id cfg.BlockID) int { return int(l.condTarget[id]) }

// MaxBlockSlots returns the largest per-block slot count in the image: an
// upper bound on the dynamic instructions one execution of any block can
// emit, used to pre-size expansion buffers.
func (l *Layout) MaxBlockSlots() int {
	m := int32(1)
	for _, n := range l.slots {
		if n > m {
			m = n
		}
	}
	return int(m)
}

// CodeSize returns the total code size in bytes under this layout.
func (l *Layout) CodeSize() int { return l.totalSlots * isa.InstBytes }

// TotalSlots returns the total encoded instruction count.
func (l *Layout) TotalSlots() int { return l.totalSlots }

// Validate checks internal invariants (addresses contiguous, call
// continuations adjacent).
func (l *Layout) Validate() error {
	addr := CodeBase
	for _, id := range l.Order {
		if l.start[id] != addr {
			return fmt.Errorf("layout %s: block %d starts at %v, want %v",
				l.Name, id, l.start[id], addr)
		}
		addr = addr.Plus(int(l.slots[id]))
		if b := &l.Prog.Blocks[id]; b.Branch == isa.BranchCall || b.Branch == isa.BranchIndirectCall {
			if l.fall[id] != b.Cont {
				return fmt.Errorf("layout %s: call block %d not followed by continuation %d",
					l.Name, id, b.Cont)
			}
		}
	}
	return nil
}
