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
//
// A resident layout is small: about 1.2 bytes per code slot plus 4 per
// direct branch (the static image, image.go) and 5 bytes per block (its
// start slot and a shape byte). Everything else about a block under the
// layout, its slot count, end, fall-through block and place in address
// order, follows from those and the program.
package layout

import (
	"cmp"
	"fmt"
	"slices"
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
// tables it holds the static image (format in image.go): a kind byte per
// code slot (class and branch type) and a target index by rank for the
// direct branches, about 1.2 bytes per slot plus 4 per direct branch. Per
// block it keeps 5 bytes: its start slot and its shape; its slot count
// follows from the shape and the block's NInsts (slotCount). Neither the
// order the blocks were laid out in nor the owner of each slot is stored:
// nothing on the fetch path needs them.
type Layout struct {
	Prog *cfg.Program
	// Name is "base" or "optimized".
	Name string

	// start is each block's first slot, counted from CodeBase; maxSlots
	// caps the segment below 2^24-1 slots.
	start []uint32
	// shape packs each block's Arrangement (bits 0-1) and, for an ArrAsIs
	// or ArrAppendJump conditional block, the successor index (0 or 1)
	// reached by *taking* the encoded branch (bit 2; the other side is the
	// fall-through or the appended jump).
	shape         []uint8
	totalSlots    int
	maxBlockSlots int

	// The static image, built once in build(); see image.go. kind holds
	// one byte per slot of the code segment; direct marks the slots with
	// a static target, rank counts them before each 64-slot word, and
	// targets holds their target slots in slot order.
	kind    []uint8
	direct  []uint64
	rank    []uint32
	targets []uint32
}

// Shape fields.
const (
	arrMask       = 0x3
	condSideShift = 2
)

// slotCount returns the slots a block of n CFG instructions occupies under
// arrangement arr: one more for an appended jump, one fewer for an elided
// jump, and at least one.
func slotCount(n uint8, arr Arrangement) int {
	s := int(n)
	switch arr {
	case ArrAppendJump:
		s++
	case ArrElide:
		s--
	}
	return max(s, 1)
}

// build assigns addresses following order.
func build(p *cfg.Program, name string, order []cfg.BlockID) *Layout {
	if len(order) != len(p.Blocks) {
		panic(fmt.Sprintf("layout: order has %d blocks, program has %d",
			len(order), len(p.Blocks)))
	}
	l := &Layout{
		Prog:          p,
		Name:          name,
		start:         make([]uint32, len(p.Blocks)),
		shape:         make([]uint8, len(p.Blocks)),
		maxBlockSlots: 1,
	}
	for i, id := range order {
		// next is the block laid out immediately after id.
		next := cfg.NoBlock
		if i+1 < len(order) {
			next = order[i+1]
		}
		b := &p.Blocks[id]
		succs := p.Succs(id)
		arrange := ArrAsIs
		var side uint8
		switch b.Branch {
		case isa.BranchNone:
			if succs[0] != next {
				arrange = ArrAppendJump
			}
		case isa.BranchUncond:
			// An elided single-instruction jump block would have no
			// slot left, so it keeps its jump (aimed at the adjacent
			// block): real optimizers would merge it away, but keeping
			// one slot preserves block identity.
			if succs[0] == next && b.NInsts > 1 {
				arrange = ArrElide
			}
		case isa.BranchCond:
			switch {
			case succs[0] == next:
				side = 1
			case succs[1] == next:
				side = 0
			default:
				arrange = ArrAppendJump
				side = 1 // encoded branch aims at Succs[1], the appended jump at Succs[0]
			}
		case isa.BranchCall, isa.BranchIndirectCall:
			if p.Cont(id) != next {
				panic(fmt.Sprintf("layout %s: call block %d continuation %d not adjacent (next %d)",
					name, id, p.Cont(id), next))
			}
		}
		l.shape[id] = uint8(arrange) | side<<condSideShift
		l.start[id] = uint32(l.totalSlots)
		n := slotCount(b.NInsts, arrange)
		l.totalSlots += n
		l.maxBlockSlots = max(l.maxBlockSlots, n)
	}
	if l.totalSlots >= maxSlots {
		panic(fmt.Sprintf("layout %s: %d code slots do not fit a decode word (at most %d)",
			name, l.totalSlots, maxSlots-1))
	}
	l.buildImage(order)
	return l
}

// Baseline lays blocks out in program (creation) order, which keeps every
// call continuation, the next block, adjacent to its call site.
func Baseline(p *cfg.Program) *Layout {
	order := make([]cfg.BlockID, len(p.Blocks))
	for i := range order {
		order[i] = cfg.BlockID(i)
	}
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
	for i := range p.Blocks {
		id := cfg.BlockID(i)
		if cont := p.Cont(id); cont != cfg.NoBlock && !merge(id, cont) {
			panic(fmt.Sprintf("layout: cannot keep continuation %d after call %d", cont, id))
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

// Start returns the first instruction address of block id.
func (l *Layout) Start(id cfg.BlockID) isa.Addr { return CodeBase.Plus(int(l.start[id])) }

// Slots returns the encoded instruction count of block id under this layout
// (NInsts, plus an appended jump or minus an elided jump).
func (l *Layout) Slots(id cfg.BlockID) int {
	return slotCount(l.Prog.Blocks[id].NInsts, l.Arrange(id))
}

// End returns the address one past the last slot of block id.
func (l *Layout) End(id cfg.BlockID) isa.Addr { return l.Start(id).Plus(l.Slots(id)) }

// Arrange returns the arrangement of block id.
func (l *Layout) Arrange(id cfg.BlockID) Arrangement { return Arrangement(l.shape[id] & arrMask) }

// CondTargetSide returns which successor index (0/1) the encoded conditional
// branch of block id jumps to when taken.
func (l *Layout) CondTargetSide(id cfg.BlockID) int { return int(l.shape[id] >> condSideShift) }

// MaxBlockSlots returns the largest per-block slot count in the image: an
// upper bound on the dynamic instructions one execution of any block can
// emit, used to pre-size expansion buffers.
func (l *Layout) MaxBlockSlots() int { return l.maxBlockSlots }

// CodeSize returns the total code size in bytes under this layout.
func (l *Layout) CodeSize() int { return l.totalSlots * isa.InstBytes }

// TotalSlots returns the total encoded instruction count.
func (l *Layout) TotalSlots() int { return l.totalSlots }

// addressOrder returns the blocks in address order, sorted by start slot.
func (l *Layout) addressOrder() []cfg.BlockID {
	order := make([]cfg.BlockID, len(l.start))
	for i := range order {
		order[i] = cfg.BlockID(i)
	}
	slices.SortFunc(order, func(a, b cfg.BlockID) int { return cmp.Compare(l.start[a], l.start[b]) })
	return order
}

// Validate checks internal invariants: the blocks tile the code segment
// from CodeBase without gap or overlap, and every call continuation
// starts where its call ends.
func (l *Layout) Validate() error {
	addr := CodeBase
	for _, id := range l.addressOrder() {
		if l.Start(id) != addr {
			return fmt.Errorf("layout %s: block %d starts at %v, want %v",
				l.Name, id, l.Start(id), addr)
		}
		addr = addr.Plus(l.Slots(id))
	}
	if addr != l.CodeLimit() {
		return fmt.Errorf("layout %s: blocks end at %v, code limit %v", l.Name, addr, l.CodeLimit())
	}
	for i := range l.Prog.Blocks {
		id := cfg.BlockID(i)
		cont := l.Prog.Cont(id)
		if cont != cfg.NoBlock && (int(cont) == len(l.start) || l.Start(cont) != l.End(id)) {
			return fmt.Errorf("layout %s: call block %d not followed by continuation %d",
				l.Name, id, cont)
		}
	}
	return nil
}
