// Static program image: address → instruction lookup. This is the "static
// basic block dictionary" of the paper's simulator (§4.1), which lets the
// front-end fetch down wrong paths through real code.
//
// The image is indexed by slot, (addr-CodeBase)/isa.InstBytes, and built
// once in build(). A slot's decode word is its kind byte and, for a direct
// branch, its entry in the target index:
//
//	kind[s]     bits 0-3 isa.Class, bits 4-7 isa.BranchType
//	direct      one bit per slot, set where the slot is a direct branch
//	            (conditional, unconditional, call, or an appended jump):
//	            exactly the slots with a static taken-path target
//	rank[w]     the set bits of direct before its 64-slot word w
//	targets[i]  the target slot of the i-th direct branch, in slot order
//
// That is 1 + 1/8 + 4/64 bytes per slot plus 4 per direct branch, about
// one slot in nine. The slot's own address is its index, so it is not
// stored. FetchAt and InstAt run once per fetched instruction (correct-
// and wrong-path) and are a single byte load; StaticTarget, asked only at
// decode of a taken or jump-following transition, is a bit test, a
// popcount and two loads. No slot is mapped back to the block owning it:
// nothing on the fetch path asks.
package layout

import (
	"fmt"
	"math/bits"
	"slices"

	"streamfetch/internal/cfg"
	"streamfetch/internal/isa"
)

// Decode word fields.
const (
	branchShift = 4
	fieldMask   = 0xF // class and branch fields are 4 bits each

	// maxSlots bounds the code segment below 2^24-1 slots (64 MiB of
	// code, over fifty times the suite's largest layout), so a slot
	// index, a target or a rank always fits 24 bits.
	maxSlots = 1<<24 - 1
)

// packKind encodes one slot's kind byte.
func packKind(inst isa.Inst) uint8 {
	if inst.Class > fieldMask || inst.Branch > fieldMask {
		panic(fmt.Sprintf("layout: class %d / branch %d at %v do not fit a decode word",
			inst.Class, inst.Branch, inst.Addr))
	}
	return uint8(inst.Class) | uint8(inst.Branch)<<branchShift
}

// buildImage fills the kind bytes and the target index from the per-block
// source of truth (instAtSlot, staticTargetAt), walking the blocks in
// address order.
func (l *Layout) buildImage(order []cfg.BlockID) {
	words := (l.totalSlots + 63) / 64
	l.kind = make([]uint8, l.totalSlots)
	l.direct = make([]uint64, words)
	l.rank = make([]uint32, words)
	var targets []uint32
	s := 0
	for _, id := range order {
		for off := range l.Slots(id) {
			l.kind[s] = packKind(l.instAtSlot(id, off, CodeBase.Plus(s)))
			if t, ok := l.staticTargetAt(id, off); ok {
				l.direct[s/64] |= 1 << (s % 64)
				targets = append(targets, uint32(t-CodeBase)/isa.InstBytes)
			}
			s++
		}
	}
	// A copy, so that the image holds no spare capacity.
	l.targets = slices.Clone(targets)
	n := 0
	for w, set := range l.direct {
		l.rank[w] = uint32(n)
		n += bits.OnesCount64(set)
	}
}

// slotOf maps an address to its slot; ok is false outside the code
// segment.
func (l *Layout) slotOf(a isa.Addr) (int, bool) {
	// Unsigned: an address below CodeBase wraps far above the segment,
	// and one far above it (a wild wrong-path target) cannot wrap to a
	// negative slot.
	s := uint64(a-CodeBase) / isa.InstBytes
	if s >= uint64(l.totalSlots) {
		return 0, false
	}
	return int(s), true
}

// instOf unpacks the instruction at address a from its kind byte.
func instOf(a isa.Addr, k uint8) isa.Inst {
	return isa.Inst{
		Addr:   a,
		Class:  isa.Class(k & fieldMask),
		Branch: isa.BranchType(k >> branchShift),
	}
}

// InstAt returns the static instruction at address a. The front-end uses
// this to fetch down any (possibly wrong) path.
func (l *Layout) InstAt(a isa.Addr) (isa.Inst, bool) {
	s, ok := l.slotOf(a)
	if !ok {
		return isa.Inst{}, false
	}
	return instOf(a, l.kind[s]), true
}

// FetchAt is the total variant of InstAt used by fetch engines: addresses
// outside the code segment return a synthetic non-branch instruction, the
// way real hardware happily fetches whatever bytes sit at a wrong-path
// address. The misprediction that led there resolves normally and recovery
// redirects fetch back into code.
func (l *Layout) FetchAt(a isa.Addr) isa.Inst {
	if s, ok := l.slotOf(a); ok {
		return instOf(a, l.kind[s])
	}
	return isa.Inst{Addr: a, Class: isa.ClassALU}
}

// StaticTarget returns the taken-path target of the direct branch at address
// a, as a decoder would compute from the instruction encoding. ok is false
// for non-branches and for dynamic-target branches (indirect, return).
func (l *Layout) StaticTarget(a isa.Addr) (isa.Addr, bool) {
	s, ok := l.slotOf(a)
	if !ok {
		return 0, false
	}
	w, bit := s/64, uint64(1)<<(s%64)
	set := l.direct[w]
	if set&bit == 0 {
		return 0, false
	}
	i := int(l.rank[w]) + bits.OnesCount64(set&(bit-1))
	return CodeBase.Plus(int(l.targets[i])), true
}

// CodeLimit returns the first address past the code segment.
func (l *Layout) CodeLimit() isa.Addr {
	return CodeBase.Plus(l.totalSlots)
}

// instAtSlot materializes the instruction at a given slot of a block; it is
// the source of truth the kind bytes are built from.
func (l *Layout) instAtSlot(id cfg.BlockID, slot int, a isa.Addr) isa.Inst {
	b := &l.Prog.Blocks[id]
	if l.Arrange(id) == ArrAppendJump && slot == int(b.NInsts) {
		return isa.Inst{Addr: a, Class: isa.ClassBranch, Branch: isa.BranchUncond}
	}
	// An elided jump's slot is gone, so every slot left is a body or
	// branch slot of the block itself.
	return isa.Inst{Addr: a, Class: l.Prog.Classes(id)[slot], Branch: branchAtCFG(b, slot)}
}

// staticTargetAt computes the statically-encoded taken-path target of the
// instruction at a given slot of a block (the target index's source of
// truth).
func (l *Layout) staticTargetAt(id cfg.BlockID, slot int) (isa.Addr, bool) {
	b := &l.Prog.Blocks[id]
	succs := l.Prog.Succs(id)
	if l.Arrange(id) == ArrAppendJump && slot == int(b.NInsts) {
		// The materialized jump always goes to Succs[0] (the side the
		// encoded conditional does not take), or the sole successor of
		// a fall-through block.
		return l.Start(succs[0]), true
	}
	if branchAtCFG(b, slot) == isa.BranchNone {
		return 0, false
	}
	switch b.Branch {
	case isa.BranchCond:
		return l.Start(succs[l.CondTargetSide(id)]), true
	case isa.BranchUncond, isa.BranchCall:
		return l.Start(succs[0]), true
	default:
		return 0, false // indirect/return: target not in the encoding
	}
}

// branchAtCFG returns the branch type if slot is the block's terminating
// branch slot.
func branchAtCFG(b *cfg.Block, slot int) isa.BranchType {
	if b.Branch != isa.BranchNone && slot == int(b.NInsts)-1 {
		return b.Branch
	}
	return isa.BranchNone
}
