// Static program image: address → instruction lookup. This is the "static
// basic block dictionary" of the paper's simulator (§4.1), which lets the
// front-end fetch down wrong paths through real code.
//
// The image is one packed uint32 decode word per code slot, indexed by
// (addr-CodeBase)/isa.InstBytes and built once in build():
//
//	bits  0-23  static taken-path target as slot+1 (0 = no encoded target)
//	bits 24-27  isa.Class
//	bits 28-31  isa.BranchType
//
// The slot's own address is its index, so it is not stored. FetchAt,
// InstAt and StaticTarget run once per fetched instruction (correct- and
// wrong-path) and are single loads plus shifts. No slot is mapped back to
// the block owning it: nothing on the fetch path asks.
package layout

import (
	"fmt"

	"streamfetch/internal/cfg"
	"streamfetch/internal/isa"
)

// Decode word fields.
const (
	targetBits  = 24
	targetMask  = 1<<targetBits - 1
	classShift  = 24
	branchShift = 28
	fieldMask   = 0xF // class and branch fields are 4 bits each

	// maxSlots bounds the code segment: every slot+1 must fit the target
	// field.
	maxSlots = targetMask
)

// packWord encodes one slot's decode word; target is the slot index of
// the static taken-path target, or -1 for none.
func packWord(inst isa.Inst, target int) uint32 {
	if inst.Class > fieldMask || inst.Branch > fieldMask {
		panic(fmt.Sprintf("layout: class %d / branch %d at %v do not fit a decode word",
			inst.Class, inst.Branch, inst.Addr))
	}
	return uint32(target+1) | uint32(inst.Class)<<classShift | uint32(inst.Branch)<<branchShift
}

// buildDecode fills the decode words from the per-block source of truth
// (instAtSlot, staticTargetAt), walking the blocks in address order.
func (l *Layout) buildDecode(order []cfg.BlockID) {
	l.decode = make([]uint32, l.totalSlots)
	s := 0
	for _, id := range order {
		for off := range l.Slots(id) {
			target := -1
			if t, ok := l.staticTargetAt(id, off); ok {
				target = int(t-CodeBase) / isa.InstBytes
			}
			l.decode[s] = packWord(l.instAtSlot(id, off, CodeBase.Plus(s)), target)
			s++
		}
	}
}

// slotOf maps an address to its decode slot; ok is false outside the code
// segment.
func (l *Layout) slotOf(a isa.Addr) (int, bool) {
	if a < CodeBase {
		return 0, false
	}
	// Unsigned, so that an address far above the segment (a wild
	// wrong-path target) cannot wrap to a negative slot.
	s := uint64(a-CodeBase) / isa.InstBytes
	if s >= uint64(l.totalSlots) {
		return 0, false
	}
	return int(s), true
}

// instOf unpacks the instruction at address a from its decode word.
func instOf(a isa.Addr, w uint32) isa.Inst {
	return isa.Inst{
		Addr:   a,
		Class:  isa.Class(w >> classShift & fieldMask),
		Branch: isa.BranchType(w >> branchShift),
	}
}

// InstAt returns the static instruction at address a. The front-end uses
// this to fetch down any (possibly wrong) path.
func (l *Layout) InstAt(a isa.Addr) (isa.Inst, bool) {
	s, ok := l.slotOf(a)
	if !ok {
		return isa.Inst{}, false
	}
	return instOf(a, l.decode[s]), true
}

// FetchAt is the total variant of InstAt used by fetch engines: addresses
// outside the code segment return a synthetic non-branch instruction, the
// way real hardware happily fetches whatever bytes sit at a wrong-path
// address. The misprediction that led there resolves normally and recovery
// redirects fetch back into code.
func (l *Layout) FetchAt(a isa.Addr) isa.Inst {
	if s, ok := l.slotOf(a); ok {
		return instOf(a, l.decode[s])
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
	t := l.decode[s] & targetMask
	if t == 0 {
		return 0, false
	}
	return CodeBase.Plus(int(t - 1)), true
}

// CodeLimit returns the first address past the code segment.
func (l *Layout) CodeLimit() isa.Addr {
	return CodeBase.Plus(l.totalSlots)
}

// instAtSlot materializes the instruction at a given slot of a block; it is
// the source of truth the decode words are built from.
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
// instruction at a given slot of a block (the decode-word source of truth).
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
