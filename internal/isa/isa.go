// Package isa defines the minimal instruction-set model shared by every
// component of the simulator: addresses, instruction classes, and branch
// types. The model is a fixed-width RISC (4-byte instructions), matching the
// Alpha ISA the paper evaluates on closely enough for front-end studies,
// where only instruction addresses and branch semantics matter.
package isa

import "fmt"

// InstBytes is the size of one instruction in bytes (fixed-width ISA).
const InstBytes = 4

// Addr is a virtual instruction address. Addresses are always multiples of
// InstBytes.
type Addr uint64

// Next returns the address of the sequential successor instruction.
func (a Addr) Next() Addr { return a + InstBytes }

// AddrBits is the width of the virtual address space.
const AddrBits = 48

// Valid reports whether a can be an instruction address: a multiple of
// InstBytes inside the AddrBits-bit address space. Restored predictor
// state is checked with it, since a fetch engine sent between
// instructions, or to where line arithmetic wraps, would stall for good.
func (a Addr) Valid() bool { return a%InstBytes == 0 && a < 1<<AddrBits }

// Plus returns the address n instructions after a.
func (a Addr) Plus(n int) Addr { return a + Addr(n*InstBytes) }

// String formats the address as hex, the conventional notation in
// architecture papers.
func (a Addr) String() string { return fmt.Sprintf("0x%x", uint64(a)) }

// Class is the coarse functional class of an instruction. The back-end model
// only needs to distinguish memory operations and branches from plain ALU
// work.
type Class uint8

const (
	// ClassALU is any integer/logic operation with single-cycle latency.
	ClassALU Class = iota
	// ClassLoad reads memory through the data cache.
	ClassLoad
	// ClassStore writes memory through the data cache.
	ClassStore
	// ClassMul is a long-latency integer operation.
	ClassMul
	// ClassBranch is any control-transfer instruction; its BranchType
	// refines the kind.
	ClassBranch
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassALU:
		return "alu"
	case ClassLoad:
		return "load"
	case ClassStore:
		return "store"
	case ClassMul:
		return "mul"
	case ClassBranch:
		return "branch"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// BranchType is the kind of a control-transfer instruction. The next stream
// predictor stores it per stream so it can drive return-address-stack
// management (§3.2 of the paper).
type BranchType uint8

const (
	// BranchNone marks a non-branch instruction.
	BranchNone BranchType = iota
	// BranchCond is a conditional direct branch.
	BranchCond
	// BranchUncond is an unconditional direct jump.
	BranchUncond
	// BranchCall is a direct procedure call (pushes a return address).
	BranchCall
	// BranchReturn is a procedure return (pops the return address stack).
	BranchReturn
	// BranchIndirect is an indirect jump through a register (e.g. a
	// switch table); its target varies dynamically.
	BranchIndirect
	// BranchIndirectCall is an indirect call (pushes a return address and
	// has a dynamic target).
	BranchIndirectCall
)

// String implements fmt.Stringer.
func (b BranchType) String() string {
	switch b {
	case BranchNone:
		return "none"
	case BranchCond:
		return "cond"
	case BranchUncond:
		return "uncond"
	case BranchCall:
		return "call"
	case BranchReturn:
		return "return"
	case BranchIndirect:
		return "indirect"
	case BranchIndirectCall:
		return "indcall"
	default:
		return fmt.Sprintf("branch(%d)", uint8(b))
	}
}

// IsBranch reports whether the type denotes an actual control transfer.
func (b BranchType) IsBranch() bool { return b != BranchNone }

// IsConditional reports whether the branch may fall through.
func (b BranchType) IsConditional() bool { return b == BranchCond }

// IsCall reports whether the branch pushes a return address.
func (b BranchType) IsCall() bool {
	return b == BranchCall || b == BranchIndirectCall
}

// IsReturn reports whether the branch pops a return address.
func (b BranchType) IsReturn() bool { return b == BranchReturn }

// IsIndirect reports whether the target is computed dynamically.
func (b BranchType) IsIndirect() bool {
	return b == BranchIndirect || b == BranchIndirectCall
}

// Inst is one static instruction. Instructions are materialized lazily from
// basic blocks; the simulator mostly moves (Addr, count) pairs around, and
// only branches carry interesting metadata.
type Inst struct {
	// Addr is the instruction's virtual address under the active layout.
	Addr Addr
	// Class is the functional class.
	Class Class
	// Branch is the branch type (BranchNone unless Class==ClassBranch).
	Branch BranchType
}

// IsBranch reports whether the instruction is a control transfer.
func (i Inst) IsBranch() bool { return i.Class == ClassBranch }
