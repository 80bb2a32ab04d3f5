// Dynamic expansion: turning the layout-independent block trace into the
// concrete dynamic instruction stream under a layout (addresses, effective
// branch types, taken/not-taken outcomes and targets).
package layout

import (
	"slices"

	"streamfetch/internal/cfg"
	"streamfetch/internal/isa"
)

// DynInst is one dynamic (correct-path) instruction.
type DynInst struct {
	// Addr is the instruction address.
	Addr isa.Addr
	// NextAddr is the address of the next dynamic instruction (the
	// architecturally correct successor).
	NextAddr isa.Addr
	// Class is the functional class.
	Class isa.Class
	// Branch is the effective branch type under this layout (an elided
	// jump becomes BranchNone; a materialized jump is BranchUncond).
	Branch isa.BranchType
	// Taken reports whether a branch instruction transferred control
	// away from the fall-through path.
	Taken bool
}

// IsBranch reports whether the dynamic instruction is a control transfer.
func (d DynInst) IsBranch() bool { return d.Branch != isa.BranchNone }

// AppendDyn appends the dynamic instructions of one execution of block id,
// given the dynamically following block next (NoBlock at the end of the
// trace), and returns the extended slice. The expansion accounts for the
// block's arrangement: an appended jump executes only on the fall-through
// side of a conditional, and an elided jump disappears entirely.
//
// buf grows at most once per block, for the block's longest expansion, and
// every instruction is written field by field into its slot: building each
// record and appending it would copy it through a temporary.
func (l *Layout) AppendDyn(buf []DynInst, id, next cfg.BlockID) []DynInst {
	b := &l.Prog.Blocks[id]
	shape := l.shape[id]

	nextStart := isa.Addr(0)
	if next != cfg.NoBlock {
		nextStart = l.Start(next)
	}

	// Body slots: every CFG instruction before the block's own branch, in
	// every arrangement; an elided jump or an appended one only changes
	// what follows them.
	classes := l.Prog.Classes(id)
	hasBranch := b.Branch != isa.BranchNone
	if hasBranch {
		classes = classes[:len(classes)-1]
	}

	// Reserve the block's slot count, its longest expansion, so a buffer
	// with room for MaxBlockSlots per block never grows.
	arr := Arrangement(shape & arrMask)
	n := len(buf)
	buf = slices.Grow(buf, slotCount(b.NInsts, arr))[:n+len(classes)]
	body := buf[n:]
	a := l.Start(id)
	for s, c := range classes {
		d := &body[s]
		d.Addr, d.NextAddr, d.Class, d.Branch, d.Taken = a, a.Next(), c, isa.BranchNone, false
		a = a.Next()
	}

	switch arr {
	case ArrElide:
		// Fall off the end; fix up the architectural successor of the
		// final body instruction.
		if len(buf) > 0 && next != cfg.NoBlock {
			buf[len(buf)-1].NextAddr = nextStart
		}
		return buf

	case ArrAppendJump:
		if !hasBranch {
			// Body then jump to the sole successor.
			return put(buf, a, nextStart, isa.BranchUncond, true)
		}
		// Conditional with both successors remote: the encoded branch
		// aims at Succs[1]; the jump at Succs[0].
		if next == l.Prog.Succs(id)[1] {
			return put(buf, a, nextStart, isa.BranchCond, true)
		}
		// Not taken: fall into the materialized jump, then jump.
		buf = put(buf, a, a.Next(), isa.BranchCond, false)
		return put(buf, a.Next(), nextStart, isa.BranchUncond, true)

	default: // ArrAsIs
		if !hasBranch {
			if len(buf) > 0 && next != cfg.NoBlock {
				buf[len(buf)-1].NextAddr = nextStart
			}
			return buf
		}
		if b.Branch != isa.BranchCond {
			// Unconditional transfers are always taken.
			return put(buf, a, nextStart, b.Branch, true)
		}
		if next == cfg.NoBlock {
			// The trace ends here: neither side was reached.
			return put(buf, a, 0, isa.BranchCond, false)
		}
		// Taken iff control went to the encoded target side.
		if next == l.Prog.Succs(id)[shape>>condSideShift] {
			return put(buf, a, nextStart, isa.BranchCond, true)
		}
		return put(buf, a, a.Next(), isa.BranchCond, false)
	}
}

// put appends one branch instruction at a, of type br, transferring to
// next, into capacity AppendDyn has already reserved.
func put(buf []DynInst, a, next isa.Addr, br isa.BranchType, taken bool) []DynInst {
	buf = buf[:len(buf)+1]
	d := &buf[len(buf)-1]
	d.Addr, d.NextAddr, d.Class, d.Branch, d.Taken = a, next, isa.ClassBranch, br, taken
	return buf
}

// AppendDynRun appends the dynamic instructions of a run of consecutively
// executed blocks: ids[i] is expanded with ids[i+1] as its dynamic
// successor, and next is the block following the whole run (NoBlock at the
// end of the trace). It is the bulk form of AppendDyn — identical
// expansion, one call per batch of blocks — used by the simulator's
// batched supply.
func (l *Layout) AppendDynRun(buf []DynInst, ids []cfg.BlockID, next cfg.BlockID) []DynInst {
	if len(ids) == 0 {
		return buf
	}
	for i := 0; i+1 < len(ids); i++ {
		buf = l.AppendDyn(buf, ids[i], ids[i+1])
	}
	return l.AppendDyn(buf, ids[len(ids)-1], next)
}
