// Dynamic expansion: turning the layout-independent block trace into the
// concrete dynamic instruction stream under a layout (addresses, effective
// branch types, taken/not-taken outcomes and targets).
package layout

import (
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
func (l *Layout) AppendDyn(buf []DynInst, id, next cfg.BlockID) []DynInst {
	b := &l.Prog.Blocks[id]
	start := l.start[id]
	n := int(l.slots[id])
	arr := l.arr[id]

	// Degenerate single-slot elided block behaves like AsIs.
	if arr == ArrElide && b.NInsts == 1 {
		arr = ArrAsIs
	}

	nextStart := isa.Addr(0)
	if next != cfg.NoBlock {
		nextStart = l.start[next]
	}

	// Body slots: everything before the block's own branch slot (if any).
	bodyEnd := n
	hasBranch := b.Branch != isa.BranchNone
	switch arr {
	case ArrElide:
		hasBranch = false
		bodyEnd = n
	case ArrAppendJump:
		if b.Branch == isa.BranchNone {
			hasBranch = false
			bodyEnd = n - 1
		} else {
			bodyEnd = n - 2 // CFG branch at n-2, materialized jump at n-1
		}
	default:
		if hasBranch {
			bodyEnd = n - 1
		}
	}

	a := start
	classes := l.Prog.Classes(id)
	for s := 0; s < bodyEnd; s++ {
		buf = append(buf, DynInst{
			Addr:     a,
			NextAddr: a.Next(),
			Class:    classes[s],
		})
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
		if b.Branch == isa.BranchNone {
			// Body then jump to the sole successor.
			buf = append(buf, DynInst{
				Addr:     a,
				NextAddr: nextStart,
				Class:    isa.ClassBranch,
				Branch:   isa.BranchUncond,
				Taken:    true,
			})
			return buf
		}
		// Conditional with both successors remote: the encoded branch
		// aims at Succs[1]; the jump at Succs[0].
		takenSide := next == l.Prog.Succs(id)[1]
		if takenSide {
			buf = append(buf, DynInst{
				Addr:     a,
				NextAddr: nextStart,
				Class:    isa.ClassBranch,
				Branch:   isa.BranchCond,
				Taken:    true,
			})
			return buf
		}
		// Not taken: fall into the materialized jump, then jump.
		buf = append(buf, DynInst{
			Addr:     a,
			NextAddr: a.Next(),
			Class:    isa.ClassBranch,
			Branch:   isa.BranchCond,
			Taken:    false,
		})
		a = a.Next()
		buf = append(buf, DynInst{
			Addr:     a,
			NextAddr: nextStart,
			Class:    isa.ClassBranch,
			Branch:   isa.BranchUncond,
			Taken:    true,
		})
		return buf

	default: // ArrAsIs
		if !hasBranch {
			if len(buf) > 0 && next != cfg.NoBlock {
				buf[len(buf)-1].NextAddr = nextStart
			}
			return buf
		}
		d := DynInst{
			Addr:     a,
			NextAddr: nextStart,
			Class:    isa.ClassBranch,
			Branch:   b.Branch,
		}
		switch b.Branch {
		case isa.BranchCond:
			// Taken iff control went to the encoded target side.
			d.Taken = next == l.Prog.Succs(id)[l.condTarget[id]]
			if !d.Taken {
				d.NextAddr = a.Next()
			}
		default:
			// Unconditional transfers are always taken.
			d.Taken = true
		}
		if next == cfg.NoBlock {
			d.NextAddr = 0
			d.Taken = b.Branch != isa.BranchCond
		}
		buf = append(buf, d)
		return buf
	}
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

// DynLen returns the number of dynamic instructions one execution of block
// id contributes when followed by next.
func (l *Layout) DynLen(id, next cfg.BlockID) int {
	n := int(l.slots[id])
	if l.arr[id] == ArrAppendJump && l.Prog.Blocks[id].Branch == isa.BranchCond && next == l.Prog.Succs(id)[1] {
		return n - 1 // taken side skips the materialized jump
	}
	return n
}
