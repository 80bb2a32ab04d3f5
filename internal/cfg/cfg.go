// Package cfg models whole-program control flow graphs: basic blocks,
// profile-weighted edges, and procedures. The CFG is the layout-independent
// description of a program; package layout assigns addresses, and package
// trace executes the CFG to produce dynamic instruction streams.
//
// Block successor semantics depend on the terminating branch type:
//
//	BranchNone         one successor, pure fall-through
//	BranchCond         Succs[0] = fall-through side, Succs[1] = branch side
//	BranchUncond       one successor
//	BranchCall         Succs[0] = callee entry; Cont = continuation block
//	BranchIndirectCall Succs[*] = possible callee entries; Cont = continuation
//	BranchReturn       no successors (target is dynamic, from the call stack)
//	BranchIndirect     Succs[*] = possible targets, with probabilities
package cfg

import (
	"fmt"

	"streamfetch/internal/isa"
)

// BlockID identifies a basic block within a Program.
type BlockID int32

// NoBlock is the null block ID.
const NoBlock BlockID = -1

// CondKind selects the behavioural model of a conditional branch.
type CondKind uint8

const (
	// CondBias chooses the branch side with fixed probability P.
	CondBias CondKind = iota
	// CondLoop models a loop back edge: the branch side (Succs[1]) is
	// chosen Trip-1 consecutive times, then the fall-through side once.
	CondLoop
	// CondPattern repeats a fixed boolean pattern (true = branch side);
	// such branches are perfectly predictable with enough history.
	CondPattern
)

// CondModel describes the dynamic behaviour of a conditional branch.
type CondModel struct {
	Kind CondKind
	// Trip is the mean loop trip count (CondLoop only). The actual trip
	// count of each loop entry is drawn near Trip.
	Trip int32
	// TripJitter is the +/- range around Trip for per-entry trip counts.
	TripJitter int32
	// P is the probability of choosing Succs[1] (CondBias only).
	P float64
	// Pattern is the repeating choice sequence (CondPattern only).
	Pattern []bool
}

// Edge is a profile-weighted CFG edge.
type Edge struct {
	To BlockID
	// Prob is the static probability of following this edge, used by the
	// trace generator for indirect branches and by workload synthesis.
	Prob float64
}

// Block is one basic block. NInsts counts all instructions including the
// terminating branch (if any). Classes lists the functional class of each
// instruction; when Branch != BranchNone the final class is ClassBranch.
//
// The fields are narrowed and ordered to leave no padding: a Block is 128
// bytes, and a large program holds tens of thousands.
type Block struct {
	ID     BlockID
	Proc   int32
	NInsts int32
	Branch isa.BranchType
	// Classes has length NInsts; materialized once at synthesis time.
	Classes []isa.Class
	Succs   []Edge
	// Cont is the block where execution continues after a call returns.
	Cont BlockID
	// Cond is the behaviour model for conditional branches.
	Cond CondModel
	// IndMarkov is, for indirect branches, the probability that the next
	// target follows a deterministic first-order cycle over the arms
	// (interpreter-style correlated dispatch); the rest of the instances
	// pick an arm by edge probability.
	IndMarkov float64
}

// Proc is a procedure: a named entry block plus the set of blocks that
// belong to it (used by the layout optimizer to keep procedures contiguous
// in the baseline layout).
type Proc struct {
	Name   string
	Entry  BlockID
	Blocks []BlockID
}

// Program is a whole-program CFG.
type Program struct {
	Name   string
	Blocks []*Block
	Procs  []Proc
	Entry  BlockID
}

// Block returns the block with the given ID.
func (p *Program) Block(id BlockID) *Block {
	return p.Blocks[id]
}

// NumBlocks returns the number of basic blocks in the program.
func (p *Program) NumBlocks() int { return len(p.Blocks) }

// StaticInsts returns the total static instruction count (layout extras such
// as materialized jumps not included).
func (p *Program) StaticInsts() int {
	n := 0
	for _, b := range p.Blocks {
		n += int(b.NInsts)
	}
	return n
}

// Validate checks structural invariants of the program and returns the first
// violation found, if any.
func (p *Program) Validate() error {
	if p.Entry < 0 || int(p.Entry) >= len(p.Blocks) {
		return fmt.Errorf("cfg: entry block %d out of range", p.Entry)
	}
	for i, b := range p.Blocks {
		if b == nil {
			return fmt.Errorf("cfg: nil block %d", i)
		}
		if b.ID != BlockID(i) {
			return fmt.Errorf("cfg: block %d has ID %d", i, b.ID)
		}
		if b.NInsts <= 0 {
			return fmt.Errorf("cfg: block %d has %d instructions", i, b.NInsts)
		}
		if len(b.Classes) != int(b.NInsts) {
			return fmt.Errorf("cfg: block %d has %d classes for %d instructions",
				i, len(b.Classes), b.NInsts)
		}
		if b.Branch != isa.BranchNone && b.Classes[b.NInsts-1] != isa.ClassBranch {
			return fmt.Errorf("cfg: block %d final class %v, want branch",
				i, b.Classes[b.NInsts-1])
		}
		for _, e := range b.Succs {
			if e.To < 0 || int(e.To) >= len(p.Blocks) {
				return fmt.Errorf("cfg: block %d successor %d out of range", i, e.To)
			}
		}
		switch b.Branch {
		case isa.BranchNone, isa.BranchUncond:
			if len(b.Succs) != 1 {
				return fmt.Errorf("cfg: block %d (%v) has %d successors, want 1",
					i, b.Branch, len(b.Succs))
			}
		case isa.BranchCond:
			if len(b.Succs) != 2 {
				return fmt.Errorf("cfg: block %d (cond) has %d successors, want 2",
					i, len(b.Succs))
			}
		case isa.BranchCall, isa.BranchIndirectCall:
			if len(b.Succs) == 0 {
				return fmt.Errorf("cfg: block %d (call) has no callees", i)
			}
			if b.Cont == NoBlock {
				return fmt.Errorf("cfg: block %d (call) has no continuation", i)
			}
			if b.Cont < 0 || int(b.Cont) >= len(p.Blocks) {
				return fmt.Errorf("cfg: block %d continuation %d out of range", i, b.Cont)
			}
		case isa.BranchReturn:
			if len(b.Succs) != 0 {
				return fmt.Errorf("cfg: block %d (return) has %d successors, want 0",
					i, len(b.Succs))
			}
		case isa.BranchIndirect:
			if len(b.Succs) == 0 {
				return fmt.Errorf("cfg: block %d (indirect) has no targets", i)
			}
		default:
			return fmt.Errorf("cfg: block %d has unknown branch type %v", i, b.Branch)
		}
	}
	for pi, proc := range p.Procs {
		if proc.Entry < 0 || int(proc.Entry) >= len(p.Blocks) {
			return fmt.Errorf("cfg: proc %d entry %d out of range", pi, proc.Entry)
		}
		for _, id := range proc.Blocks {
			if id < 0 || int(id) >= len(p.Blocks) {
				return fmt.Errorf("cfg: proc %d lists block %d out of range", pi, id)
			}
			if int(p.Blocks[id].Proc) != pi {
				return fmt.Errorf("cfg: block %d in proc %d list but tagged proc %d",
					id, pi, p.Blocks[id].Proc)
			}
		}
	}
	return nil
}

// EdgeKey identifies a dynamic control-flow edge for profiling.
type EdgeKey struct {
	From, To BlockID
}

// Profile holds execution counts collected from a training run. The layout
// optimizer consumes it to chain hot successors.
type Profile struct {
	// BlockCount[b] is the number of times block b executed.
	BlockCount []uint64
	// EdgeCount[e] is the number of times control flowed from e.From
	// straight to e.To.
	EdgeCount map[EdgeKey]uint64
}

// NewProfile returns an empty profile sized for program p.
func NewProfile(p *Program) *Profile {
	return &Profile{
		BlockCount: make([]uint64, len(p.Blocks)),
		EdgeCount:  make(map[EdgeKey]uint64),
	}
}

// AddEdge records one traversal of the edge from→to.
func (pr *Profile) AddEdge(from, to BlockID) {
	pr.EdgeCount[EdgeKey{from, to}]++
}

// AddBlock records one execution of block b.
func (pr *Profile) AddBlock(b BlockID) {
	pr.BlockCount[b]++
}

// Merge accumulates other into pr.
func (pr *Profile) Merge(other *Profile) {
	for i, c := range other.BlockCount {
		pr.BlockCount[i] += c
	}
	for k, c := range other.EdgeCount {
		pr.EdgeCount[k] += c
	}
}
