// Package cfg models whole-program control flow graphs: basic blocks,
// their successors and branch models, and procedures. The CFG is the
// layout-independent description of a program; package layout assigns
// addresses, and package trace executes the CFG to produce dynamic
// instruction streams.
//
// A Program is a pointer-free image that stores only what a simulation
// reads. Its blocks are fixed-size records in one slice, indexed by
// BlockID; their variable-length parts live in per-program arrays the
// records address by offset: the instruction classes (Program.Classes),
// the successor IDs (Program.Succs, 4 bytes each), the models of the
// conditional branches (Program.Cond, one entry per cond block only), and
// for each indirect branch or indirect call a run of float64s holding its
// Markov probability and its arm probabilities (Program.IndMarkov,
// Program.ArmProbs). A daemon keeps one program per benchmark resident:
// the packing keeps each small, and leaves the garbage collector no
// pointers in it to scan.
//
// Block successor semantics depend on the terminating branch type:
//
//	BranchNone         one successor, pure fall-through
//	BranchCond         Succs[0] = fall-through side, Succs[1] = branch side
//	BranchUncond       one successor
//	BranchCall         Succs[0] = callee entry; Cont = continuation block
//	BranchIndirectCall Succs[*] = possible callee entries, with ArmProbs; Cont = continuation
//	BranchReturn       no successors (target is dynamic, from the call stack)
//	BranchIndirect     Succs[*] = possible targets, with ArmProbs
package cfg

import (
	"fmt"
	"math"
	"slices"

	"streamfetch/internal/isa"
)

// BlockID identifies a basic block within a Program: its index in
// Program.Blocks.
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

// MaxPeriod is the longest CondPattern period a CondModel holds.
const MaxPeriod = 8

// CondModel describes the dynamic behaviour of a conditional branch.
type CondModel struct {
	// P is the probability of choosing Succs[1] (CondBias only).
	P float64
	// Trip is the mean loop trip count (CondLoop only). The actual trip
	// count of each loop entry is drawn near Trip.
	Trip int32
	// TripJitter is the +/- range around Trip for per-entry trip counts.
	TripJitter int32
	Kind       CondKind
	// Period is the length of the repeating choice sequence, 1 to
	// MaxPeriod (CondPattern only).
	Period uint8
	// Pattern holds the choice sequence as bits: bit i is choice i, set
	// for the branch side (CondPattern only). Read it with PatternAt.
	Pattern uint8
}

// PatternAt returns choice i of a CondPattern's sequence, true for the
// branch side; i is below Period.
func (m CondModel) PatternAt(i int) bool { return m.Pattern>>uint(i)&1 != 0 }

// Block is one basic block. NInsts counts all instructions including the
// terminating branch (if any). Its class list (Program.Classes, NInsts
// entries; the final one is ClassBranch when Branch != BranchNone), its
// successors (Program.Succs) and its branch model (Program.Cond, or
// Program.IndMarkov and Program.ArmProbs) live in the program's shared
// arrays.
//
// A Block holds no pointers and no floats, and its fields are narrowed
// and ordered to leave little padding: it is 28 bytes, and a large
// program holds tens of thousands.
type Block struct {
	Proc   int32
	NInsts int32
	// Cont is the block where execution continues after a call returns.
	Cont BlockID
	// classOff and succOff index the block's first class and first
	// successor in the program's arrays; nSuccs counts its successors.
	classOff uint32
	succOff  uint32
	// model indexes the block's branch model: its entry in the program's
	// cond model array for a cond block, the start of its probability run
	// for an indirect branch or call; it is unused for other blocks.
	model  uint32
	nSuccs uint16
	Branch isa.BranchType
}

// Proc is a procedure: a named entry block plus the set of blocks that
// belong to it (used by the layout optimizer to keep procedures contiguous
// in the baseline layout).
type Proc struct {
	Name   string
	Entry  BlockID
	Blocks []BlockID
}

// Program is a whole-program CFG. Blocks[id] is block id. Build one with
// AddBlock and AddSuccs, which append to the program's arrays, set the
// branch models with SetCond, SetIndMarkov and ArmProbs, and call Compact
// once it is complete.
type Program struct {
	Name   string
	Blocks []Block
	Procs  []Proc
	Entry  BlockID

	classes []isa.Class
	succs   []BlockID
	conds   []CondModel
	// probs holds one run per indirect branch or call: its Markov
	// probability, then one probability per arm.
	probs []float64
}

// Classes returns the instruction classes of block id, NInsts of them. The
// slice aliases the program's class array: writes go to the program, and it
// is stale once AddBlock grows that array.
func (p *Program) Classes(id BlockID) []isa.Class {
	b := &p.Blocks[id]
	end := b.classOff + uint32(b.NInsts)
	return p.classes[b.classOff:end:end]
}

// Succs returns the successors of block id. The slice aliases the
// program's successor array: writes go to the program, and it is stale
// once AddSuccs grows that array.
func (p *Program) Succs(id BlockID) []BlockID {
	b := &p.Blocks[id]
	end := b.succOff + uint32(b.nSuccs)
	return p.succs[b.succOff:end:end]
}

// Cond returns the branch model of cond block id.
func (p *Program) Cond(id BlockID) CondModel { return p.conds[p.Blocks[id].model] }

// SetCond sets the branch model of cond block id.
func (p *Program) SetCond(id BlockID, m CondModel) { p.conds[p.Blocks[id].model] = m }

// IndMarkov returns, for indirect branch or call id, the probability that
// the next target follows a deterministic first-order cycle over the arms
// (interpreter-style correlated dispatch); the rest of the instances pick
// an arm by ArmProbs.
func (p *Program) IndMarkov(id BlockID) float64 { return p.probs[p.Blocks[id].model] }

// SetIndMarkov sets the Markov probability of indirect branch or call id.
func (p *Program) SetIndMarkov(id BlockID, x float64) { p.probs[p.Blocks[id].model] = x }

// ArmProbs returns the static probability of each successor of indirect
// branch or call id, in Succs order. The slice aliases the program's
// probability array: writes go to the program, and it is stale once
// AddSuccs grows that array.
func (p *Program) ArmProbs(id BlockID) []float64 {
	b := &p.Blocks[id]
	off := b.model + 1
	end := off + uint32(b.nSuccs)
	return p.probs[off:end:end]
}

// AddBlock appends b to the program and returns its ID. It reserves
// b.NInsts zero classes (ClassALU) for the block, to be filled through
// Classes, and for a cond block a zero model, to be set with SetCond; the
// block has no successors until AddSuccs gives it some.
func (p *Program) AddBlock(b Block) BlockID {
	if uint64(len(p.classes))+uint64(max(b.NInsts, 0)) > math.MaxUint32 {
		panic("cfg: program exceeds 2^32 instructions")
	}
	b.classOff = uint32(len(p.classes))
	b.succOff, b.nSuccs, b.model = 0, 0, 0
	n := int(max(b.NInsts, 0))
	p.classes = grow(p.classes, n)
	p.classes = p.classes[:len(p.classes)+n]
	if b.Branch == isa.BranchCond {
		b.model = uint32(len(p.conds))
		p.conds = append(grow(p.conds, 1), CondModel{})
	}
	p.Blocks = append(grow(p.Blocks, 1), b)
	return BlockID(len(p.Blocks) - 1)
}

// AddSuccs gives block id n new successors, all NoBlock, and returns them
// for the caller to fill. For an indirect branch or call it also reserves
// a zero Markov probability and n zero arm probabilities, to be set with
// SetIndMarkov and through ArmProbs. Successors and probabilities the
// block had before stay in their arrays unused, so a builder calls it once
// per block.
func (p *Program) AddSuccs(id BlockID, n int) []BlockID {
	if n < 0 || n > math.MaxUint16 || uint64(len(p.succs))+uint64(n) > math.MaxUint32 ||
		uint64(len(p.probs))+uint64(n)+1 > math.MaxUint32 {
		panic(fmt.Sprintf("cfg: block %d cannot hold %d successors", id, n))
	}
	b := &p.Blocks[id]
	b.succOff, b.nSuccs = uint32(len(p.succs)), uint16(n)
	p.succs = grow(p.succs, n)
	for range n {
		p.succs = append(p.succs, NoBlock)
	}
	if b.Branch == isa.BranchIndirect || b.Branch == isa.BranchIndirectCall {
		b.model = uint32(len(p.probs))
		p.probs = grow(p.probs, n+1)
		p.probs = p.probs[:len(p.probs)+n+1]
	}
	return p.Succs(id)
}

// Compact reallocates the program's arrays to their exact lengths,
// releasing the capacity that growing them by append left spare. Call it
// once a program is built; a resident program is then no larger than its
// contents.
func (p *Program) Compact() {
	p.Blocks = clip(p.Blocks)
	p.classes = clip(p.classes)
	p.succs = clip(p.succs)
	p.conds = clip(p.conds)
	p.probs = clip(p.probs)
}

// grow returns s with room for n more elements, at least doubling its
// capacity when it must reallocate: building a large program then
// allocates about twice its final size, where append's gentler growth of
// large slices allocates five times it.
func grow[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	return slices.Grow(s, max(n, len(s)))
}

// clip returns s in an allocation of exactly len(s) elements.
func clip[T any](s []T) []T {
	if cap(s) == len(s) {
		return s
	}
	return append(make([]T, 0, len(s)), s...)
}

// NumBlocks returns the number of basic blocks in the program.
func (p *Program) NumBlocks() int { return len(p.Blocks) }

// StaticInsts returns the total static instruction count (layout extras such
// as materialized jumps not included).
func (p *Program) StaticInsts() int {
	n := 0
	for i := range p.Blocks {
		n += int(p.Blocks[i].NInsts)
	}
	return n
}

// Validate checks structural invariants of the program and returns the first
// violation found, if any.
func (p *Program) Validate() error {
	if p.Entry < 0 || int(p.Entry) >= len(p.Blocks) {
		return fmt.Errorf("cfg: entry block %d out of range", p.Entry)
	}
	for i := range p.Blocks {
		b := &p.Blocks[i]
		id := BlockID(i)
		if b.NInsts <= 0 {
			return fmt.Errorf("cfg: block %d has %d instructions", i, b.NInsts)
		}
		if uint64(b.classOff)+uint64(b.NInsts) > uint64(len(p.classes)) {
			return fmt.Errorf("cfg: block %d classes [%d,+%d) outside the %d-entry class array",
				i, b.classOff, b.NInsts, len(p.classes))
		}
		if uint64(b.succOff)+uint64(b.nSuccs) > uint64(len(p.succs)) {
			return fmt.Errorf("cfg: block %d successors [%d,+%d) outside the %d-entry successor array",
				i, b.succOff, b.nSuccs, len(p.succs))
		}
		if cs := p.Classes(id); b.Branch != isa.BranchNone && cs[b.NInsts-1] != isa.ClassBranch {
			return fmt.Errorf("cfg: block %d final class %v, want branch",
				i, cs[b.NInsts-1])
		}
		succs := p.Succs(id)
		for _, to := range succs {
			if to < 0 || int(to) >= len(p.Blocks) {
				return fmt.Errorf("cfg: block %d successor %d out of range", i, to)
			}
		}
		if b.Branch == isa.BranchIndirect || b.Branch == isa.BranchIndirectCall {
			if uint64(b.model)+1+uint64(b.nSuccs) > uint64(len(p.probs)) {
				return fmt.Errorf("cfg: block %d probabilities [%d,+%d) outside the %d-entry probability array",
					i, b.model, 1+int(b.nSuccs), len(p.probs))
			}
		}
		switch b.Branch {
		case isa.BranchNone, isa.BranchUncond:
			if len(succs) != 1 {
				return fmt.Errorf("cfg: block %d (%v) has %d successors, want 1",
					i, b.Branch, len(succs))
			}
		case isa.BranchCond:
			if len(succs) != 2 {
				return fmt.Errorf("cfg: block %d (cond) has %d successors, want 2",
					i, len(succs))
			}
			if int(b.model) >= len(p.conds) {
				return fmt.Errorf("cfg: block %d cond model %d outside the %d-entry model array",
					i, b.model, len(p.conds))
			}
			if m := p.conds[b.model]; m.Kind == CondPattern && (m.Period < 1 || m.Period > MaxPeriod) {
				return fmt.Errorf("cfg: block %d pattern period %d outside [1,%d]",
					i, m.Period, MaxPeriod)
			}
		case isa.BranchCall, isa.BranchIndirectCall:
			if len(succs) == 0 {
				return fmt.Errorf("cfg: block %d (call) has no callees", i)
			}
			if b.Cont == NoBlock {
				return fmt.Errorf("cfg: block %d (call) has no continuation", i)
			}
			if b.Cont < 0 || int(b.Cont) >= len(p.Blocks) {
				return fmt.Errorf("cfg: block %d continuation %d out of range", i, b.Cont)
			}
		case isa.BranchReturn:
			if len(succs) != 0 {
				return fmt.Errorf("cfg: block %d (return) has %d successors, want 0",
					i, len(succs))
			}
		case isa.BranchIndirect:
			if len(succs) == 0 {
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
