package cfg

import (
	"testing"
	"unsafe"

	"streamfetch/internal/isa"
)

// tiny builds a minimal valid two-block program: a conditional loop header
// and a return.
func tiny() *Program {
	a := &Block{
		ID: 0, NInsts: 2,
		Classes: []isa.Class{isa.ClassALU, isa.ClassBranch},
		Branch:  isa.BranchCond,
		Succs:   []Edge{{To: 1, Prob: 0.5}, {To: 0, Prob: 0.5}},
		Cont:    NoBlock,
	}
	b := &Block{
		ID: 1, NInsts: 1,
		Classes: []isa.Class{isa.ClassBranch},
		Branch:  isa.BranchReturn,
		Cont:    NoBlock,
	}
	return &Program{
		Name:   "tiny",
		Blocks: []*Block{a, b},
		Procs:  []Proc{{Name: "main", Entry: 0, Blocks: []BlockID{0, 1}}},
		Entry:  0,
	}
}

func TestValidateAccepts(t *testing.T) {
	if err := tiny().Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Program)
	}{
		{"bad entry", func(p *Program) { p.Entry = 99 }},
		{"wrong id", func(p *Program) { p.Blocks[0].ID = 5 }},
		{"zero insts", func(p *Program) { p.Blocks[0].NInsts = 0 }},
		{"classes mismatch", func(p *Program) { p.Blocks[0].Classes = p.Blocks[0].Classes[:1] }},
		{"non-branch final class", func(p *Program) { p.Blocks[0].Classes[1] = isa.ClassALU }},
		{"succ out of range", func(p *Program) { p.Blocks[0].Succs[0].To = 42 }},
		{"cond needs two succs", func(p *Program) { p.Blocks[0].Succs = p.Blocks[0].Succs[:1] }},
		{"return with succs", func(p *Program) {
			p.Blocks[1].Succs = []Edge{{To: 0, Prob: 1}}
		}},
		{"proc entry range", func(p *Program) { p.Procs[0].Entry = 77 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := tiny()
			c.mut(p)
			if err := p.Validate(); err == nil {
				t.Fatal("invalid program accepted")
			}
		})
	}
}

func TestValidateCallNeedsContinuation(t *testing.T) {
	p := tiny()
	p.Blocks[0].Branch = isa.BranchCall
	p.Blocks[0].Succs = []Edge{{To: 1, Prob: 1}}
	if err := p.Validate(); err == nil {
		t.Fatal("call without continuation accepted")
	}
	p.Blocks[0].Cont = 1
	if err := p.Validate(); err != nil {
		t.Fatalf("call with continuation rejected: %v", err)
	}
}

func TestStaticInsts(t *testing.T) {
	if got := tiny().StaticInsts(); got != 3 {
		t.Fatalf("StaticInsts = %d, want 3", got)
	}
}

func TestProfileAccumulation(t *testing.T) {
	p := tiny()
	prof := NewProfile(p)
	prof.AddBlock(0)
	prof.AddBlock(0)
	prof.AddEdge(0, 1)
	if prof.BlockCount[0] != 2 || prof.EdgeCount[EdgeKey{0, 1}] != 1 {
		t.Fatalf("profile counts wrong: %+v", prof)
	}
	other := NewProfile(p)
	other.AddBlock(1)
	other.AddEdge(0, 1)
	prof.Merge(other)
	if prof.BlockCount[1] != 1 || prof.EdgeCount[EdgeKey{0, 1}] != 2 {
		t.Fatalf("merge wrong: %+v", prof)
	}
}

// TestBlockSize pins a Block to 128 bytes; a field added or reordered
// carelessly grows every program.
func TestBlockSize(t *testing.T) {
	if n := unsafe.Sizeof(Block{}); n != 128 {
		t.Fatalf("cfg.Block is %d bytes, want 128", n)
	}
}
