package cfg

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"streamfetch/internal/isa"
)

// tiny builds a minimal valid two-block program: a conditional loop header
// and a return.
func tiny() *Program {
	p := &Program{Name: "tiny"}
	a := p.AddBlock(Block{NInsts: 2, Branch: isa.BranchCond, Cont: NoBlock})
	p.Classes(a)[1] = isa.ClassBranch
	copy(p.AddSuccs(a, 2), []BlockID{1, 0})
	b := p.AddBlock(Block{NInsts: 1, Branch: isa.BranchReturn, Cont: NoBlock})
	p.Classes(b)[0] = isa.ClassBranch
	p.Procs = []Proc{{Name: "main", Entry: 0, Blocks: []BlockID{0, 1}}}
	p.Compact()
	return p
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
		{"zero insts", func(p *Program) { p.Blocks[0].NInsts = 0 }},
		{"classes mismatch", func(p *Program) { p.Blocks[1].NInsts = 2 }},
		{"non-branch final class", func(p *Program) { p.Classes(0)[1] = isa.ClassALU }},
		{"succ out of range", func(p *Program) { p.Succs(0)[0] = 42 }},
		{"edges out of range", func(p *Program) { p.Blocks[0].succOff = 1 }},
		{"cond needs two succs", func(p *Program) { p.Blocks[0].nSuccs = 1 }},
		{"pattern period", func(p *Program) {
			p.SetCond(0, CondModel{Kind: CondPattern, Period: MaxPeriod + 1})
		}},
		{"cond model out of range", func(p *Program) { p.Blocks[0].model = 1 }},
		{"indirect probabilities out of range", func(p *Program) {
			indirect(p)
			p.Blocks[0].model = 1
		}},
		{"indirect without probabilities", func(p *Program) {
			p.Blocks[0].Branch = isa.BranchIndirect
		}},
		{"return with succs", func(p *Program) {
			p.AddSuccs(1, 1)[0] = 0
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
	p.AddSuccs(0, 1)[0] = 1
	if err := p.Validate(); err == nil {
		t.Fatal("call without continuation accepted")
	}
	p.Blocks[0].Cont = 1
	if err := p.Validate(); err != nil {
		t.Fatalf("call with continuation rejected: %v", err)
	}
}

// indirect turns tiny's first block into a two-arm indirect branch.
func indirect(p *Program) {
	p.Blocks[0].Branch = isa.BranchIndirect
	copy(p.AddSuccs(0, 2), []BlockID{1, 0})
	p.SetIndMarkov(0, 0.25)
	copy(p.ArmProbs(0), []float64{0.75, 0.25})
}

func TestIndirectModel(t *testing.T) {
	p := tiny()
	indirect(p)
	if err := p.Validate(); err != nil {
		t.Fatalf("indirect branch rejected: %v", err)
	}
	if got := p.IndMarkov(0); got != 0.25 {
		t.Errorf("IndMarkov = %v, want 0.25", got)
	}
	if got := p.ArmProbs(0); !slices.Equal(got, []float64{0.75, 0.25}) {
		t.Errorf("ArmProbs = %v, want [0.75 0.25]", got)
	}
	if got := p.Succs(0); !slices.Equal(got, []BlockID{1, 0}) {
		t.Errorf("Succs = %v, want [1 0]", got)
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

// TestBlockSize keeps a Block at most 32 bytes and a successor at 4, and
// a Block and the elements of the program's side arrays free of pointers:
// a field added or reordered carelessly grows every resident program, and
// a pointer makes the collector scan every block. A Block holds no float
// either: branch probabilities live beside it, for the blocks that have
// them.
func TestBlockSize(t *testing.T) {
	n := unsafe.Sizeof(Block{})
	t.Logf("cfg.Block is %d bytes", n)
	if n > 32 {
		t.Fatalf("cfg.Block is %d bytes, want at most 32", n)
	}
	if n := unsafe.Sizeof(BlockID(0)); n != 4 {
		t.Fatalf("a successor is %d bytes, want 4", n)
	}
	if _, ok := pointerField(reflect.TypeFor[Proc]()); !ok {
		t.Fatal("pointerField misses the pointers of a Proc")
	}
	for _, typ := range []reflect.Type{
		reflect.TypeFor[Block](), reflect.TypeFor[BlockID](),
		reflect.TypeFor[CondModel](), reflect.TypeFor[isa.Class](),
	} {
		if f, ok := pointerField(typ); ok {
			t.Errorf("%v holds a pointer in field %s", typ, f)
		}
	}
	blk := reflect.TypeFor[Block]()
	for i := range blk.NumField() {
		switch f := blk.Field(i); f.Type.Kind() {
		case reflect.Float32, reflect.Float64:
			t.Errorf("cfg.Block holds a float in field %s", f.Name)
		}
	}
}

// pointerField returns the path of the first field of typ that is or holds
// a pointer (a pointer, slice, map, channel, function, interface or
// string), walking into nested structs and arrays.
func pointerField(typ reflect.Type) (string, bool) {
	switch typ.Kind() {
	case reflect.Struct:
		for i := range typ.NumField() {
			f := typ.Field(i)
			if path, ok := pointerField(f.Type); ok {
				return strings.TrimSuffix(f.Name+"."+path, "."), true
			}
		}
		return "", false
	case reflect.Array:
		return pointerField(typ.Elem())
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
		return "", true
	}
	return "", false
}

func TestPatternAt(t *testing.T) {
	m := CondModel{Kind: CondPattern, Period: 3, Pattern: 0b101}
	for i, want := range []bool{true, false, true} {
		if got := m.PatternAt(i); got != want {
			t.Errorf("PatternAt(%d) = %v, want %v", i, got, want)
		}
	}
}
