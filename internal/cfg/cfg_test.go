package cfg

import (
	"reflect"
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
	copy(p.AddSuccs(a, 2), []Edge{{To: 1, Prob: 0.5}, {To: 0, Prob: 0.5}})
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
		{"succ out of range", func(p *Program) { p.Succs(0)[0].To = 42 }},
		{"edges out of range", func(p *Program) { p.Blocks[0].succOff = 1 }},
		{"cond needs two succs", func(p *Program) { p.Blocks[0].nSuccs = 1 }},
		{"pattern period", func(p *Program) {
			p.Blocks[0].Cond = CondModel{Kind: CondPattern, Period: MaxPeriod + 1}
		}},
		{"return with succs", func(p *Program) {
			p.AddSuccs(1, 1)[0] = Edge{To: 0, Prob: 1}
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
	p.AddSuccs(0, 1)[0] = Edge{To: 1, Prob: 1}
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

// TestBlockSize keeps a Block at most 64 bytes and a Block and an Edge
// free of pointers: a field added or reordered carelessly grows every
// resident program, and a pointer makes the collector scan every block.
func TestBlockSize(t *testing.T) {
	n := unsafe.Sizeof(Block{})
	t.Logf("cfg.Block is %d bytes", n)
	if n > 64 {
		t.Fatalf("cfg.Block is %d bytes, want at most 64", n)
	}
	if _, ok := pointerField(reflect.TypeFor[Proc]()); !ok {
		t.Fatal("pointerField misses the pointers of a Proc")
	}
	for _, typ := range []reflect.Type{reflect.TypeFor[Block](), reflect.TypeFor[Edge]()} {
		if f, ok := pointerField(typ); ok {
			t.Errorf("%v holds a pointer in field %s", typ, f)
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
