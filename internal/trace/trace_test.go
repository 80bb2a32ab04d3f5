package trace

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"streamfetch/internal/cfg"
	"streamfetch/internal/workload"
)

func genProg(t testing.TB, name string) *cfg.Program {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return workload.Generate(p)
}

func TestGenerateRespectsLimit(t *testing.T) {
	prog := genProg(t, "164.gzip")
	tr := Generate(prog, GenConfig{Seed: 1, MaxInsts: 10_000})
	if tr.Insts < 10_000 {
		t.Fatalf("trace stopped early at %d instructions", tr.Insts)
	}
	if tr.Insts > 10_000+64 {
		t.Fatalf("trace overshot: %d instructions", tr.Insts)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	prog := genProg(t, "175.vpr")
	a := Generate(prog, GenConfig{Seed: 5, MaxInsts: 50_000})
	b := Generate(prog, GenConfig{Seed: 5, MaxInsts: 50_000})
	if len(a.Blocks) != len(b.Blocks) {
		t.Fatal("same seed produced different lengths")
	}
	for i := range a.Blocks {
		if a.Blocks[i] != b.Blocks[i] {
			t.Fatalf("same seed diverged at block %d", i)
		}
	}
}

func TestGenerateSeedSensitivity(t *testing.T) {
	prog := genProg(t, "175.vpr")
	a := Generate(prog, GenConfig{Seed: 5, MaxInsts: 50_000})
	b := Generate(prog, GenConfig{Seed: 6, MaxInsts: 50_000})
	same := 0
	n := len(a.Blocks)
	if len(b.Blocks) < n {
		n = len(b.Blocks)
	}
	for i := 0; i < n; i++ {
		if a.Blocks[i] == b.Blocks[i] {
			same++
		}
	}
	if same == n {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestTraceFollowsCFGEdges(t *testing.T) {
	prog := genProg(t, "164.gzip")
	tr := Generate(prog, GenConfig{Seed: 2, MaxInsts: 100_000})
	var stack []cfg.BlockID
	for i := 0; i+1 < len(tr.Blocks); i++ {
		id := tr.Blocks[i]
		b := prog.Blocks[id]
		next := tr.Blocks[i+1]
		switch {
		case b.Branch.IsCall():
			stack = append(stack, prog.Cont(id))
			if !hasSucc(prog, id, next) {
				t.Fatalf("call block %d jumped to non-callee %d", id, next)
			}
		case b.Branch.IsReturn():
			if len(stack) == 0 {
				t.Fatalf("return with empty stack at %d", i)
			}
			want := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if next != want {
				t.Fatalf("return went to %d, want continuation %d", next, want)
			}
		default:
			if !hasSucc(prog, id, next) {
				t.Fatalf("block %d followed by non-successor %d", id, next)
			}
		}
	}
}

func hasSucc(p *cfg.Program, from, to cfg.BlockID) bool {
	return slices.Contains(p.Succs(from), to)
}

func TestProfileCountsMatchTrace(t *testing.T) {
	prog := genProg(t, "164.gzip")
	prof := cfg.NewProfile(prog)
	g := NewGenerator(prog, 3, prof)
	count := map[cfg.BlockID]uint64{}
	for g.Insts() < 50_000 {
		id, ok := g.Next()
		if !ok {
			break
		}
		count[id]++
	}
	for id, c := range count {
		if prof.BlockCount[id] != c {
			t.Fatalf("block %d: profile %d, trace %d", id, prof.BlockCount[id], c)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	prog := genProg(t, "164.gzip")
	tr := Generate(prog, GenConfig{Seed: 9, MaxInsts: 30_000})
	var buf bytes.Buffer
	if err := tr.Write(&buf, prog); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Name != tr.Name || got.Insts != tr.Insts || len(got.Blocks) != len(tr.Blocks) {
		t.Fatalf("header mismatch: %v/%d/%d vs %v/%d/%d",
			got.Name, got.Insts, len(got.Blocks), tr.Name, tr.Insts, len(tr.Blocks))
	}
	for i := range tr.Blocks {
		if got.Blocks[i] != tr.Blocks[i] {
			t.Fatalf("block %d mismatch", i)
		}
	}
}

func TestFileRoundTripProperty(t *testing.T) {
	prog := genProg(t, "164.gzip")
	f := func(ids []uint16, insts uint64) bool {
		tr := &Trace{Name: "prop", Insts: insts}
		for _, id := range ids {
			tr.Blocks = append(tr.Blocks, cfg.BlockID(int(id)%len(prog.Blocks)))
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf, prog); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if got.Insts != tr.Insts || len(got.Blocks) != len(tr.Blocks) {
			return false
		}
		for i := range tr.Blocks {
			if got.Blocks[i] != tr.Blocks[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a trace file at all"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestMarkovIndirectCorrelation(t *testing.T) {
	prog := genProg(t, "253.perlbmk") // switch heavy
	g := NewGenerator(prog, 11, nil)
	// Track per-switch transition determinism: with IndMarkov > 0.5 the
	// most common (prev->next) arm transition should dominate.
	type key struct {
		b          cfg.BlockID
		prev, next cfg.BlockID
	}
	trans := map[key]int{}
	prev := map[cfg.BlockID]cfg.BlockID{}
	var last cfg.BlockID = cfg.NoBlock
	var lastSwitch cfg.BlockID = cfg.NoBlock
	for g.Insts() < 300_000 {
		id, ok := g.Next()
		if !ok {
			break
		}
		if lastSwitch != cfg.NoBlock {
			if p, seen := prev[lastSwitch]; seen {
				trans[key{lastSwitch, p, id}]++
			}
			prev[lastSwitch] = id
			lastSwitch = cfg.NoBlock
		}
		if prog.Blocks[id].Branch.IsIndirect() {
			lastSwitch = id
		}
		last = id
	}
	_ = last
	if len(trans) == 0 {
		t.Skip("no indirect transitions observed")
	}
}

// TestBranchStateSize guards the generator's per-static-block state: a
// generator holds one branchState per block in each 512-block page its
// walk reaches (all 55k of 176.gcc's in the worst case), 12 bytes each at
// most.
func TestBranchStateSize(t *testing.T) {
	if n := unsafe.Sizeof(branchState{}); n > 12 {
		t.Fatalf("branchState is %d bytes, want at most 12", n)
	}
}
