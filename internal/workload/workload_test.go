package workload

import (
	"testing"

	"streamfetch/internal/cfg"
	"streamfetch/internal/isa"
)

func TestSuiteHasElevenBenchmarks(t *testing.T) {
	s := Suite()
	if len(s) != 11 {
		t.Fatalf("Suite() has %d benchmarks, want 11 (SPECint2000)", len(s))
	}
	seen := map[string]bool{}
	for _, p := range s {
		if seen[p.Name] {
			t.Errorf("duplicate benchmark name %q", p.Name)
		}
		seen[p.Name] = true
		if p.Seed == 0 {
			t.Errorf("%s: zero seed", p.Name)
		}
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("176.gcc")
	if err != nil {
		t.Fatalf("ByName(176.gcc): %v", err)
	}
	if p.Name != "176.gcc" {
		t.Fatalf("got %q", p.Name)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName(nope) succeeded, want error")
	}
}

func TestGenerateValidPrograms(t *testing.T) {
	for _, params := range Suite() {
		params := params
		t.Run(params.Name, func(t *testing.T) {
			prog := Generate(params)
			if err := prog.Validate(); err != nil {
				t.Fatalf("invalid program: %v", err)
			}
			if prog.NumBlocks() < 20 {
				t.Errorf("only %d blocks", prog.NumBlocks())
			}
			if prog.StaticInsts() < 100 {
				t.Errorf("only %d static instructions", prog.StaticInsts())
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p, _ := ByName("164.gzip")
	a := Generate(p)
	b := Generate(p)
	if a.NumBlocks() != b.NumBlocks() {
		t.Fatalf("block counts differ: %d vs %d", a.NumBlocks(), b.NumBlocks())
	}
	for i := range a.Blocks {
		ba, bb := a.Blocks[i], b.Blocks[i]
		id := cfg.BlockID(i)
		if ba.NInsts != bb.NInsts || ba.Branch != bb.Branch || len(a.Succs(id)) != len(b.Succs(id)) {
			t.Fatalf("block %d differs between runs", i)
		}
	}
}

func TestCallContinuationsUnique(t *testing.T) {
	p, _ := ByName("252.eon") // call heavy
	prog := Generate(p)
	seen := map[cfg.BlockID]cfg.BlockID{}
	for i, b := range prog.Blocks {
		if b.Branch == isa.BranchCall || b.Branch == isa.BranchIndirectCall {
			cont := prog.Cont(cfg.BlockID(i))
			if prev, dup := seen[cont]; dup {
				t.Fatalf("continuation %d shared by calls %d and %d", cont, prev, i)
			}
			seen[cont] = cfg.BlockID(i)
		}
	}
	if len(seen) == 0 {
		t.Fatal("eon generated no call sites")
	}
}

func TestCallGraphIsDAG(t *testing.T) {
	p, _ := ByName("176.gcc")
	prog := Generate(p)
	for i, b := range prog.Blocks {
		if b.Branch != isa.BranchCall && b.Branch != isa.BranchIndirectCall {
			continue
		}
		caller := procOf(prog, cfg.BlockID(i))
		for _, to := range prog.Succs(cfg.BlockID(i)) {
			if callee := procOf(prog, to); callee <= caller {
				t.Fatalf("call from proc %d to proc %d breaks the DAG invariant",
					caller, callee)
			}
		}
	}
}

func TestMeanBlockLenNearTarget(t *testing.T) {
	p, _ := ByName("164.gzip")
	prog := Generate(p)
	total := 0
	for _, b := range prog.Blocks {
		total += int(b.NInsts)
	}
	mean := float64(total) / float64(prog.NumBlocks())
	if mean < 3.0 || mean > 9.0 {
		t.Errorf("mean static block length %.2f outside plausible [3,9]", mean)
	}
}
