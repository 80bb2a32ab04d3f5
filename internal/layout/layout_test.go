package layout

import (
	"testing"

	"streamfetch/internal/cfg"
	"streamfetch/internal/isa"
	"streamfetch/internal/trace"
	"streamfetch/internal/workload"
)

func genProgram(t testing.TB, name string) *cfg.Program {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	return workload.Generate(p)
}

func TestBaselineValid(t *testing.T) {
	prog := genProgram(t, "164.gzip")
	l := Baseline(prog)
	if err := l.Validate(); err != nil {
		t.Fatalf("baseline layout invalid: %v", err)
	}
	if l.CodeSize() < prog.StaticInsts()*isa.InstBytes/2 {
		t.Errorf("code size %d implausibly small", l.CodeSize())
	}
}

func TestOptimizedValid(t *testing.T) {
	for _, name := range []string{"164.gzip", "176.gcc", "252.eon"} {
		prog := genProgram(t, name)
		prof := trace.CollectProfile(prog, 42, 200_000)
		l := Optimized(prog, prof)
		if err := l.Validate(); err != nil {
			t.Fatalf("%s: optimized layout invalid: %v", name, err)
		}
	}
}

// TestValidateRejects: Validate catches a gap in the code segment, and a
// call continuation that still tiles the segment but no longer follows its
// call.
func TestValidateRejects(t *testing.T) {
	prog := genProgram(t, "164.gzip")
	call := cfg.NoBlock
	for i, b := range prog.Blocks {
		if b.Branch == isa.BranchCall {
			call = cfg.BlockID(i)
			break
		}
	}
	if call == cfg.NoBlock {
		t.Fatal("164.gzip has no call")
	}
	// Open a gap before the first block after a non-call that is no call
	// itself, so that only the tiling check sees it.
	gap := Baseline(prog)
	for i := 1; i < len(prog.Blocks); i++ {
		if !prog.Blocks[i-1].Branch.IsCall() && !prog.Blocks[i].Branch.IsCall() {
			gap.start[i]++
			break
		}
	}
	// Swap the continuation, call+1, with the block after it.
	swapped := Baseline(prog)
	s := swapped.start[call+1]
	swapped.start[call+2] = s
	swapped.start[call+1] = s + uint32(swapped.Slots(call+2))
	for name, l := range map[string]*Layout{"gap": gap, "continuation moved": swapped} {
		if err := l.Validate(); err == nil {
			t.Errorf("%s: broken layout accepted", name)
		}
	}
}

func TestInstAtBranchSlots(t *testing.T) {
	prog := genProgram(t, "164.gzip")
	l := Baseline(prog)
	for i := range prog.Blocks {
		id := cfg.BlockID(i)
		b := prog.Blocks[id]
		n := l.Slots(id)
		last, ok := l.InstAt(l.Start(id).Plus(n - 1))
		if !ok {
			t.Fatalf("InstAt end of block %d failed", id)
		}
		switch l.Arrange(id) {
		case ArrAppendJump:
			if last.Branch != isa.BranchUncond {
				t.Fatalf("block %d appended slot branch=%v, want uncond", id, last.Branch)
			}
		case ArrElide:
			if b.NInsts > 1 && last.Branch != isa.BranchNone {
				t.Fatalf("block %d elided but last slot branch=%v", id, last.Branch)
			}
		default:
			if last.Branch != b.Branch {
				t.Fatalf("block %d last slot branch=%v, want %v", id, last.Branch, b.Branch)
			}
		}
	}
}

func TestStaticTargetsResolve(t *testing.T) {
	prog := genProgram(t, "175.vpr")
	l := Baseline(prog)
	checked := 0
	for i := range prog.Blocks {
		id := cfg.BlockID(i)
		b := prog.Blocks[id]
		if b.Branch != isa.BranchCond || l.Arrange(id) != ArrAsIs {
			continue
		}
		a := l.Start(id).Plus(l.Slots(id) - 1)
		tgt, ok := l.StaticTarget(a)
		if !ok {
			t.Fatalf("StaticTarget of cond block %d failed", id)
		}
		want := l.Start(prog.Succs(id)[l.CondTargetSide(id)])
		if tgt != want {
			t.Fatalf("block %d target %v, want %v", id, tgt, want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no conditional blocks checked")
	}
}

// TestDynExpansionConsistent replays a trace through AppendDyn and checks the
// chain invariant: each instruction's NextAddr equals the next instruction's
// Addr, and taken flags match layout adjacency.
func TestDynExpansionConsistent(t *testing.T) {
	prog := genProgram(t, "164.gzip")
	tr := trace.Generate(prog, trace.GenConfig{Seed: 99, MaxInsts: 100_000})
	for _, l := range []*Layout{Baseline(prog), Optimized(prog, trace.CollectProfile(prog, 7, 100_000))} {
		var buf []DynInst
		for i, id := range tr.Blocks {
			next := cfg.NoBlock
			if i+1 < len(tr.Blocks) {
				next = tr.Blocks[i+1]
			}
			buf = l.AppendDyn(buf, id, next)
		}
		for i := 0; i+1 < len(buf); i++ {
			if buf[i].NextAddr != buf[i+1].Addr {
				t.Fatalf("%s: inst %d at %v has NextAddr %v but next inst at %v",
					l.Name, i, buf[i].Addr, buf[i].NextAddr, buf[i+1].Addr)
			}
			if buf[i].IsBranch() {
				taken := buf[i].NextAddr != buf[i].Addr.Next()
				if taken != buf[i].Taken && buf[i].NextAddr != buf[i].Addr.Next() {
					t.Fatalf("%s: inst %d taken flag %v inconsistent with flow %v->%v",
						l.Name, i, buf[i].Taken, buf[i].Addr, buf[i].NextAddr)
				}
			} else if buf[i].NextAddr != buf[i].Addr.Next() {
				t.Fatalf("%s: non-branch %d at %v jumps to %v",
					l.Name, i, buf[i].Addr, buf[i].NextAddr)
			}
		}
	}
}

// TestAppendDynRunDifferential: expanding a trace run-at-a-time is
// instruction-for-instruction identical to expanding it block by block,
// for run lengths of one block up to the whole trace, including the
// trailing NoBlock run.
func TestAppendDynRunDifferential(t *testing.T) {
	prog := genProgram(t, "164.gzip")
	tr := trace.Generate(prog, trace.GenConfig{Seed: 99, MaxInsts: 100_000})
	for _, l := range []*Layout{Baseline(prog), Optimized(prog, trace.CollectProfile(prog, 7, 100_000))} {
		var want []DynInst
		for i, id := range tr.Blocks {
			next := cfg.NoBlock
			if i+1 < len(tr.Blocks) {
				next = tr.Blocks[i+1]
			}
			want = l.AppendDyn(want, id, next)
		}
		for _, run := range []int{1, 2, 33, 512, len(tr.Blocks)} {
			var got []DynInst
			for i := 0; i < len(tr.Blocks); i += run {
				end := i + run
				next := cfg.NoBlock
				if end >= len(tr.Blocks) {
					end = len(tr.Blocks)
				} else {
					next = tr.Blocks[end]
				}
				got = l.AppendDynRun(got, tr.Blocks[i:end], next)
			}
			if len(got) != len(want) {
				t.Fatalf("%s run=%d: %d insts, want %d", l.Name, run, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s run=%d: inst %d = %+v, want %+v",
						l.Name, run, i, got[i], want[i])
				}
			}
		}
		if out := l.AppendDynRun(nil, nil, cfg.NoBlock); len(out) != 0 {
			t.Fatalf("%s: AppendDynRun of an empty run emitted %d insts", l.Name, len(out))
		}
	}
}

// TestAppendDynWithinSlots: one execution of a block, toward any of its
// successors, its continuation or the end of the trace, expands to at most
// the block's slot count, and AppendDyn grows no buffer with room for that
// many. The simulator's supply window, sized for MaxBlockSlots per block of
// a batch, therefore never reallocates.
func TestAppendDynWithinSlots(t *testing.T) {
	for _, l := range suiteImages(t) {
		for i := range l.Prog.Blocks {
			id := cfg.BlockID(i)
			nexts := append([]cfg.BlockID{cfg.NoBlock}, l.Prog.Succs(id)...)
			if int(id)+1 < len(l.Prog.Blocks) {
				nexts = append(nexts, id+1)
			}
			buf := make([]DynInst, 1, 1+l.Slots(id))
			for _, next := range nexts {
				out := l.AppendDyn(buf, id, next)
				if &out[0] != &buf[0] {
					t.Fatalf("%s/%s: block %d toward %d grew a buffer with room for its %d slots",
						l.Prog.Name, l.Name, id, next, l.Slots(id))
				}
			}
		}
	}
}

// BenchmarkAppendDynRun times correct-path expansion on 176.gcc's optimized
// layout: a 200,000-instruction trace expanded 512 blocks at a time into
// one reused buffer sized for the worst case of a full run, as the
// simulator's batched supply sizes its window. It reports ns per expanded
// instruction.
func BenchmarkAppendDynRun(b *testing.B) {
	const run = 512
	prog := genProgram(b, "176.gcc")
	l := Optimized(prog, trace.CollectProfile(prog, 7, 200_000))
	blocks := trace.Generate(prog, trace.GenConfig{Seed: 11, MaxInsts: 200_000}).Blocks
	buf := make([]DynInst, 0, run*l.MaxBlockSlots())
	insts := 0
	for b.Loop() {
		for i := 0; i < len(blocks); i += run {
			end, next := i+run, cfg.NoBlock
			if end >= len(blocks) {
				end = len(blocks)
			} else {
				next = blocks[end]
			}
			buf = l.AppendDynRun(buf[:0], blocks[i:end], next)
			insts += len(buf)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
}

// TestOptimizedReducesTakenRate is the load-bearing property for the whole
// paper: layout optimization must convert taken branch instances into
// not-taken ones (the paper reports ~80% of conditional instances not taken
// in optimized codes).
func TestOptimizedReducesTakenRate(t *testing.T) {
	for _, name := range []string{"164.gzip", "176.gcc", "300.twolf"} {
		prog := genProgram(t, name)
		prof := trace.CollectProfile(prog, 7, 600_000)
		tr := trace.Generate(prog, trace.GenConfig{Seed: 99, MaxInsts: 600_000})
		base := Baseline(prog)
		opt := Optimized(prog, prof)
		rate := func(l *Layout) (condTaken, streamLen float64) {
			var buf []DynInst
			taken, cond := 0, 0
			allTaken, total := 0, 0
			for i, id := range tr.Blocks {
				next := cfg.NoBlock
				if i+1 < len(tr.Blocks) {
					next = tr.Blocks[i+1]
				}
				buf = l.AppendDyn(buf[:0], id, next)
				total += len(buf)
				for _, d := range buf {
					if d.Branch == isa.BranchCond {
						cond++
						if d.Taken {
							taken++
						}
					}
					if d.IsBranch() && d.Taken {
						allTaken++
					}
				}
			}
			return float64(taken) / float64(cond), float64(total) / float64(allTaken)
		}
		baseCond, baseStream := rate(base)
		optCond, optStream := rate(opt)
		t.Logf("%s: cond taken rate base=%.3f opt=%.3f; mean stream length base=%.1f opt=%.1f",
			name, baseCond, optCond, baseStream, optStream)
		// Streams (taken-to-taken runs) must lengthen under layout
		// optimization; this is the property the stream architecture
		// exploits (paper: streams average 16+ instructions in
		// optimized codes).
		if optStream <= baseStream {
			t.Errorf("%s: optimized stream length %.2f not above base %.2f",
				name, optStream, baseStream)
		}
		// Conditional taken rate must not regress materially.
		if optCond > baseCond+0.03 {
			t.Errorf("%s: optimized cond taken rate %.3f above base %.3f",
				name, optCond, baseCond)
		}
	}
}
