package layout

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"streamfetch/internal/cfg"
	"streamfetch/internal/isa"
	"streamfetch/internal/trace"
	"streamfetch/internal/workload"
)

// rankProgram returns a program whose baseline layout has n code slots
// with a direct branch on exactly the slots in direct (ascending, below
// n). The direct branches cycle through unconditional, conditional, call
// and appended-jump kinds; every other slot is a return block's or the
// body of a block ending in an appended jump. Each branch aims at its own
// block, spread over the program, so neighbouring ranks hold different
// targets.
func rankProgram(n int, direct []int) *cfg.Program {
	p := &cfg.Program{}
	add := func(k int, br isa.BranchType, succs int) cfg.BlockID {
		id := p.AddBlock(k, br)
		if br != isa.BranchNone {
			p.Classes(id)[k-1] = isa.ClassBranch
		}
		p.AddSuccs(id, succs)
		return id
	}
	pad := func(k int) {
		for ; k > 0; k -= 255 {
			add(min(k, 255), isa.BranchReturn, 0)
		}
	}
	var branches []cfg.BlockID
	s := 0
	for i, d := range direct {
		gap := d - s
		switch last := d == n-1; {
		case i%4 == 3 && gap > 0:
			k := min(gap, 255)
			pad(gap - k)
			branches = append(branches, add(k, isa.BranchNone, 1))
		case i%4 == 1 && !last:
			pad(gap)
			branches = append(branches, add(1, isa.BranchCond, 2))
		case i%4 == 2 && !last:
			// Not last, so its continuation (the next block) exists.
			pad(gap)
			branches = append(branches, add(1, isa.BranchCall, 1))
		default:
			pad(gap)
			branches = append(branches, add(1, isa.BranchUncond, 1))
		}
		s = d + 1
	}
	pad(n - s)
	for i, id := range branches {
		succs := p.Succs(id)
		aim := cfg.BlockID((i*7919 + 1) % len(p.Blocks))
		switch p.Blocks[id].Branch {
		case isa.BranchCond:
			// Falls through to the next block, takes the aim.
			succs[0], succs[1] = id+1, aim
		case isa.BranchNone:
			// The jump is appended only if the sole successor is not
			// the next block.
			if aim == id+1 {
				aim = id
			}
			succs[0] = aim
		default:
			succs[0] = aim
		}
	}
	return p
}

// checkTargetIndex fails unless StaticTarget agrees with staticTargetAt
// on every slot of l, finds a target on exactly the slots in direct, and
// refuses every address outside the segment.
func checkTargetIndex(t *testing.T, name string, l *Layout, n int, direct []int) {
	t.Helper()
	if err := l.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if l.TotalSlots() != n {
		t.Fatalf("%s: %d slots, planned %d", name, l.TotalSlots(), n)
	}
	s := 0
	for _, id := range l.addressOrder() {
		for off := range l.Slots(id) {
			a := CodeBase.Plus(s)
			wt, wok := l.staticTargetAt(id, off)
			if tgt, ok := l.StaticTarget(a); tgt != wt || ok != wok {
				t.Fatalf("%s: StaticTarget(slot %d) = (%v,%v), want (%v,%v)", name, s, tgt, ok, wt, wok)
			}
			planned := len(direct) > 0 && direct[0] == s
			if wok != planned {
				t.Fatalf("%s: slot %d has a target %v, planned %v", name, s, wok, planned)
			}
			if planned {
				direct = direct[1:]
			}
			s++
		}
	}
	for _, a := range []isa.Addr{CodeBase.Plus(-1), l.CodeLimit(), l.CodeLimit().Plus(1),
		l.CodeLimit().Plus(64), CodeBase + 1<<63} {
		if tgt, ok := l.StaticTarget(a); ok {
			t.Fatalf("%s: StaticTarget(%v) = %v outside the segment", name, a, tgt)
		}
	}
}

// span returns the slots from up to (not including) to.
func span(from, to int) []int {
	s := make([]int, 0, to-from)
	for i := from; i < to; i++ {
		s = append(s, i)
	}
	return s
}

// TestTargetIndexRank checks the target index where a rank is easiest to
// get wrong: direct branches on the first and last slot of 64-slot words,
// a full word, an empty word between set ones, the last slot of a partial
// last word, random densities, and the last slot of the largest segment
// build accepts.
func TestTargetIndexRank(t *testing.T) {
	type rankCase struct {
		name   string
		n      int
		direct []int
	}
	cases := []rankCase{
		{"word edges", 389, append(append([]int{0, 63, 64, 127}, span(192, 256)...), 300, 387, 388)},
		{"full last word", 512, append([]int{1, 2, 62}, span(448, 512)...)},
		{"every slot", 200, span(0, 200)},
		{"no slot", 130, nil},
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for _, density := range []float64{0.02, 0.11, 0.5, 0.95} {
		var direct []int
		for s := range 5000 {
			if rng.Float64() < density {
				direct = append(direct, s)
			}
		}
		cases = append(cases, rankCase{fmt.Sprintf("random at density %g", density), 5000, direct})
	}
	for _, c := range cases {
		checkTargetIndex(t, c.name, Baseline(rankProgram(c.n, c.direct)), c.n, c.direct)
	}

	n := maxSlots - 1
	direct := append([]int{0, 63, 64}, span(n-100, n)...)
	checkTargetIndex(t, "largest segment", Baseline(rankProgram(n, direct)), n, direct)
}

// BenchmarkImage times the static image on 176.gcc's optimized layout:
// FetchAt over the correct-path fetch addresses of a 200,000-instruction
// walk, and StaticTarget at the branch ending each of the walk's taken
// transitions, as the decode check asks it. Each reports ns per lookup.
func BenchmarkImage(b *testing.B) {
	params, err := workload.ByName("176.gcc")
	if err != nil {
		b.Fatal(err)
	}
	prog := workload.Generate(params)
	l := Optimized(prog, trace.CollectProfile(prog, 7, 200_000))
	var fetch, taken []isa.Addr
	g := trace.NewGenerator(prog, 11, nil)
	for end := isa.Addr(0); g.Insts() < 200_000; {
		id, ok := g.Next()
		if !ok {
			break
		}
		if end != 0 && l.Start(id) != end {
			taken = append(taken, end-isa.InstBytes)
		}
		end = l.End(id)
		for a := l.Start(id); a < end; a = a.Next() {
			fetch = append(fetch, a)
		}
	}
	b.Run("FetchAt", func(b *testing.B) {
		var sink isa.Class
		for b.Loop() {
			for _, a := range fetch {
				sink ^= l.FetchAt(a).Class
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(fetch)), "ns/lookup")
		_ = sink
	})
	b.Run("StaticTarget", func(b *testing.B) {
		var sink isa.Addr
		for b.Loop() {
			for _, a := range taken {
				t, _ := l.StaticTarget(a)
				sink ^= t
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(taken)), "ns/lookup")
		_ = sink
	})
}
