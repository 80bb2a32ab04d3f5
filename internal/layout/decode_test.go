package layout

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"streamfetch/internal/cfg"
	"streamfetch/internal/isa"
	"streamfetch/internal/trace"
	"streamfetch/internal/workload"
)

var (
	suiteOnce    sync.Once
	suiteLayouts []*Layout
)

// decodeLayouts builds both layouts of every benchmark in the suite, the
// same way sessions do, once per test binary.
func decodeLayouts(t *testing.T) []*Layout {
	t.Helper()
	suiteOnce.Do(func() {
		for _, params := range workload.Suite() {
			prog := workload.Generate(params)
			prof := trace.CollectProfile(prog, 7, 200_000)
			suiteLayouts = append(suiteLayouts, Baseline(prog), Optimized(prog, prof))
		}
	})
	return suiteLayouts
}

// TestDecodeTablesMatchOracle differentially checks the packed decode words
// (InstAt, FetchAt, StaticTarget) and BlockAt's search against a walk over
// Order and Slots that materializes each slot from its block, for both
// layouts of every benchmark, plus unmapped addresses on either side of
// the code segment.
func TestDecodeTablesMatchOracle(t *testing.T) {
	for _, l := range decodeLayouts(t) {
		name := l.Prog.Name + "/" + l.Name
		a := CodeBase
		for _, id := range l.Order {
			for off := 0; off < l.Slots(id); off, a = off+1, a.Next() {
				if start := l.Start(id).Plus(off); start != a {
					t.Fatalf("%s: block %d slot %d at %v, walk at %v", name, id, off, start, a)
				}
				if gid, gslot, ok := l.BlockAt(a); gid != id || gslot != off || !ok {
					t.Fatalf("%s: BlockAt(%v) = (%d,%d,%v), want (%d,%d,true)",
						name, a, gid, gslot, ok, id, off)
				}
				want := l.instAtSlot(id, off, a)
				if inst, ok := l.InstAt(a); inst != want || !ok {
					t.Fatalf("%s: InstAt(%v) = (%+v,%v), want %+v", name, a, inst, ok, want)
				}
				if inst := l.FetchAt(a); inst != want {
					t.Fatalf("%s: FetchAt(%v) = %+v, want %+v", name, a, inst, want)
				}
				wt, wok := l.staticTargetAt(id, off)
				if tgt, ok := l.StaticTarget(a); tgt != wt || ok != wok {
					t.Fatalf("%s: StaticTarget(%v) = (%v,%v), want (%v,%v)",
						name, a, tgt, ok, wt, wok)
				}
			}
		}
		if a != l.CodeLimit() {
			t.Fatalf("%s: walk ended at %v, code limit %v", name, a, l.CodeLimit())
		}
		for i := 1; i <= 16; i++ {
			// The last is far enough above the segment that its slot
			// would overflow int.
			for _, a := range []isa.Addr{CodeBase.Plus(-i), l.CodeLimit().Plus(i - 1), (CodeBase + 1<<63).Plus(i)} {
				if id, slot, ok := l.BlockAt(a); ok {
					t.Fatalf("%s: BlockAt(%v) = (%d,%d) outside code", name, a, id, slot)
				}
				if inst, ok := l.InstAt(a); ok {
					t.Fatalf("%s: InstAt(%v) = %+v outside code", name, a, inst)
				}
				if tgt, ok := l.StaticTarget(a); ok {
					t.Fatalf("%s: StaticTarget(%v) = %v outside code", name, a, tgt)
				}
				if got, want := l.FetchAt(a), (isa.Inst{Addr: a, Class: isa.ClassALU}); got != want {
					t.Fatalf("%s: FetchAt(%v) = %+v outside code, want %+v", name, a, got, want)
				}
			}
		}
	}
}

// TestDecodeTableTargetsInSegment: every statically-encoded target must be
// a code address (the 0 "no target" field can never encode one).
func TestDecodeTableTargetsInSegment(t *testing.T) {
	for _, l := range decodeLayouts(t) {
		for a := CodeBase; a < l.CodeLimit(); a = a.Next() {
			if tgt, ok := l.StaticTarget(a); ok {
				if tgt < CodeBase || tgt >= l.CodeLimit() {
					t.Fatalf("%s/%s: StaticTarget(%v) = %v outside the code segment",
						l.Prog.Name, l.Name, a, tgt)
				}
			}
		}
	}
}

// mustRefuse runs f and fails the test unless it panics with build's
// decode-word refusal.
func mustRefuse(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "do not fit a decode word") {
			t.Fatalf("%s: build did not refuse it (panic %q)", what, msg)
		}
	}()
	f()
}

// TestDecodeWordBounds: build refuses what a decode word cannot hold, a
// class or branch type above 15 or a code segment of 2^24-1 slots or more,
// and accepts the largest segment that fits.
func TestDecodeWordBounds(t *testing.T) {
	// ret returns a one-block program whose block is a return of n
	// instructions (no successors, so it lays out as is).
	ret := func(n int) *cfg.Program {
		p := &cfg.Program{}
		id := p.AddBlock(cfg.Block{NInsts: int32(n), Branch: isa.BranchReturn, Cont: cfg.NoBlock})
		p.Classes(id)[n-1] = isa.ClassBranch
		return p
	}
	p := ret(2)
	p.Classes(0)[0] = 16
	mustRefuse(t, "class 16", func() { Baseline(p) })

	p = ret(2)
	p.Blocks[0].Branch = 16
	mustRefuse(t, "branch 16", func() { Baseline(p) })

	p = ret(2)
	p.Classes(0)[0] = 15
	if got, _ := Baseline(p).InstAt(CodeBase); got.Class != 15 {
		t.Fatalf("class 15 decoded as %d", got.Class)
	}

	// The segment check runs before any slot is read, so a block of the
	// refused size needs no class table.
	for _, n := range []int{1<<24 - 1, 1 << 24} {
		mustRefuse(t, "code segment of 2^24-1 slots or more", func() {
			Baseline(&cfg.Program{Blocks: []cfg.Block{{
				NInsts: int32(n), Branch: isa.BranchReturn, Cont: cfg.NoBlock,
			}}})
		})
	}
	l := Baseline(ret(1<<24 - 2))
	last := CodeBase.Plus(1<<24 - 3)
	if inst, ok := l.InstAt(last); !ok || inst.Branch != isa.BranchReturn {
		t.Fatalf("largest segment: InstAt(%v) = (%+v,%v)", last, inst, ok)
	}
}

// retainedHeap returns the live heap after two collections.
func retainedHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestImageSize guards the size of the prepared static image: 176.gcc, the
// largest benchmark, must be held in at most 3.5 MB of program and 3 MB
// per layout.
func TestImageSize(t *testing.T) {
	params, err := workload.ByName("176.gcc")
	if err != nil {
		t.Fatal(err)
	}
	const mb = 1e6
	h0 := retainedHeap()
	prog := workload.Generate(params)
	h1 := retainedHeap()
	prof := trace.CollectProfile(prog, 7, 200_000)
	h2 := retainedHeap()
	base := Baseline(prog)
	h3 := retainedHeap()
	opt := Optimized(prog, prof)
	h4 := retainedHeap()
	runtime.KeepAlive(prof)
	runtime.KeepAlive(base)
	runtime.KeepAlive(opt)

	size := func(before, after uint64) float64 { return float64(int64(after-before)) / mb }
	for _, c := range []struct {
		what  string
		got   float64
		limit float64
	}{
		{"program", size(h0, h1), 3.5},
		{"base layout", size(h2, h3), 3},
		{"optimized layout", size(h3, h4), 3},
	} {
		t.Logf("176.gcc %s: %.2f MB retained", c.what, c.got)
		if c.got > c.limit {
			t.Errorf("176.gcc %s retains %.2f MB, limit %g MB", c.what, c.got, c.limit)
		}
	}
}
