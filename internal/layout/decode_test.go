package layout

import (
	"math"
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
	packedOnce   sync.Once
	packedImages []*Layout
)

// suiteImages builds both layouts of every benchmark in the suite, the
// same way sessions do, once per test binary: each with its packed static
// image (a kind byte per code slot and the rank-indexed direct targets).
func suiteImages(t *testing.T) []*Layout {
	t.Helper()
	packedOnce.Do(func() {
		for _, params := range workload.Suite() {
			prog := workload.Generate(params)
			prof := trace.CollectProfile(prog, 7, 200_000)
			packedImages = append(packedImages, Baseline(prog), Optimized(prog, prof))
		}
	})
	return packedImages
}

// TestDecodeTablesMatchOracle differentially checks the packed image's
// lookups (InstAt, FetchAt, StaticTarget) against a walk over the blocks in
// address order and their Slots that materializes each slot from its
// block, for both layouts of every benchmark, plus unmapped addresses on
// either side of the code segment.
func TestDecodeTablesMatchOracle(t *testing.T) {
	for _, l := range suiteImages(t) {
		name := l.Prog.Name + "/" + l.Name
		a := CodeBase
		for _, id := range l.addressOrder() {
			for off := 0; off < l.Slots(id); off, a = off+1, a.Next() {
				if start := l.Start(id).Plus(off); start != a {
					t.Fatalf("%s: block %d slot %d at %v, walk at %v", name, id, off, start, a)
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

// TestDecodeTableTargetsInSegment: every target the rank index returns for
// a direct branch must lie in the code segment.
func TestDecodeTableTargetsInSegment(t *testing.T) {
	for _, l := range suiteImages(t) {
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
	// ret returns a program of n instructions in return blocks of at
	// most 255 (no successors, so they lay out as is).
	ret := func(n int) *cfg.Program {
		p := &cfg.Program{}
		for ; n > 0; n -= math.MaxUint8 {
			k := min(n, math.MaxUint8)
			id := p.AddBlock(k, isa.BranchReturn)
			p.Classes(id)[k-1] = isa.ClassBranch
		}
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

	for _, n := range []int{1<<24 - 1, 1 << 24} {
		mustRefuse(t, "code segment of 2^24-1 slots or more", func() { Baseline(ret(n)) })
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
// largest benchmark, must be held in at most 2.1 MB of program and 0.9 MB
// per layout (measured: 1.80 MB program, 0.77 MB base, 0.76 MB optimized).
// A layout that kept a 4-byte decode word per slot would retain 1.42 MB.
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
		{"program", size(h0, h1), 2.1},
		{"base layout", size(h2, h3), 0.9},
		{"optimized layout", size(h3, h4), 0.9},
	} {
		t.Logf("176.gcc %s: %.2f MB retained", c.what, c.got)
		if c.got > c.limit {
			t.Errorf("176.gcc %s retains %.2f MB, limit %g MB", c.what, c.got, c.limit)
		}
	}
}

// TestSuiteLayoutFootprint guards what a daemon holding both layouts of
// every benchmark resident pays for them, beside the programs: the static
// image, 1 + 1/8 + 4/64 bytes per code slot (kind byte, direct bitmap,
// rank) and 4 per direct branch, and 5 bytes per block (start, shape).
// The suite's 22 layouts must retain at most 9.0 MB (measured: 7.85 MB;
// with a 4-byte decode word per slot they retained 14.65 MB).
func TestSuiteLayoutFootprint(t *testing.T) {
	const mb, limit = 1e6, 9.0
	var layouts []*Layout
	var retained uint64
	blocks, slots, direct := 0, 0, 0
	for _, params := range workload.Suite() {
		prog := workload.Generate(params)
		prof := trace.CollectProfile(prog, 7, 200_000)
		h0 := retainedHeap()
		layouts = append(layouts, Baseline(prog), Optimized(prog, prof))
		retained += retainedHeap() - h0
		runtime.KeepAlive(prof)
		for _, l := range layouts[len(layouts)-2:] {
			blocks += l.Prog.NumBlocks()
			slots += l.TotalSlots()
			direct += len(l.targets)
		}
	}
	runtime.KeepAlive(layouts)
	got := float64(retained) / mb
	image := float64(slots)*(1+1.0/8+4.0/64) + 4*float64(direct)
	t.Logf("%d layouts, %d blocks, %d slots, %d direct branches: %.2f MB retained, %.2f MB of it image, %.1f bytes per block beyond the image",
		len(layouts), blocks, slots, direct, got, image/mb, (float64(retained)-image)/float64(blocks))
	if got > limit {
		t.Errorf("the suite's layouts retain %.2f MB, limit %g MB", got, limit)
	}
}
