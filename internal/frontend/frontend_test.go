package frontend

import (
	"errors"
	"testing"

	"streamfetch/internal/cache"
	"streamfetch/internal/cfg"
	"streamfetch/internal/ckpt/wire"
	"streamfetch/internal/isa"
	"streamfetch/internal/layout"
	"streamfetch/internal/trace"
	"streamfetch/internal/workload"
)

func testImage(t testing.TB) (*layout.Layout, *cache.Hierarchy) {
	t.Helper()
	p, err := workload.ByName("164.gzip")
	if err != nil {
		t.Fatal(err)
	}
	prog := workload.Generate(p)
	lay := layout.Baseline(prog)
	return lay, cache.NewHierarchy(cache.DefaultHierarchy(8))
}

func TestFTQBasics(t *testing.T) {
	q := NewFTQ(2)
	if !q.Empty() || q.Full() {
		t.Fatal("fresh FTQ state wrong")
	}
	q.Push(Request{Start: 0x100, Len: 4})
	q.Push(Request{Start: 0x200, Len: 8})
	if !q.Full() || q.Len() != 2 {
		t.Fatal("FTQ should be full")
	}
	if q.Front().Start != 0x100 {
		t.Fatal("front is not the oldest request")
	}
	q.Pop()
	if q.Front().Start != 0x200 {
		t.Fatal("pop did not advance")
	}
	q.Clear()
	if !q.Empty() {
		t.Fatal("clear did not empty the queue")
	}
}

func TestFTQPushFullPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("push to full FTQ did not panic")
		}
	}()
	q := NewFTQ(1)
	q.Push(Request{})
	q.Push(Request{})
}

func TestICacheFetcherWidthAndLineLimits(t *testing.T) {
	lay, hier := testImage(t)
	f := &ICacheFetcher{Hier: hier, Image: lay, Width: 8}
	start := layout.CodeBase
	req := Request{Start: start, Len: 64}
	var out []FetchedInst
	var done bool
	// First access misses in the cold cache: stalls, no delivery.
	out, done = f.Cycle(&req, out)
	if len(out) != 0 || done {
		t.Fatalf("cold access delivered %d insts done=%v", len(out), done)
	}
	// Drain the miss stall.
	for i := 0; i < 200 && len(out) == 0; i++ {
		out, done = f.Cycle(&req, out)
	}
	if len(out) == 0 {
		t.Fatal("fetcher never delivered after miss")
	}
	if len(out) > 8 {
		t.Fatalf("delivered %d > width", len(out))
	}
	for i, fi := range out {
		if fi.Addr != start.Plus(i) {
			t.Fatalf("inst %d at %v, want sequential", i, fi.Addr)
		}
	}
}

func TestICacheFetcherRequestUpdate(t *testing.T) {
	lay, hier := testImage(t)
	f := &ICacheFetcher{Hier: hier, Image: lay, Width: 4}
	hier.ICache.Access(layout.CodeBase) // pre-warm
	req := Request{Start: layout.CodeBase, Len: 10}
	var out []FetchedInst
	out, done := f.Cycle(&req, out)
	if done {
		t.Fatal("10-instruction request done after one 4-wide cycle")
	}
	if req.Len != 10-len(out) {
		t.Fatalf("request not updated: len=%d delivered=%d", req.Len, len(out))
	}
	if req.Start != layout.CodeBase.Plus(len(out)) {
		t.Fatalf("request start not advanced: %v", req.Start)
	}
}

func TestCycleFTQMergesContiguousRequests(t *testing.T) {
	lay, hier := testImage(t)
	f := &ICacheFetcher{Hier: hier, Image: lay, Width: 8}
	hier.ICache.Access(layout.CodeBase)
	q := NewFTQ(4)
	q.Push(Request{Start: layout.CodeBase, Len: 3})
	q.Push(Request{Start: layout.CodeBase.Plus(3), Len: 3})
	out := f.CycleFTQ(q, nil)
	if len(out) != 6 {
		t.Fatalf("delivered %d, want 6 (two merged contiguous blocks)", len(out))
	}
	if !q.Empty() {
		t.Fatal("merged requests not consumed")
	}
}

func TestCycleFTQDoesNotMergeDiscontiguous(t *testing.T) {
	lay, hier := testImage(t)
	f := &ICacheFetcher{Hier: hier, Image: lay, Width: 8}
	hier.ICache.Access(layout.CodeBase)
	hier.ICache.Access(layout.CodeBase.Plus(64))
	q := NewFTQ(4)
	q.Push(Request{Start: layout.CodeBase, Len: 3})
	q.Push(Request{Start: layout.CodeBase.Plus(64), Len: 3}) // elsewhere
	out := f.CycleFTQ(q, nil)
	if len(out) != 3 {
		t.Fatalf("delivered %d, want 3 (no merge across a jump)", len(out))
	}
	if q.Len() != 1 {
		t.Fatalf("queue length %d, want 1", q.Len())
	}
}

func buildEngines(t testing.TB) []Engine {
	t.Helper()
	p, _ := workload.ByName("164.gzip")
	prog := workload.Generate(p)
	lay := layout.Baseline(prog)
	entry := lay.Start(prog.Entry)
	return []Engine{
		NewEV8Engine(DefaultEV8Config(), cache.NewHierarchy(cache.DefaultHierarchy(8)), lay, 8, entry),
		NewFTBEngine(DefaultFTBConfig(), cache.NewHierarchy(cache.DefaultHierarchy(8)), lay, 8, entry),
		NewStreamEngine(DefaultStreamConfig(), cache.NewHierarchy(cache.DefaultHierarchy(8)), lay, 8, entry),
		NewTraceCacheEngine(DefaultTCConfig(), cache.NewHierarchy(cache.DefaultHierarchy(8)), lay, 8, entry),
	}
}

// TestEnginesDeliverBoundedGroups: no engine may exceed the pipe width in a
// single cycle, and all must make progress within a bounded number of
// cycles.
func TestEnginesDeliverBoundedGroups(t *testing.T) {
	for _, e := range buildEngines(t) {
		t.Run(e.Name(), func(t *testing.T) {
			delivered := 0
			for cycle := 0; cycle < 1000; cycle++ {
				out := e.Cycle(nil)
				if len(out) > 8 {
					t.Fatalf("cycle delivered %d > width", len(out))
				}
				delivered += len(out)
			}
			if delivered == 0 {
				t.Fatal("engine never delivered an instruction")
			}
		})
	}
}

// TestEnginesRedirect: after a redirect, the next delivered instruction must
// be at the redirect target.
func TestEnginesRedirect(t *testing.T) {
	p, _ := workload.ByName("164.gzip")
	prog := workload.Generate(p)
	lay := layout.Baseline(prog)
	target := lay.Start(prog.Procs[1].Entry)
	for _, e := range buildEngines(t) {
		t.Run(e.Name(), func(t *testing.T) {
			for i := 0; i < 20; i++ {
				e.Cycle(nil)
			}
			e.Redirect(target, true)
			var first *FetchedInst
			for cycle := 0; cycle < 500 && first == nil; cycle++ {
				out := e.Cycle(nil)
				if len(out) > 0 {
					first = &out[0]
				}
			}
			if first == nil {
				t.Fatal("no delivery after redirect")
			}
			if first.Addr != target {
				t.Fatalf("first instruction after redirect at %v, want %v", first.Addr, target)
			}
		})
	}
}

// TestEnginesCommitTolerant: engines must absorb a realistic committed
// stream without panicking and keep fetch statistics consistent.
func TestEnginesCommitTolerant(t *testing.T) {
	p, _ := workload.ByName("164.gzip")
	prog := workload.Generate(p)
	lay := layout.Baseline(prog)
	tr := trace.Generate(prog, trace.GenConfig{Seed: 3, MaxInsts: 20_000})
	for _, e := range buildEngines(t) {
		t.Run(e.Name(), func(t *testing.T) {
			var buf []layout.DynInst
			for i, id := range tr.Blocks {
				next := nextBlock(tr, i)
				buf = lay.AppendDyn(buf[:0], id, next)
				for _, d := range buf {
					tgt := isa.Addr(0)
					if d.Taken {
						tgt = d.NextAddr
					}
					e.Commit(Committed{Addr: d.Addr, Branch: d.Branch, Taken: d.Taken, Target: tgt})
				}
			}
			s := e.FetchStats()
			if s.Delivered != 0 && s.DeliveryCycles == 0 {
				t.Fatal("inconsistent fetch stats")
			}
		})
	}
}

func nextBlock(tr *trace.Trace, i int) cfg.BlockID {
	if i+1 < len(tr.Blocks) {
		return tr.Blocks[i+1]
	}
	return cfg.NoBlock
}

// TestFTBWarmStateRejectsMisalignedBlockStart: commit-side block tracking
// restored between instructions would train blocks of nonsense lengths.
func TestFTBWarmStateRejectsMisalignedBlockStart(t *testing.T) {
	lay, hier := testImage(t)
	entry := lay.Start(lay.Prog.Entry)
	e := NewFTBEngine(DefaultFTBConfig(), hier, lay, 8, entry)
	e.commitBlockStart = entry + 2
	fresh := NewFTBEngine(DefaultFTBConfig(), cache.NewHierarchy(cache.DefaultHierarchy(8)), lay, 8, entry)
	if err := fresh.LoadWarmState(e.AppendWarmState(nil)); !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("LoadWarmState = %v, want %v", err, wire.ErrMalformed)
	}
	if fresh.commitBlockStart != entry {
		t.Fatalf("rejected state moved the block start to %v", fresh.commitBlockStart)
	}
}
