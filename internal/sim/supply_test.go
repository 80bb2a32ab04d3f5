package sim

import (
	"testing"

	"streamfetch/internal/cfg"
	"streamfetch/internal/layout"
	"streamfetch/internal/trace"
)

// TestSupplyBatchedMatchesPerBlock: the batched supply delivers exactly the
// dynamic stream the per-block expansion produces, across fill boundaries
// and through the end of the trace.
func TestSupplyBatchedMatchesPerBlock(t *testing.T) {
	b := loadBench(t, "164.gzip", 200_000)

	var want []layout.DynInst
	for i, id := range b.tr.Blocks {
		next := cfg.NoBlock
		if i+1 < len(b.tr.Blocks) {
			next = b.tr.Blocks[i+1]
		}
		want = b.lay.AppendDyn(want, id, next)
	}

	src := b.tr.Source()
	d := dynSupply{lay: b.lay, src: src}
	d.initBatch()
	for i := 0; ; i++ {
		di := d.peek()
		if di == nil {
			if i != len(want) {
				t.Fatalf("supply ended at inst %d, want %d", i, len(want))
			}
			break
		}
		if i >= len(want) {
			t.Fatalf("supply outlived the %d-inst expansion", len(want))
		}
		if *di != want[i] {
			t.Fatalf("inst %d = %+v, want %+v", i, *di, want[i])
		}
		d.advance()
	}
	if d.peek() != nil {
		t.Fatal("exhausted supply revived")
	}
}

// TestSupplyBatchedAllocFree pins the supply's perf contract: after
// initBatch, the peek/advance/refill loop performs zero heap allocations —
// the block window, the dyn window and the source pull path are all
// reused storage.
func TestSupplyBatchedAllocFree(t *testing.T) {
	b := loadBench(t, "164.gzip", 4_000_000)
	src := b.tr.Source()
	d := dynSupply{lay: b.lay, src: src}
	d.initBatch()

	// One batch of warmup, then measure whole refills: each run drains
	// past several fill() boundaries.
	if d.peek() == nil {
		t.Fatal("empty supply")
	}
	step := func() {
		for i := 0; i < 10_000; i++ {
			if d.peek() == nil {
				t.Fatal("trace exhausted during measurement; enlarge the workload")
			}
			d.advance()
		}
	}
	if avg := testing.AllocsPerRun(50, step); avg != 0 {
		t.Fatalf("batched supply allocates %.2f objects per 10k instructions, want 0", avg)
	}
}

// TestSupplyWarmBatchedAllocFree pins the warm path's perf contract: a
// source with a timed-warmup lead-in pulls region-wise batches through the
// same reused block and dyn windows as the plain path, so the
// peek/advance/refill loop — timed warmup and measurement alike — performs
// zero heap allocations.
func TestSupplyWarmBatchedAllocFree(t *testing.T) {
	b := loadBench(t, "164.gzip", 4_000_000)
	src := b.tr.Source()
	iv, err := trace.NewInterval(src, 0, b.lay.Prog, trace.IntervalConfig{
		Start: 1_000_000, Warmup: 200_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer iv.Close()

	d := dynSupply{lay: b.lay, src: iv, warm: iv}
	d.initBatch()
	// Measurement starts inside the warmup lead-in and runs well past it.
	if d.peek() == nil {
		t.Fatal("empty supply")
	}
	step := func() {
		for i := 0; i < 10_000; i++ {
			if d.peek() == nil {
				t.Fatal("trace exhausted during measurement; enlarge the workload")
			}
			d.advance()
		}
	}
	if avg := testing.AllocsPerRun(50, step); avg != 0 {
		t.Fatalf("warm batched supply allocates %.2f objects per 10k instructions, want 0", avg)
	}
	if !d.crossed {
		t.Fatal("supply never crossed into the measure region")
	}
}

// TestSupplyWarmPathUnchanged: a source with lead-in regions routes through
// the per-block path and flags warmup instruction counts exactly as the
// interval accounting does.
func TestSupplyWarmPathUnchanged(t *testing.T) {
	b := loadBench(t, "164.gzip", 120_000)
	src := b.tr.Source()
	iv, err := trace.NewInterval(src, 0, b.lay.Prog, trace.IntervalConfig{Start: 40_000, Warmup: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	defer iv.Close()

	d := dynSupply{lay: b.lay, src: iv, warm: iv}
	d.initBatch()
	n := 0
	for {
		if d.peek() == nil {
			break
		}
		d.advance()
		n++
	}
	if !d.crossed {
		t.Fatal("supply never crossed into the measure region")
	}
	if d.warmDyn == 0 || uint64(n) <= d.warmDyn {
		t.Fatalf("warmDyn = %d of %d delivered insts", d.warmDyn, n)
	}
}
