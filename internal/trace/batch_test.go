package trace

import (
	"testing"

	"streamfetch/internal/cfg"
)

// TestNextBatchDifferential: on every backing, draining through NextBatch
// yields exactly the reference sequence — for batch sizes of one, a prime,
// exactly one file chunk, one past a chunk boundary, and far more than the
// trace holds.
func TestNextBatchDifferential(t *testing.T) {
	prog, tr := skipTrace(t)
	for _, size := range []int{1, 7, 64, chunkBlocks, chunkBlocks + 1, len(tr.Blocks) + 1000} {
		dst := make([]cfg.BlockID, size)
		for name, src := range sources(t, prog, tr) {
			got := 0
			for {
				n := src.NextBatch(dst)
				if n == 0 {
					break
				}
				if n < 0 || n > size {
					t.Fatalf("%s: NextBatch(len %d) = %d", name, size, n)
				}
				for i := 0; i < n; i++ {
					if got+i >= len(tr.Blocks) {
						t.Fatalf("%s: NextBatch(len %d) outlived the trace at block %d",
							name, size, got+i)
					}
					if dst[i] != tr.Blocks[got+i] {
						t.Fatalf("%s: NextBatch(len %d): block %d = %d, want %d",
							name, size, got+i, dst[i], tr.Blocks[got+i])
					}
				}
				got += n
			}
			if got != len(tr.Blocks) {
				t.Fatalf("%s: NextBatch(len %d) delivered %d blocks, want %d",
					name, size, got, len(tr.Blocks))
			}
			// Exhaustion is sticky: further batches stay empty.
			for range 2 {
				if n := src.NextBatch(dst); n != 0 {
					t.Fatalf("%s: NextBatch after EOF = %d", name, n)
				}
			}
			if err := src.Close(); err != nil {
				t.Fatalf("%s: Close: %v", name, err)
			}
		}
	}
}

// TestNextBatchEmptyDst: a zero-length destination returns 0 without
// consuming anything.
func TestNextBatchEmptyDst(t *testing.T) {
	prog, tr := skipTrace(t)
	for name, src := range sources(t, prog, tr) {
		if n := src.NextBatch(nil); n != 0 {
			t.Fatalf("%s: NextBatch(nil) = %d", name, n)
		}
		var head [1]cfg.BlockID
		if n := src.NextBatch(head[:]); n != 1 || head[0] != tr.Blocks[0] {
			t.Fatalf("%s: NextBatch(nil) consumed the head block", name)
		}
		if err := src.Close(); err != nil {
			t.Fatalf("%s: Close: %v", name, err)
		}
	}
}

// TestIntervalNextBatchRegions: interval batches never span a region
// boundary — every block of a batch shares the region LastRegion reports —
// and batched delivery matches the one-block-per-batch walk exactly.
func TestIntervalNextBatchRegions(t *testing.T) {
	prog, tr := skipTrace(t)

	type step struct {
		id  cfg.BlockID
		reg Region
	}
	walk := func(iv *IntervalSource, batch int) []step {
		var got []step
		dst := make([]cfg.BlockID, batch)
		for {
			n := iv.NextBatch(dst)
			if n == 0 {
				break
			}
			reg := iv.LastRegion()
			for i := 0; i < n; i++ {
				got = append(got, step{dst[i], reg})
			}
		}
		return got
	}

	mk := func() *IntervalSource {
		src := tr.Source()
		iv, err := NewInterval(src, 0, prog, IntervalConfig{
			Start: 60_000, End: 90_000, Warmup: 10_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		return iv
	}

	ref := walk(mk(), 1)
	for _, batch := range []int{13, 4096, len(tr.Blocks)} {
		got := walk(mk(), batch)
		if len(got) != len(ref) {
			t.Fatalf("batch %d: %d blocks, want %d", batch, len(got), len(ref))
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("batch %d: step %d = %+v, want %+v", batch, i, got[i], ref[i])
			}
		}
	}
}
