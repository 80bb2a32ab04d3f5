package workload

import (
	"runtime"
	"testing"

	"streamfetch/internal/cfg"
)

// TestCodeFootprints verifies the suite spans small and large codes: the
// biggest benchmarks must overflow the 64KB instruction cache so layout
// optimization has an instruction-memory effect, as in the paper.
func TestCodeFootprints(t *testing.T) {
	small, large := 0, 0
	for _, p := range Suite() {
		prog := Generate(p)
		kb := prog.StaticInsts() * 4 / 1024
		t.Logf("%-14s %5d KB static code", p.Name, kb)
		if kb < 64 {
			small++
		}
		if kb > 128 {
			large++
		}
	}
	if large < 3 {
		t.Errorf("only %d benchmarks exceed 128KB of code", large)
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

// TestSuiteProgramFootprint guards what a daemon holding every benchmark's
// program resident pays: the 11 synthesized programs together must retain
// at most 16 MB.
func TestSuiteProgramFootprint(t *testing.T) {
	const mb, limit = 1e6, 16
	suite := Suite()
	progs := make([]*cfg.Program, 0, len(suite))
	blocks := 0
	h0 := retainedHeap()
	for _, p := range suite {
		prog := Generate(p)
		blocks += prog.NumBlocks()
		progs = append(progs, prog)
	}
	h1 := retainedHeap()
	runtime.KeepAlive(progs)
	got := float64(int64(h1-h0)) / mb
	t.Logf("%d programs, %d blocks: %.2f MB retained, %.1f bytes per block",
		len(progs), blocks, got, got*mb/float64(blocks))
	if got > limit {
		t.Errorf("the suite's programs retain %.2f MB, limit %d MB", got, limit)
	}
}
