package sim

import (
	"runtime"
	"testing"

	"streamfetch/internal/trace"
)

// TestProcessorFootprint guards what one run allocates beside its
// prepared layout: a 20k-instruction run of 176.gcc (optimized layout,
// width 8), generated on the fly, allocates at most 1.5 MB for every
// engine. The load address generator's counters and the trace
// generator's branch state are paged by the code the run touches; one
// counter per code slot and one branch state per block cost 2.7 MB here.
func TestProcessorFootprint(t *testing.T) {
	const insts, limit = 20_000, 1_500_000
	b := loadBench(t, "176.gcc", insts)
	for _, engine := range paperEngines() {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		src := trace.NewGenSource(b.opt.Prog, trace.GenConfig{Seed: 99, MaxInsts: insts})
		p, err := New(b.opt, src, Config{Width: 8, Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		res := p.Run()
		runtime.ReadMemStats(&after)
		if res.Retired == 0 {
			t.Fatalf("%s retired nothing", engine)
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d bytes allocated", engine, alloc)
		if alloc > limit {
			t.Errorf("%s: a %d-instruction run allocates %d bytes, limit %d", engine, insts, alloc, limit)
		}
	}
}
