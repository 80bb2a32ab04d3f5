package pipeline_test

import (
	"context"
	"testing"

	"streamfetch/internal/ckpt"
	"streamfetch/internal/layout"
	"streamfetch/internal/sim"
	"streamfetch/internal/trace"
	"streamfetch/internal/workload"
)

// TestCheckpointSize guards the size of a warm-state checkpoint: a 176.gcc
// snapshot (optimized layout, width 8, streams, the session's default
// seeds) at a 4M-instruction boundary encodes under 600 KB, and its
// generator section holds only the executed slots: at most 24 bytes plus
// 16 per non-zero counter or overflow entry.
func TestCheckpointSize(t *testing.T) {
	params, err := workload.ByName("176.gcc")
	if err != nil {
		t.Fatal(err)
	}
	const insts, boundary = 8_000_000, 4_000_000
	prog := workload.Generate(params)
	lay := layout.Optimized(prog, trace.CollectProfile(prog, 7, insts/4))
	p, err := sim.New(lay, trace.NewGenSource(prog, trace.GenConfig{Seed: 99, MaxInsts: insts}),
		sim.Config{Width: 8, Engine: "streams"})
	if err != nil {
		t.Fatal(err)
	}
	var blob, gen, engine []byte
	var entries int
	err = p.WarmPrefix(context.Background(), []uint64{boundary}, func(int, uint64) error {
		eng := p.Engine()
		engine = eng.AppendWarmState(nil)
		blob = ckpt.Encode(nil, boundary, p.Hier(), p.Gen(), eng.Name(), engine)
		gen = p.Gen().AppendState(nil)
		entries = p.Gen().StateEntries()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	hier := len(p.Hier().AppendState(nil))
	t.Logf("176.gcc snapshot at %d: %d bytes (hierarchy %d, engine %d, generator %d for %d executed slots of %d)",
		boundary, len(blob), hier, len(engine), len(gen), entries, lay.TotalSlots())
	if len(blob) >= 600_000 {
		t.Errorf("snapshot is %d bytes, limit 600 KB", len(blob))
	}
	if limit := 24 + 16*entries; len(gen) > limit {
		t.Errorf("generator section is %d bytes for %d entries, limit %d", len(gen), entries, limit)
	}
}
