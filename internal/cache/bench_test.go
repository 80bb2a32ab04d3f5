package cache_test

import (
	"context"
	"testing"

	"streamfetch/internal/cache"
	"streamfetch/internal/ckpt/wire"
	"streamfetch/internal/layout"
	"streamfetch/internal/sim"
	"streamfetch/internal/trace"
	"streamfetch/internal/workload"
)

// BenchmarkCacheLoadState restores the width-8 default hierarchy (17,920
// ways) from the state a streams run of 176.gcc warms into it over its
// first million instructions, as a sampled or sharded run restores every
// interval after the first. Most of that state is two- and three-byte
// varints.
func BenchmarkCacheLoadState(b *testing.B) {
	params, err := workload.ByName("176.gcc")
	if err != nil {
		b.Fatal(err)
	}
	prog := workload.Generate(params)
	p, err := sim.New(layout.Baseline(prog), trace.NewGenSource(prog, trace.GenConfig{Seed: 99, MaxInsts: 2_000_000}),
		sim.Config{Width: 8, Engine: "streams"})
	if err != nil {
		b.Fatal(err)
	}
	var state []byte
	if err := p.WarmPrefix(context.Background(), []uint64{1_000_000}, func(int, uint64) error {
		state = p.Hier().AppendState(nil)
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	h := cache.NewHierarchy(cache.DefaultHierarchy(8))
	b.SetBytes(int64(len(state)))
	b.ReportAllocs()
	for b.Loop() {
		if err := h.LoadState(wire.NewReader(state)); err != nil {
			b.Fatal(err)
		}
	}
}
