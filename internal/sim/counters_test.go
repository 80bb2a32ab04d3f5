package sim

import (
	"testing"

	"streamfetch/internal/cache"
	"streamfetch/internal/frontend"
	"streamfetch/internal/layout"
	"streamfetch/internal/trace"
	"streamfetch/internal/workload"
)

// TestCountersMergeDelta: Merge and Delta are inverse accumulations over
// every field, and Reset zeroes the block.
func TestCountersMergeDelta(t *testing.T) {
	a := Counters{
		Cycles: 100, Retired: 80, Branches: 20, Mispredicted: 3,
		Misfetches: 2,
		Fetch:      frontend.FetchStats{Delivered: 90, Cycles: 100, DeliveryCycles: 70, Units: 10, UnitInsts: 85, PredictorLookups: 12, PredictorHits: 9},
		ICache:     cache.Stats{Accesses: 50, Misses: 4},
		DCache:     cache.Stats{Accesses: 30, Misses: 2},
		L2:         cache.Stats{Accesses: 6, Misses: 1},
	}
	a.MispredByType[2] = 3
	b := a
	b.Cycles, b.Retired = 40, 33
	b.MispredByType[5] = 7

	sum := a
	sum.Merge(b)
	if sum.Cycles != 140 || sum.Retired != 113 || sum.Branches != 40 ||
		sum.MispredByType[2] != 6 || sum.MispredByType[5] != 7 ||
		sum.Fetch.Delivered != 180 || sum.ICache.Misses != 8 || sum.L2.Accesses != 12 {
		t.Fatalf("Merge: %+v", sum)
	}
	back := sum.Delta(b)
	if back != a {
		t.Fatalf("Delta(Merge(a,b), b) = %+v, want %+v", back, a)
	}
	sum.Reset()
	if sum != (Counters{}) {
		t.Fatalf("Reset left %+v", sum)
	}
	if got := a.IPC(); got != 0.8 {
		t.Fatalf("IPC = %v", got)
	}
	if got := a.MispredRate(); got != 0.15 {
		t.Fatalf("MispredRate = %v", got)
	}
}

// warmRun simulates one interval of the gzip trace and returns the result.
func warmRun(t *testing.T, start, end, warmup uint64) Result {
	t.Helper()
	params, err := workload.ByName("164.gzip")
	if err != nil {
		t.Fatal(err)
	}
	prog := workload.Generate(params)
	lay := layout.Baseline(prog)
	gc := trace.GenConfig{Seed: 3, MaxInsts: 200_000}
	iv, err := trace.NewInterval(trace.NewGenSource(prog, gc), 0, prog,
		trace.IntervalConfig{Start: start, End: end, Warmup: warmup})
	if err != nil {
		t.Fatal(err)
	}
	res := Run(lay, iv, Config{Width: 8, Engine: "streams"})
	if err := iv.Close(); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestWarmupSplit: a warmed interval retires exactly the instructions of
// its measure window — the same count a cold run of the window retires —
// while the warmup phase's counters land in Warmup, not Counters.
func TestWarmupSplit(t *testing.T) {
	cold := warmRun(t, 100_000, 150_000, 0)
	warm := warmRun(t, 100_000, 150_000, 30_000)

	if cold.Warmup != (Counters{}) {
		t.Fatalf("cold run reports warmup counters: %+v", cold.Warmup)
	}
	if warm.Warmup.Retired == 0 || warm.Warmup.Cycles == 0 {
		t.Fatalf("warm run froze nothing: %+v", warm.Warmup)
	}
	if warm.Retired != cold.Retired {
		t.Fatalf("measured Retired: warm %d, cold %d (must cover the identical window)",
			warm.Retired, cold.Retired)
	}
	if warm.Cycles == 0 || warm.Cycles >= warm.Warmup.Cycles+warm.Cycles {
		// The measured cycle count excludes warmup cycles entirely.
		t.Fatalf("measured cycles not split: measured %d, warmup %d", warm.Cycles, warm.Warmup.Cycles)
	}
	// The warm ICache should not re-miss its working set: strictly fewer
	// measured misses than a cold start of the same window.
	if warm.ICache.Misses >= cold.ICache.Misses {
		t.Logf("note: warm icache misses %d >= cold %d", warm.ICache.Misses, cold.ICache.Misses)
	}
	if warm.IPC <= 0 || warm.IPC != warm.Counters.IPC() {
		t.Fatalf("derived IPC inconsistent: %v vs %v", warm.IPC, warm.Counters.IPC())
	}
}

// TestWarmupZeroMatchesPlain: wrapping the whole trace in an interval with
// no skip and no warmup is invisible — every counter matches the plain run.
func TestWarmupZeroMatchesPlain(t *testing.T) {
	params, err := workload.ByName("164.gzip")
	if err != nil {
		t.Fatal(err)
	}
	prog := workload.Generate(params)
	lay := layout.Baseline(prog)
	gc := trace.GenConfig{Seed: 3, MaxInsts: 100_000}

	plain := Run(lay, trace.NewGenSource(prog, gc), Config{Width: 8, Engine: "streams"})
	iv, err := trace.NewInterval(trace.NewGenSource(prog, gc), 0, prog, trace.IntervalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	wrapped := Run(lay, iv, Config{Width: 8, Engine: "streams"})
	if plain.Counters != wrapped.Counters {
		t.Fatalf("interval wrapper changed the run:\nplain   %+v\nwrapped %+v",
			plain.Counters, wrapped.Counters)
	}
}
