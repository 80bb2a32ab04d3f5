package sim

import (
	"testing"

	"streamfetch/internal/cache"
	"streamfetch/internal/frontend"
	"streamfetch/internal/isa"
)

// TestDecodeRedirectsCountedSeparately verifies misfetches (decode-stage
// fix-ups) are not counted as branch mispredictions.
func TestDecodeRedirectsCountedSeparately(t *testing.T) {
	b := loadBench(t, "164.gzip", 150_000)
	r := Run(b.opt, b.tr.Source(), Config{Width: 8, Engine: "streams"})
	if r.Misfetches == 0 {
		t.Skip("no misfetches in this configuration")
	}
	if r.Mispredicted > r.Branches {
		t.Fatalf("mispredicted %d > branches %d", r.Mispredicted, r.Branches)
	}
}

// TestEnginesSeeSameArchitecture: every engine must commit the same number
// of instructions and branches for the same trace and layout — the
// architectural path is engine-independent.
func TestEnginesSeeSameArchitecture(t *testing.T) {
	b := loadBench(t, "175.vpr", 120_000)
	var retired, branches []uint64
	for _, kind := range paperEngines() {
		r := Run(b.opt, b.tr.Source(), Config{Width: 8, Engine: kind})
		retired = append(retired, r.Retired)
		branches = append(branches, r.Branches)
	}
	for i := 1; i < len(retired); i++ {
		if retired[i] != retired[0] {
			t.Errorf("engine %s retired %d, engine %s retired %d",
				paperEngines()[i], retired[i], paperEngines()[0], retired[0])
		}
		if branches[i] != branches[0] {
			t.Errorf("engine %s committed %d branches, engine %s %d",
				paperEngines()[i], branches[i], paperEngines()[0], branches[0])
		}
	}
}

// TestWrongPathPollutesICache: wrong-path fetch must touch the instruction
// cache (the paper's simulator models wrong-path interference and
// prefetching); with mispredictions present, I-cache accesses must exceed
// the minimum needed for retired instructions alone.
func TestWrongPathPollutesICache(t *testing.T) {
	b := loadBench(t, "300.twolf", 150_000)
	r := Run(b.opt, b.tr.Source(), Config{Width: 8, Engine: "ev8"})
	if r.Mispredicted == 0 {
		t.Skip("no mispredictions")
	}
	if r.Fetch.Delivered <= r.Retired {
		t.Errorf("delivered %d <= retired %d: no wrong-path fetch happened",
			r.Fetch.Delivered, r.Retired)
	}
}

// TestBaseVsOptimizedBothComplete runs both layouts end to end.
func TestBaseVsOptimizedBothComplete(t *testing.T) {
	b := loadBench(t, "176.gcc", 120_000)
	rb := Run(b.lay, b.tr.Source(), Config{Width: 8, Engine: "streams"})
	ro := Run(b.opt, b.tr.Source(), Config{Width: 8, Engine: "streams"})
	if rb.Retired == 0 || ro.Retired == 0 {
		t.Fatal("a layout failed to complete")
	}
	// Dynamic instruction counts differ slightly (materialized/elided
	// jumps) but must stay within a few percent.
	lo, hi := rb.Retired, ro.Retired
	if lo > hi {
		lo, hi = hi, lo
	}
	if float64(hi-lo) > 0.1*float64(hi) {
		t.Errorf("layouts disagree on dynamic length: %d vs %d", rb.Retired, ro.Retired)
	}
}

// TestNarrowPipesCloseTogether reproduces the paper's 2-wide observation:
// with a narrow back-end all fetch engines perform within a few percent.
func TestNarrowPipesCloseTogether(t *testing.T) {
	b := loadBench(t, "164.gzip", 150_000)
	var ipcs []float64
	for _, kind := range paperEngines() {
		r := Run(b.opt, b.tr.Source(), Config{Width: 2, Engine: kind})
		ipcs = append(ipcs, r.IPC())
	}
	lo, hi := ipcs[0], ipcs[0]
	for _, v := range ipcs {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if (hi-lo)/hi > 0.10 {
		t.Errorf("2-wide engines spread %.1f%% apart (want <10%%): %v",
			100*(hi-lo)/hi, ipcs)
	}
}

// TestStreamEngineBeatsNoPredictor sanity check: the stream engine with its
// predictor must outperform a configuration whose predictor tables are
// minuscule (degenerating to sequential fetch + decode redirects).
func TestStreamEngineBeatsNoPredictor(t *testing.T) {
	b := loadBench(t, "164.gzip", 150_000)
	full := Run(b.opt, b.tr.Source(), Config{Width: 8, Engine: "streams"})
	sc := frontend.DefaultStreamConfig()
	sc.Predictor.FirstEntries = 8
	sc.Predictor.FirstWays = 2
	sc.Predictor.SecondEntries = 8
	sc.Predictor.SecondWays = 2
	small := Run(b.opt, b.tr.Source(), Config{Width: 8, Engine: "streams", EngineOptions: sc})
	t.Logf("full tables IPC=%.3f, 8-entry tables IPC=%.3f", full.IPC(), small.IPC())
	if full.IPC() <= small.IPC() {
		t.Errorf("full predictor (%.3f) not better than crippled (%.3f)", full.IPC(), small.IPC())
	}
}

// TestMispredictByTypeConsistency: the per-type breakdown must sum to the
// total.
func TestMispredictByTypeConsistency(t *testing.T) {
	b := loadBench(t, "253.perlbmk", 120_000)
	r := Run(b.opt, b.tr.Source(), Config{Width: 8, Engine: "tcache"})
	var sum uint64
	for _, v := range r.MispredByType {
		sum += v
	}
	if sum != r.Mispredicted {
		t.Fatalf("breakdown sums to %d, total %d", sum, r.Mispredicted)
	}
	if r.MispredByType[isa.BranchNone] != 0 {
		t.Fatal("non-branches counted as mispredicted")
	}
}

// TestDualBankOption: the §3.4 alternative (two 1x-width lines per cycle)
// must beat the single narrow line and run end to end.
func TestDualBankOption(t *testing.T) {
	b := loadBench(t, "164.gzip", 120_000)
	mk := func(banks int) Result {
		sc := frontend.DefaultStreamConfig()
		sc.ICacheBanks = banks
		c := Config{Width: 8, Engine: "streams", EngineOptions: sc}
		c.Hier = cache.DefaultHierarchy(8)
		c.Hier.ICache.LineBytes = 8 * 4 // 1x width
		return Run(b.opt, b.tr.Source(), c)
	}
	single := mk(1)
	dual := mk(2)
	t.Logf("1x line single=%.2f fetch IPC, dual-bank=%.2f", single.Fetch.FetchIPC(), dual.Fetch.FetchIPC())
	if dual.Fetch.FetchIPC() <= single.Fetch.FetchIPC() {
		t.Errorf("dual bank fetch IPC %.2f not above single %.2f",
			dual.Fetch.FetchIPC(), single.Fetch.FetchIPC())
	}
}
