package sim

import (
	"fmt"
	"reflect"
	"testing"

	"streamfetch/internal/layout"
	"streamfetch/internal/trace"
	"streamfetch/internal/workload"
)

// counterLeaves calls visit with the path and value of every uint64 leaf
// of the counter block v, in field order, descending into nested structs
// and arrays. Any other leaf kind fails the test: a counter must be a
// uint64 for Merge and Delta to cover it.
func counterLeaves(t *testing.T, v reflect.Value, path string, visit func(path string, leaf reflect.Value)) {
	t.Helper()
	switch v.Kind() {
	case reflect.Uint64:
		visit(path, v)
	case reflect.Struct:
		for i := range v.NumField() {
			counterLeaves(t, v.Field(i), path+"."+v.Type().Field(i).Name, visit)
		}
	case reflect.Array:
		for i := range v.Len() {
			counterLeaves(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), visit)
		}
	default:
		t.Fatalf("counter leaf %s is a %s, not a uint64", path, v.Type())
	}
}

// TestCountersMergeDelta: Merge adds and Delta subtracts every counter
// leaf. Both operands are filled by reflection with distinct values, so
// a counter added to Counters (or to FetchStats or cache.Stats) that the
// walk misses fails here instead of silently merging as zero.
func TestCountersMergeDelta(t *testing.T) {
	var a, b Counters
	n := uint64(0)
	counterLeaves(t, reflect.ValueOf(&a).Elem(), "Counters", func(_ string, leaf reflect.Value) {
		n++
		leaf.SetUint(n)
	})
	counterLeaves(t, reflect.ValueOf(&b).Elem(), "Counters", func(_ string, leaf reflect.Value) {
		leaf.SetUint(1000 * n)
		n--
	})

	sum := a
	sum.Merge(b)
	want := map[string]uint64{}
	counterLeaves(t, reflect.ValueOf(a), "Counters", func(path string, leaf reflect.Value) {
		want[path] = leaf.Uint()
	})
	counterLeaves(t, reflect.ValueOf(b), "Counters", func(path string, leaf reflect.Value) {
		want[path] += leaf.Uint()
	})
	counterLeaves(t, reflect.ValueOf(sum), "Counters", func(path string, leaf reflect.Value) {
		if leaf.Uint() != want[path] {
			t.Errorf("Merge: %s = %d, want %d", path, leaf.Uint(), want[path])
		}
	})

	if back := sum.Delta(b); back != a {
		t.Errorf("Delta(Merge(a, b), b) = %+v, want %+v", back, a)
	}

	r := Counters{Cycles: 100, Retired: 80, Branches: 20, Mispredicted: 3}
	if got := r.IPC(); got != 0.8 {
		t.Fatalf("IPC = %v", got)
	}
	if got := r.MispredRate(); got != 0.15 {
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
	if warm.IPC() <= 0 {
		t.Fatalf("warm interval IPC %v, want positive", warm.IPC())
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

// TestCombineRejectsNonCounterLeaf: a leaf that is not a uint64 cannot
// be merged or subtracted, so the walk panics instead of skipping it.
func TestCombineRejectsNonCounterLeaf(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("combine accepted a float64 leaf")
		}
	}()
	var v struct {
		N uint64
		F float64
	}
	combine(reflect.ValueOf(&v).Elem(), reflect.ValueOf(v), func(a, b uint64) uint64 { return a + b })
}
