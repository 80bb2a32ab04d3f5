package experiments

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

func smallConfig() Config {
	c := DefaultConfig()
	c.TraceInsts = 60_000
	c.TrainInsts = 20_000
	c.Benchmarks = []string{"164.gzip"}
	return c
}

func mustPrepare(t *testing.T, c Config) []Bench {
	t.Helper()
	benches, err := Prepare(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	return benches
}

func TestPrepare(t *testing.T) {
	c := smallConfig()
	benches := mustPrepare(t, c)
	if len(benches) != 1 {
		t.Fatalf("prepared %d benches", len(benches))
	}
	b := benches[0]
	if b.Session == nil || b.Prog == nil || b.Base == nil || b.Opt == nil {
		t.Fatal("incomplete bench")
	}
	if err := b.Base.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := b.Opt.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPrepareUnknownBenchmark: failures surface as errors, not panics.
func TestPrepareUnknownBenchmark(t *testing.T) {
	c := smallConfig()
	c.Benchmarks = []string{"999.nope"}
	if _, err := Prepare(context.Background(), c); err == nil {
		t.Fatal("Prepare with unknown benchmark did not error")
	}
}

func TestSweepAndHarmonic(t *testing.T) {
	benches := mustPrepare(t, smallConfig())
	cells, err := Sweep(context.Background(), benches, 4,
		[]string{"base", "optimized"}, []string{"streams"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("sweep returned %d cells", len(cells))
	}
	h := HarmonicIPC(cells)
	for _, l := range []string{"base", "optimized"} {
		v := h[[2]string{l, "streams"}]
		if v <= 0 || v > 8 {
			t.Fatalf("%s IPC %v implausible", l, v)
		}
	}
}

// TestSweepUnknownEngine: a bad engine name is an error from Sweep, not a
// panic inside a worker goroutine.
func TestSweepUnknownEngine(t *testing.T) {
	benches := mustPrepare(t, smallConfig())
	_, err := Sweep(context.Background(), benches, 4,
		[]string{"base"}, []string{"warp-drive"}, true)
	if err == nil {
		t.Fatal("Sweep with unknown engine did not error")
	}
	if !strings.Contains(err.Error(), "warp-drive") {
		t.Errorf("error does not identify the failing job: %v", err)
	}
}

// TestSweepCancellation: cancelling mid-sweep returns the cells completed
// so far with ctx.Err, and the worker pool leaks no goroutines.
func TestSweepCancellation(t *testing.T) {
	c := smallConfig()
	c.TraceInsts = 400_000
	benches := mustPrepare(t, c)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	// Cancel after a short head start so some jobs complete and some are
	// cut off mid-flight.
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	cells, err := Sweep(ctx, benches, 8,
		[]string{"base", "optimized"},
		[]string{"ev8", "ftb", "streams", "tcache"}, true)
	if err == nil {
		t.Skip("sweep finished before cancellation; nothing to assert")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(cells) >= 8 {
		t.Errorf("cancelled sweep returned all %d cells", len(cells))
	}
	for _, cell := range cells {
		if cell.Result == nil {
			t.Fatal("partial sweep returned an incomplete cell")
		}
	}

	// Every worker must have joined: no goroutine leak.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before sweep, %d after", before, runtime.NumGoroutine())
}

func TestUnitSizesShape(t *testing.T) {
	benches := mustPrepare(t, smallConfig())
	src, err := benches[0].Session.Source()
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	u := UnitSizes(benches[0].Opt, src)
	if u.BasicBlock <= 0 || u.Stream <= 0 || u.Trace <= 0 {
		t.Fatalf("zero unit sizes: %+v", u)
	}
	// Table 1's ordering: basic block < trace, basic block < stream.
	if u.BasicBlock >= u.Stream {
		t.Errorf("basic block %.1f not smaller than stream %.1f", u.BasicBlock, u.Stream)
	}
	if u.BasicBlock >= u.Trace {
		t.Errorf("basic block %.1f not smaller than trace %.1f", u.BasicBlock, u.Trace)
	}
}

func TestTable2Renders(t *testing.T) {
	var buf bytes.Buffer
	Table2Data().WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"2bcgskew", "DOLC 12-2-4-10", "64KB", "16 stages"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 output missing %q", want)
		}
	}
}

func TestTable1Renders(t *testing.T) {
	benches := mustPrepare(t, smallConfig())
	e, err := Table1Data(benches)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	e.WriteText(&buf)
	if !strings.Contains(buf.String(), "stream") {
		t.Fatalf("Table 1 output: %q", buf.String())
	}
}
