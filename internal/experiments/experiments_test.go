package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"streamfetch/internal/store"
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
	c := smallConfig()
	c.Engines = []string{"streams"}
	cells, err := sweep(context.Background(), c, nil, []string{"base", "optimized"}, 4)
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

// TestSweepUnknownEngine: a bad engine name is an error from RunSweep, not
// a panic inside a worker goroutine.
func TestSweepUnknownEngine(t *testing.T) {
	c := smallConfig()
	c.Engines = []string{"warp-drive"}
	_, err := sweep(context.Background(), c, nil, []string{"base"}, 4)
	if err == nil {
		t.Fatal("RunSweep with unknown engine did not error")
	}
	if !strings.Contains(err.Error(), "warp-drive") {
		t.Errorf("error does not identify the failing engine: %v", err)
	}
}

// TestSweepCancellation: cancelling mid-sweep returns the whole grid with
// ctx.Err: finished cells carry their report, cut-off and never-reached
// cells a nil one. The worker pool leaks no goroutines.
func TestSweepCancellation(t *testing.T) {
	c := smallConfig()
	c.TraceInsts = 400_000
	c.Engines = []string{"ev8", "ftb", "streams", "tcache"}
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	// Cancel after a short head start so some jobs complete and some are
	// cut off mid-flight.
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	cells, err := sweep(ctx, c, nil, []string{"base", "optimized"}, 8)
	if err == nil {
		t.Skip("sweep finished before cancellation; nothing to assert")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(cells) != 8 {
		t.Fatalf("cancelled sweep returned %d cells, want the whole grid of 8", len(cells))
	}
	unanswered := 0
	for _, cell := range cells {
		switch {
		case cell.Report == nil:
			unanswered++
		case cell.Report.Aborted || cell.Error != "":
			t.Fatalf("partial sweep returned an incomplete cell: %+v", cell)
		}
	}
	if unanswered == 0 {
		t.Error("cancelled sweep answered every cell")
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

// countingStore counts the blob reads it answers and the blobs written
// through it.
type countingStore struct {
	store.Store
	hits, puts atomic.Int64
}

func (s *countingStore) GetBlob(key string) ([]byte, bool, error) {
	blob, ok, err := s.Store.GetBlob(key)
	if ok {
		s.hits.Add(1)
	}
	return blob, ok, err
}

func (s *countingStore) PutBlob(key string, data []byte) error {
	s.puts.Add(1)
	return s.Store.PutBlob(key, data)
}

// TestRunSweepStore: a second RunSweep over the same store answers every
// cell from it, writes nothing and returns the first run's cells byte for
// byte, also from an FS store reopened in between, as two cmd/experiments
// runs with one -store directory see it; and Figure 9 and Table 3 after
// Figure 8 on one store simulate nothing.
func TestRunSweepStore(t *testing.T) {
	ctx := context.Background()
	c := figuresConfig()
	st := &countingStore{Store: store.NewMem()}
	first, err := sweep(ctx, c, st, []string{"base", "optimized"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.puts.Load(); got != int64(len(first)) {
		t.Fatalf("first sweep stored %d of %d cells", got, len(first))
	}
	st.hits.Store(0)
	st.puts.Store(0)
	second, err := sweep(ctx, c, st, []string{"base", "optimized"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if hits, puts := st.hits.Load(), st.puts.Load(); hits != int64(len(second)) || puts != 0 {
		t.Fatalf("second sweep: %d of %d cells from the store, %d writes; want all, 0", hits, len(second), puts)
	}
	a, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("stored cells differ from simulated ones\nfirst:  %s\nsecond: %s", a, b)
	}

	dir := t.TempDir()
	for run := range 2 {
		fs, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		disk := &countingStore{Store: fs}
		cells, err := sweep(ctx, c, disk, []string{"base", "optimized"}, 8)
		if err := errors.Join(err, fs.Close()); err != nil {
			t.Fatal(err)
		}
		wantHits, wantPuts := int64(len(cells)), int64(0)
		if run == 0 {
			wantHits, wantPuts = 0, int64(len(cells))
		}
		if hits, puts := disk.hits.Load(), disk.puts.Load(); hits != wantHits || puts != wantPuts {
			t.Fatalf("FS store, run %d: %d cells from the store, %d writes; want %d, %d",
				run, hits, puts, wantHits, wantPuts)
		}
		if got, err := json.Marshal(cells); err != nil || !bytes.Equal(got, a) {
			t.Fatalf("FS store, run %d: cells differ from the in-memory sweep (%v)\ngot:  %s\nwant: %s", run, err, got, a)
		}
	}

	figs := &countingStore{Store: store.NewMem()}
	if _, err := Fig8Data(ctx, c, figs); err != nil {
		t.Fatal(err)
	}
	figs.hits.Store(0)
	figs.puts.Store(0)
	if _, err := Fig9Data(ctx, c, figs); err != nil {
		t.Fatal(err)
	}
	if _, err := Table3Data(ctx, c, figs); err != nil {
		t.Fatal(err)
	}
	// Figure 9 is 2 benchmarks x 4 engines, Table 3 twice that (both
	// layouts).
	if hits, puts := figs.hits.Load(), figs.puts.Load(); hits != 8+16 || puts != 0 {
		t.Fatalf("Figure 9 and Table 3 after Figure 8: %d cells from the store, %d writes; want 24, 0", hits, puts)
	}
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

// figuresConfig is the small scale TestFiguresPinned renders at: two
// benchmarks and all four engines.
func figuresConfig() Config {
	c := DefaultConfig()
	c.TraceInsts = 60_000
	c.TrainInsts = 20_000
	c.Benchmarks = []string{"164.gzip", "176.gcc"}
	c.Engines = []string{"ev8", "ftb", "streams", "tcache"}
	return c
}

// TestFiguresPinned renders Figure 8, Figure 9 and Table 3 as text and
// compares them byte for byte with testdata/figures.golden, so a change
// to how the grids are computed cannot move a printed figure.
func TestFiguresPinned(t *testing.T) {
	got := renderFigures(t, figuresConfig())
	want, err := os.ReadFile(filepath.Join("testdata", "figures.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("figures diverged from testdata/figures.golden\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// renderFigures computes Figure 8, Figure 9 and Table 3 for c and renders
// them as cmd/experiments prints them.
func renderFigures(t *testing.T, c Config) string {
	t.Helper()
	ctx := context.Background()
	st := store.NewMem()
	exps, err := Fig8Data(ctx, c, st)
	if err != nil {
		t.Fatal(err)
	}
	fig9, err := Fig9Data(ctx, c, st)
	if err != nil {
		t.Fatal(err)
	}
	table3, err := Table3Data(ctx, c, st)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for i, e := range append(exps, fig9, table3) {
		if i > 0 {
			buf.WriteByte('\n')
		}
		e.WriteText(&buf)
	}
	return buf.String()
}
