// Package experiments regenerates every table and figure of the paper's
// evaluation (§4): the fetch-unit comparison (Table 1), the processor setup
// (Table 2), IPC across pipe widths and layouts (Figure 8), per-benchmark
// IPC (Figure 9), and misprediction rate / fetch IPC (Table 3).
//
// Every experiment is computed as a structured streamfetch.Experiment (the
// XxxData builders) and rendered either as aligned text
// (Experiment.WriteText) or as JSON (cmd/experiments -json). The grid
// figures (Figure 8, Figure 9, Table 3) run through streamfetch.RunSweep,
// the daemon's sweep loop, and share cells through the store they are
// given; the analyses and the ablation run on Prepare's sessions. Any
// engine registered in the frontend registry shows up by name.
//
// Absolute numbers differ from the paper (synthetic workloads, simplified
// back-end); the harness exists to reproduce the *shape*: which engine wins,
// by roughly what factor, and how code layout optimization shifts the
// comparison.
package experiments

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"

	"streamfetch"
	"streamfetch/internal/cfg"
	"streamfetch/internal/core"
	"streamfetch/internal/frontend"
	"streamfetch/internal/isa"
	"streamfetch/internal/layout"
	"streamfetch/internal/par"
	"streamfetch/internal/stats"
	"streamfetch/internal/store"
	"streamfetch/internal/trace"
)

// Config scales the experiments.
type Config struct {
	// TraceInsts is the dynamic trace length per benchmark (the paper
	// uses 300M; the default here is laptop-scale).
	TraceInsts uint64
	// TrainInsts is the profiling run length for layout optimization.
	TrainInsts uint64
	// RefSeed and TrainSeed pick the simulated "inputs".
	RefSeed, TrainSeed uint64
	// Benchmarks restricts the suite (nil = all 11).
	Benchmarks []string
	// Engines restricts the fetch engines (nil = every registered
	// engine, the paper's four in a stock build).
	Engines []string
}

// DefaultConfig returns a configuration that completes in minutes.
func DefaultConfig() Config {
	return Config{
		TraceInsts: 2_000_000,
		TrainInsts: 2_000_000,
		RefSeed:    99,
		TrainSeed:  7,
	}
}

// benchmarks resolves the benchmark set: the explicit list, or the suite.
func (c Config) benchmarks() []string {
	if c.Benchmarks != nil {
		return c.Benchmarks
	}
	return streamfetch.Benchmarks()
}

// engines resolves the engine set: the explicit list, or every registered
// engine.
func (c Config) engines() []string {
	if c.Engines != nil {
		return c.Engines
	}
	return frontend.Engines()
}

// Bench bundles one prepared benchmark: the session owning its artifacts,
// plus direct handles on the program and layouts for the analyses that walk
// them (Table 1, stream length distributions). Traces are not materialized;
// analyses pull fresh streaming sources from the session.
type Bench struct {
	Name    string
	Session *streamfetch.Session
	Prog    *cfg.Program
	Base    *layout.Layout
	Opt     *layout.Layout
}

// Prepare synthesizes the benchmark set through streamfetch sessions:
// generate programs, profile with the train input, and build both layouts.
// Preparation runs on a bounded worker pool; the context cancels it, and
// failures (e.g. an unknown benchmark name) are returned, not panicked.
func Prepare(ctx context.Context, c Config) ([]Bench, error) {
	names := c.benchmarks()
	out := make([]Bench, len(names))
	err := par.Do(ctx, len(names), func(i int) error {
		s := streamfetch.New(names[i],
			streamfetch.WithInstructions(c.TraceInsts),
			streamfetch.WithTrainInstructions(c.TrainInsts),
			streamfetch.WithSeed(c.RefSeed),
			streamfetch.WithTrainSeed(c.TrainSeed),
		)
		prog, err := s.Program()
		if err != nil {
			return err
		}
		base, err := s.Layout("base")
		if err != nil {
			return err
		}
		opt, err := s.Layout("optimized")
		if err != nil {
			return err
		}
		out[i] = Bench{Name: names[i], Session: s, Prog: prog, Base: base, Opt: opt}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// sweep runs the grid of c's benchmarks and engines over layouts and
// widths through streamfetch.RunSweep, answering from st every cell a
// figure has already run there.
func sweep(ctx context.Context, c Config, st store.Store, layouts []string, widths ...int) ([]streamfetch.GridCell, error) {
	return streamfetch.RunSweep(ctx, streamfetch.SweepRequest{
		Benchmarks: c.Benchmarks,
		Layouts:    layouts,
		Engines:    c.Engines,
		Widths:     widths,
		Seed:       c.RefSeed,
		TrainSeed:  c.TrainSeed,
		Insts:      c.TraceInsts,
		TrainInsts: c.TrainInsts,
	}, st)
}

// HarmonicIPC aggregates the harmonic-mean IPC per (layout, engine) over the
// suite, as the paper reports.
func HarmonicIPC(cells []streamfetch.GridCell) map[[2]string]float64 {
	group := map[[2]string][]float64{}
	for _, c := range cells {
		k := [2]string{c.Layout, c.Engine}
		group[k] = append(group[k], c.Report.IPC)
	}
	out := map[[2]string]float64{}
	for k, v := range group {
		out[k] = stats.HarmonicMean(v)
	}
	return out
}

// Fig8Data computes Figure 8: harmonic-mean IPC for 2-, 4- and 8-wide
// pipelines, base and optimized layouts, every engine — one grid, one
// experiment per width.
func Fig8Data(ctx context.Context, c Config, st store.Store) ([]*streamfetch.Experiment, error) {
	widths := []int{2, 4, 8}
	cells, err := sweep(ctx, c, st, []string{"base", "optimized"}, widths...)
	if err != nil {
		return nil, err
	}
	byWidth := map[int][]streamfetch.GridCell{}
	for _, cell := range cells {
		byWidth[cell.Width] = append(byWidth[cell.Width], cell)
	}
	var exps []*streamfetch.Experiment
	for _, width := range widths {
		h := HarmonicIPC(byWidth[width])
		e := &streamfetch.Experiment{
			Name: fmt.Sprintf("fig8-w%d", width),
			Title: fmt.Sprintf("Figure 8: IPC, %d-wide processor (harmonic mean over %d benchmarks)",
				width, len(c.benchmarks())),
			RowHeader: "engine",
			Columns:   []string{"base", "optimized"},
		}
		for _, eng := range c.engines() {
			e.AddRow(engineLabel(eng), h[[2]string{"base", eng}], h[[2]string{"optimized", eng}])
		}
		exps = append(exps, e)
	}
	return exps, nil
}

// Fig9Data computes Figure 9: per-benchmark IPC for the 8-wide processor
// with optimized layouts, with a harmonic-mean summary row.
func Fig9Data(ctx context.Context, c Config, st store.Store) (*streamfetch.Experiment, error) {
	engines := c.engines()
	cells, err := sweep(ctx, c, st, []string{"optimized"}, 8)
	if err != nil {
		return nil, err
	}
	ipc := map[string][]float64{} // per benchmark, in engine order
	for _, cell := range cells {
		ipc[cell.Benchmark] = append(ipc[cell.Benchmark], cell.Report.IPC)
	}
	e := &streamfetch.Experiment{
		Name:      "fig9",
		Title:     "Figure 9: individual IPC, 8-wide processor, optimized codes",
		RowHeader: "benchmark",
		Columns:   engines,
	}
	perEngine := make([][]float64, len(engines))
	for _, n := range slices.Sorted(maps.Keys(ipc)) {
		e.AddRow(n, ipc[n]...)
		for j, v := range ipc[n] {
			perEngine[j] = append(perEngine[j], v)
		}
	}
	hmean := make([]float64, len(engines))
	for j := range engines {
		hmean[j] = stats.HarmonicMean(perEngine[j])
	}
	e.AddSummary("Hmean", hmean...)
	return e, nil
}

// Table3Data computes Table 3: branch misprediction rate and fetch IPC for
// the 8-wide processor, base and optimized layouts. Misprediction rates are
// stored in percent.
func Table3Data(ctx context.Context, c Config, st store.Store) (*streamfetch.Experiment, error) {
	cells, err := sweep(ctx, c, st, []string{"base", "optimized"}, 8)
	if err != nil {
		return nil, err
	}
	mp, fi := map[[2]string][]float64{}, map[[2]string][]float64{}
	for _, cell := range cells {
		k := [2]string{cell.Layout, cell.Engine}
		mp[k] = append(mp[k], cell.Report.MispredRate)
		fi[k] = append(fi[k], cell.Report.FetchIPC)
	}
	e := &streamfetch.Experiment{
		Name:      "table3",
		Title:     "Table 3: misprediction rate and fetch IPC, 8-wide processor",
		RowHeader: "engine",
		Columns:   []string{"base mispred", "base fetch IPC", "opt mispred", "opt fetch IPC"},
		Formats:   []string{"%.2f%%", "%.2f", "%.2f%%", "%.2f"},
	}
	for _, eng := range c.engines() {
		base, opt := [2]string{"base", eng}, [2]string{"optimized", eng}
		e.AddRow(engineLabel(eng),
			100*stats.Mean(mp[base]), stats.HarmonicMean(fi[base]),
			100*stats.Mean(mp[opt]), stats.HarmonicMean(fi[opt]))
	}
	return e, nil
}

// Table1Data measures the fetch-unit size comparison of Table 1: mean
// dynamic basic block, stream, and trace lengths on optimized layouts,
// alongside the paper's reported ranges. Each benchmark's trace is streamed
// from a fresh session source, never materialized.
func Table1Data(benches []Bench) (*streamfetch.Experiment, error) {
	var bb, st, tr []float64
	for _, b := range benches {
		src, err := b.Session.Source()
		if err != nil {
			return nil, err
		}
		u := UnitSizes(b.Opt, src)
		if err := src.Close(); err != nil {
			return nil, err
		}
		bb = append(bb, u.BasicBlock)
		st = append(st, u.Stream)
		tr = append(tr, u.Trace)
	}
	e := &streamfetch.Experiment{
		Name:      "table1",
		Title:     "Table 1: mean fetch-unit sizes (dynamic, optimized layouts)",
		RowHeader: "unit",
		Columns:   []string{"size", "paper"},
		Formats:   []string{"%.1f"},
	}
	e.Rows = append(e.Rows,
		streamfetch.ExperimentRow{Label: "basic block", Values: []float64{stats.Mean(bb)}, Text: []string{"5-6"}},
		streamfetch.ExperimentRow{Label: "trace (16-inst cap)", Values: []float64{stats.Mean(tr)}, Text: []string{"~14"}},
		streamfetch.ExperimentRow{Label: "stream", Values: []float64{stats.Mean(st)}, Text: []string{"20+"}},
	)
	return e, nil
}

// Units reports the mean dynamic fetch-unit sizes of one benchmark.
type Units struct {
	BasicBlock float64
	Stream     float64
	Trace      float64
}

// UnitSizes computes Table-1 style unit sizes for one benchmark, streaming
// the block sequence from src (which it consumes but does not close).
func UnitSizes(lay *layout.Layout, src trace.Source) Units {
	var insts, blocks, streams, traces uint64
	var buf []layout.DynInst
	var curTrace, curTraceCond int
	trace.ForEachPair(src, func(cur, next cfg.BlockID) {
		buf = lay.AppendDyn(buf[:0], cur, next)
		blocks++
		for _, d := range buf {
			insts++
			curTrace++
			taken := d.IsBranch() && d.Taken
			if taken {
				streams++
			}
			if d.Branch == isa.BranchCond {
				curTraceCond++
			}
			if curTrace >= 16 || curTraceCond >= 3 || d.Branch.IsIndirect() || d.Branch.IsReturn() {
				traces++
				curTrace, curTraceCond = 0, 0
			}
		}
	})
	u := Units{}
	if blocks > 0 {
		u.BasicBlock = float64(insts) / float64(blocks)
	}
	if streams > 0 {
		u.Stream = float64(insts) / float64(streams)
	}
	if traces > 0 {
		u.Trace = float64(insts) / float64(traces)
	}
	return u
}

// StreamLengths computes the dynamic stream length distribution of one
// benchmark under a layout (the property study of the authors' stream
// front-end report: streams are long, especially in optimized codes). The
// block sequence streams from src (consumed, not closed).
func StreamLengths(lay *layout.Layout, src trace.Source) *stats.Histogram {
	h := stats.NewHistogram()
	var buf []layout.DynInst
	run := 0
	trace.ForEachPair(src, func(cur, next cfg.BlockID) {
		buf = lay.AppendDyn(buf[:0], cur, next)
		for _, d := range buf {
			run++
			if d.IsBranch() && d.Taken {
				h.Add(run)
				run = 0
			}
		}
	})
	return h
}

// DistributionData computes stream length distributions per benchmark, base
// vs optimized: mean and 50th/90th/99th percentiles.
func DistributionData(benches []Bench) (*streamfetch.Experiment, error) {
	e := &streamfetch.Experiment{
		Name:      "dist",
		Title:     "Stream length distribution (dynamic)",
		RowHeader: "benchmark",
		Columns: []string{"base mean", "base p50", "base p90", "base p99",
			"opt mean", "opt p50", "opt p90", "opt p99"},
		Formats: []string{"%.1f", "%.0f", "%.0f", "%.0f", "%.1f", "%.0f", "%.0f", "%.0f"},
	}
	for _, b := range benches {
		lengths := func(lay *layout.Layout) (*stats.Histogram, error) {
			src, err := b.Session.Source()
			if err != nil {
				return nil, err
			}
			h := StreamLengths(lay, src)
			return h, src.Close()
		}
		hb, err := lengths(b.Base)
		if err != nil {
			return nil, err
		}
		ho, err := lengths(b.Opt)
		if err != nil {
			return nil, err
		}
		e.AddRow(b.Name,
			hb.Mean(), float64(hb.Percentile(0.5)), float64(hb.Percentile(0.9)), float64(hb.Percentile(0.99)),
			ho.Mean(), float64(ho.Percentile(0.5)), float64(ho.Percentile(0.9)), float64(ho.Percentile(0.99)))
	}
	return e, nil
}

// table2Setup is the simulated processor setup, one line per parameter.
const table2Setup = `FTB architecture + perceptron
  perceptrons             512, 40-bit global + 4096x14-bit local history
  FTB                     2048-entry, 4-way
EV8 fetch + 2bcgskew
  tables                  4 x 32K-entry, 15-bit history
  BTB                     2048-entry, 4-way
Stream fetch architecture
  first table             1K-entry, 4-way
  second table            6K-entry, 3-way, DOLC 12-2-4-10
Trace cache + trace predictor
  first level             1K-entry, 4-way
  second level            4K-entry, 4-way, DOLC 9-4-7-9
  backup BTB              1K-entry, 4-way
  trace cache             32KB, 2-way, selective trace storage
Common
  pipe width              2, 4, 8 (RAS 8-entry, FTQ 4 entries)
  pipe depth              16 stages
  L1 I-cache              64KB, 2-way, line = 4x width
  L1 D-cache              64KB, 2-way, 64B lines
  L2 (unified)            1MB, 4-way, 15 cycles
  memory                  100 cycles`

// Table2Data returns the simulated processor setup.
func Table2Data() *streamfetch.Experiment {
	return &streamfetch.Experiment{
		Name:  "table2",
		Title: "Table 2: processor setup",
		// Rows stays an empty array, not null, in JSON output.
		Rows:  []streamfetch.ExperimentRow{},
		Notes: strings.Split(table2Setup, "\n"),
	}
}

// AblationData compares next-stream-predictor design choices on the 8-wide
// optimized configuration: the full cascade, no mispredict upgrades, a
// single address-indexed table, and strict path priority. Misprediction
// rates are stored in percent.
func AblationData(ctx context.Context, benches []Bench, c Config) (*streamfetch.Experiment, error) {
	e := &streamfetch.Experiment{
		Name:      "ablation",
		Title:     "Ablation: next stream predictor design choices (8-wide, optimized)",
		RowHeader: "variant",
		Columns:   []string{"IPC", "mispred"},
		Formats:   []string{"%.3f", "%.2f%%"},
	}
	variants := []struct {
		name string
		mut  func(*core.PredictorConfig)
	}{
		{"cascade (default)", nil},
		{"no mispredict upgrade", func(p *core.PredictorConfig) { p.NoUpgrade = true }},
		{"single table", func(p *core.PredictorConfig) { p.NoCascade = true }},
		{"strict path priority", func(p *core.PredictorConfig) { p.AlwaysPathPriority = true }},
	}
	for _, v := range variants {
		variant := v
		ipc := make([]float64, len(benches))
		mp := make([]float64, len(benches))
		err := par.Do(ctx, len(benches), func(i int) error {
			sc := frontend.DefaultStreamConfig()
			if variant.mut != nil {
				variant.mut(&sc.Predictor)
			}
			rep, err := benches[i].Session.RunWith(ctx,
				streamfetch.WithWidth(8),
				streamfetch.WithEngine("streams"),
				streamfetch.WithOptimizedLayout(),
				streamfetch.WithEngineOptions(sc),
			)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", benches[i].Name, variant.name, err)
			}
			ipc[i] = rep.IPC
			mp[i] = rep.MispredRate
			return nil
		})
		if err != nil {
			return nil, err
		}
		e.AddRow(variant.name, stats.HarmonicMean(ipc), 100*stats.Mean(mp))
	}
	return e, nil
}

func engineLabel(e string) string {
	switch e {
	case "ev8":
		return "EV8 + 2bcgskew"
	case "ftb":
		return "FTB + perceptron"
	case "streams":
		return "Streams"
	case "tcache":
		return "Tcache + Tpred"
	default:
		return e
	}
}
