// Benchmark harness for configurations no table of cmd/experiments
// computes: the line-width sweep of Figure 7, ablations of the stream
// fetch design choices (next-stream predictor, I-cache banks, FTQ depth)
// and raw simulator throughput. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports its figures through b.ReportMetric (IPC,
// misprediction rates, fetch IPC) so `benchstat` can track them across
// changes; the paper's tables and figures come from cmd/experiments.
//
// This is an external test package (streamfetch_test): it exercises the
// public session API together with internal/experiments, which itself
// depends on package streamfetch.
package streamfetch_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"streamfetch"
	"streamfetch/internal/core"
	"streamfetch/internal/experiments"
	"streamfetch/internal/frontend"
	"streamfetch/internal/stats"
)

// benchInsts keeps the per-iteration work laptop-scale; cmd/experiments runs
// the full-length version.
const benchInsts = 300_000

var (
	prepOnce    sync.Once
	prepBenches []experiments.Bench
	prepErr     error
)

// benchEngines is Engines() minus the chaos test doubles: the chaos tests
// register deliberately misbehaving engines at runtime, and a `go test
// -bench` run in the same binary must not sweep them into the tables.
func benchEngines() []string {
	var es []string
	for _, e := range streamfetch.Engines() {
		if !strings.HasPrefix(e, "chaos-") {
			es = append(es, e)
		}
	}
	return es
}

// prepared builds a three-benchmark subset once, shared by every benchmark.
func prepared(b *testing.B) []experiments.Bench {
	b.Helper()
	prepOnce.Do(func() {
		c := experiments.DefaultConfig()
		c.TraceInsts = benchInsts
		c.TrainInsts = benchInsts / 4
		c.Benchmarks = []string{"164.gzip", "176.gcc", "300.twolf"}
		prepBenches, prepErr = experiments.Prepare(context.Background(), c)
	})
	if prepErr != nil {
		b.Fatal(prepErr)
	}
	return prepBenches
}

// runStreams runs one bench's session with the streams engine on the 8-wide
// optimized configuration, with per-run overrides.
func runStreams(b *testing.B, bench experiments.Bench, opts ...streamfetch.Option) *streamfetch.Report {
	b.Helper()
	opts = append([]streamfetch.Option{
		streamfetch.WithWidth(8),
		streamfetch.WithEngine("streams"),
		streamfetch.WithOptimizedLayout(),
	}, opts...)
	rep, err := bench.Session.RunWith(context.Background(), opts...)
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// BenchmarkFig7Misalignment sweeps the instruction cache line width (1x, 2x,
// 4x the pipe width) for the stream engine, the misalignment effect of
// Figure 7: longer lines reduce the chance a stream crosses a line boundary.
func BenchmarkFig7Misalignment(b *testing.B) {
	benches := prepared(b)
	for _, mult := range []int{1, 2, 4} {
		mult := mult
		b.Run(fmt.Sprintf("line%dx", mult), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var fi []float64
				for _, bench := range benches {
					r := runStreams(b, bench, streamfetch.WithICacheLineBytes(mult*8*4))
					fi = append(fi, r.FetchIPC)
				}
				b.ReportMetric(stats.HarmonicMean(fi), "fetch-IPC")
			}
		})
	}
}

// BenchmarkAblationStreamPredictor compares the next-stream-predictor design
// choices of §3.2: the full cascade, no mispredict upgrades, a single
// address-indexed table, and strict path priority on double hits.
func BenchmarkAblationStreamPredictor(b *testing.B) {
	benches := prepared(b)
	variants := []struct {
		name string
		mut  func(*core.PredictorConfig)
	}{
		{"cascade", nil},
		{"noupgrade", func(p *core.PredictorConfig) { p.NoUpgrade = true }},
		{"singletable", func(p *core.PredictorConfig) { p.NoCascade = true }},
		{"pathpriority", func(p *core.PredictorConfig) { p.AlwaysPathPriority = true }},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var ipc, mp []float64
				for _, bench := range benches {
					sc := frontend.DefaultStreamConfig()
					if v.mut != nil {
						v.mut(&sc.Predictor)
					}
					r := runStreams(b, bench, streamfetch.WithEngineOptions(sc))
					ipc = append(ipc, r.IPC)
					mp = append(mp, r.MispredRate)
				}
				b.ReportMetric(stats.HarmonicMean(ipc), "IPC")
				b.ReportMetric(100*stats.Mean(mp), "mispred-%")
			}
		})
	}
}

// BenchmarkAblationICacheBanks compares the paper's chosen wide-line
// instruction cache (one 4x-width line per cycle) against §3.4's
// alternative: a multi-banked cache reading two consecutive 1x-width lines
// per cycle. The wide line wins on misalignment without the interchange
// network.
func BenchmarkAblationICacheBanks(b *testing.B) {
	benches := prepared(b)
	variants := []struct {
		name     string
		lineMult int
		banks    int
	}{
		{"wide-line-4x", 4, 1},
		{"dual-bank-1x", 1, 2},
		{"single-1x", 1, 1},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var fi []float64
				for _, bench := range benches {
					sc := frontend.DefaultStreamConfig()
					sc.ICacheBanks = v.banks
					r := runStreams(b, bench,
						streamfetch.WithEngineOptions(sc),
						streamfetch.WithICacheLineBytes(v.lineMult*8*4))
					fi = append(fi, r.FetchIPC)
				}
				b.ReportMetric(stats.HarmonicMean(fi), "fetch-IPC")
			}
		})
	}
}

// BenchmarkAblationFTQDepth sweeps the fetch target queue depth (the
// decoupling buffer of §3.3).
func BenchmarkAblationFTQDepth(b *testing.B) {
	benches := prepared(b)
	for _, depth := range []int{1, 2, 4, 8} {
		depth := depth
		b.Run(fmt.Sprintf("ftq%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var ipc []float64
				for _, bench := range benches {
					sc := frontend.DefaultStreamConfig()
					sc.FTQDepth = depth
					r := runStreams(b, bench, streamfetch.WithEngineOptions(sc))
					ipc = append(ipc, r.IPC)
				}
				b.ReportMetric(stats.HarmonicMean(ipc), "IPC")
			}
		})
	}
}

// BenchmarkSimThroughput measures raw simulator speed (simulated
// instructions per second) for each engine.
func BenchmarkSimThroughput(b *testing.B) {
	benches := prepared(b)
	bench := benches[0]
	for _, e := range benchEngines() {
		e := e
		b.Run(e, func(b *testing.B) {
			var retired uint64
			for i := 0; i < b.N; i++ {
				rep, err := bench.Session.RunWith(context.Background(),
					streamfetch.WithWidth(8),
					streamfetch.WithEngine(e),
					streamfetch.WithOptimizedLayout())
				if err != nil {
					b.Fatal(err)
				}
				retired += rep.Retired
			}
			b.ReportMetric(float64(retired)/b.Elapsed().Seconds(), "sim-insts/s")
		})
	}
}
