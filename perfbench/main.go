// Command perfbench is streamfetch's benchmark. It builds seeded inputs,
// drives the simulator and the streamfetchd service through their public
// entry points, checks every output, and prints the metrics as one JSON
// object on its last line.
//
// Run it from the repository root; run.sh builds it from source first:
//
//	bash perfbench/run.sh --workload plain --seed 1 --seconds 8 --trace 0
//	bash perfbench/run.sh --workload plain --seed 1 --seconds 8 --trace 1
//	bash perfbench/pairs.sh PARENT-CHECKOUT CHANGE-CHECKOUT WORKLOAD [PAIRS]
//	bash perfbench/run.sh --compare --workload plain parent.jsonl change.jsonl
//	bash perfbench/run.sh --calibrate perfbench/calibration/NAME.jsonl --seed 1000 --runs 10
//	bash perfbench/run.sh --bounds
//
// # Workloads
//
// Every workload draws its inputs from --seed: the reference-input seed
// of every generated trace, the order of operations and the arrival
// times of the service load. All load comes from this one process with
// at most two goroutines, matching a two-core host. A closed loop makes
// rounds that each do the same operations in a seeded order; how many
// depends on --seconds alone (about one per roundSecs seconds, at least
// one), so every run of a workload does the same work. Operations keep
// their full length, 2M instructions for a simulation (the library
// default), 8M for a sharded run and 1M for a service job, and the time
// a run may take sets the number of rounds instead: at --seconds 8 one
// round of plain, replay and sharded, three of service-cold.
//
//   - plain: closed loop, one client. A round simulates {164.gzip,
//     176.gcc, 300.twolf} × {ev8, ftb, streams, tcache}, 2M instructions
//     each, optimized layout (trained on 500k instructions), width 8, on
//     prepared sessions. The paper's own experiment: the time goes to
//     trace supply, the fetch engine, the caches and the pipeline, and
//     nothing else (no shards, checkpoints, store or server).
//   - replay: closed loop, one client. A round simulates {176.gcc,
//     253.perlbmk} × the four engines, 2M instructions read back from
//     STRMTRC2 files that set-up writes, base layout, width 4. The same
//     layers used differently: decoded supply, longer taken-branch
//     chains, a narrower pipe. A gain tuned to plain that costs replay
//     shows here.
//   - sharded: closed loop, one client. A round runs 176.gcc, streams
//     engine, 8M instructions, as a single-shot run, a 2-shard run (200k
//     warmup) and a sampled run (8 windows of 200k, 40k warmup), both
//     restoring the warm checkpoints set-up leaves in a memory store. The
//     only workload that goes through interval partitioning,
//     internal/par, checkpoint restore and merge; the single-shot run is
//     its control.
//   - service-hit: open loop against NewServer, default settings, on an
//     FS store behind an httptest server on loopback: 25 requests/s,
//     each a repeat of one of the eleven runs set-up made (one
//     100k-instruction run per benchmark). Arrivals are a seeded Poisson process conditioned on
//     its count (rate × seconds requests at independent uniform times);
//     the sender waits for each response. HTTP, the result cache and the
//     journal, with no simulation.
//   - service-cold: closed loop, one client, against the same server. A
//     round is a new reference input of 176.gcc: a 1M-instruction run per
//     engine and a 4-cell sweep, which the server must prepare a session
//     for and simulate. The job queue, admission, preparation and
//     simulation behind HTTP.
//
// # End-to-end metrics (--trace 0)
//
// The times are process CPU time, every thread and garbage collection
// included. On a shared 2-vCPU virtual machine the host stole 25-40% of
// each virtual CPU, in a share that drifted from minute to minute, and
// wall-clock times of one commit spread by 15-50% between runs; CPU time
// leaves the steal out. Busy neighbours also slow the CPU itself, so
// per-operation figures take the lower quartile over rounds of equal
// work, which drops the rounds a burst slowed. A slow spell longer than
// a run still moves them: compare commits in alternating pairs
// (pairs.sh). The wall-clock latencies are printed in the summary lines.
//
//   - setup_s (s): CPU time of one set-up, the median of three set-ups in
//     the run.
//   - cpu_ms_per_op (ms): the lower quartile of the CPU time of a round
//     (for service-hit, of 25 consecutive hits), the smallest when there
//     are fewer than four, over the operations in it: a simulation
//     (plain, replay), a run of the round's mix (sharded), a request
//     (service-hit, service-cold).
//   - live_heap_mb_p90 (MB): the live heap, as the latest garbage
//     collection measured it, sampled at 20 Hz over set-up and
//     measurement: the 90th percentile of the samples. Its maximum, and
//     HeapInuse, swing by 10% between runs with when collections happen
//     to run. The service workloads hold a prepared session per
//     benchmark the server saw and per new input, as the server's default
//     session cache keeps them.
//
// Failed operations are counted in the result's "failed" against
// "attempted": an error, a non-2xx response, a job that ends failed or
// cancelled, or a failed check. The checks: a repeated configuration
// yields identical model fields (after a single round, one operation
// drawn from the seed runs again); a 2-shard or sampled run restoring
// checkpoints equals the functionally warmed run that stored them, with
// timings and checkpoint counters stripped; a sampled run covers all its
// windows; a replayed report equals the generator run of the same seed
// (one engine per benchmark, drawn from the seed); the first cold run per
// engine is byte-identical to a direct Session.RunWith; hits carry
// cached:true and the stored report; traced counters equal untraced
// counters.
//
// The summary lines above the JSON give each operation's wall-clock
// latency as a median plus the tail percentiles with at least ten samples
// beyond them, with sample counts, and the simulation throughput.
//
// # Per-layer metrics (--trace 1)
//
// A traced run measures the layers from outside, around the calls into
// their public functions: wrapper engines registered as traced-<engine>,
// a wrapper trace.Source, timing wrappers around the stores, the stage
// timings sessions and the service already report, and ceilings that run
// one layer alone. Every per-layer metric is printed on every traced run,
// so a traced run makes one round of every workload whatever --workload
// names, and its service round is the whole mix as an open loop: 25
// hits/s, 2.5 cold runs/s and 0.2 sweeps/s for five seconds. Its times
// are wall-clock. Each layer metric, and the end-to-end metric it should
// move:
//
//   - trace.next_batch_s, trace.supply_gen_minsts_per_s,
//     trace.supply_file_minsts_per_s → cpu_ms_per_op on plain (gen) and
//     replay (file); supply is a few percent of a run, so no supply win
//     can move them by more.
//   - frontend.<engine>.{cycle_s, redirect_s, commit_s, cycles,
//     redirects, predictor_hit_ratio, fetch_ipc, mispred_rate} (commit
//     timed on one call in 64, its slowest 1% dropped, and scaled) →
//     cpu_ms_per_op on plain, replay and service-cold.
//   - cache.replay_maccesses_per_s (176.gcc's fetch lines, loads and
//     stores replayed into a fresh hierarchy), cache.{icache, dcache,
//     l2}_miss_ratio → cpu_ms_per_op on plain.
//   - sim.self_s (simulation time less engine and supply time),
//     sim.loop_allocs_per_1k_insts.<engine> → cpu_ms_per_op and
//     live_heap_mb_p90 on plain and replay.
//   - shard.{prepare, measure, merge}_s of the restored 2-shard run,
//     shard.warmup_s of the run that filled the store (what the
//     checkpoints save), par.shard2_speedup, ckpt.{hit_ratio, get_blob_s,
//     put_blob_s, blob_mb, decode_s} → cpu_ms_per_op on sharded, and
//     setup_s on sharded for the filling runs; plain must not move.
//   - store.{journal_s_p50, journal_s_p90, journal_calls, put_blob_s,
//     get_blob_s}, server.cache_hits → cpu_ms_per_op on service-hit.
//   - server.{queue_s_p50, measure_s_p50, polls},
//     slo.prediction_error_ratio, loadgen.lag_ms_max → cpu_ms_per_op on
//     service-cold, and the wall-clock latencies in its summary lines.
//     Waiting costs no CPU, so no bounded metric sees queueing.
//   - layout.prepare_s → setup_s on plain.
//   - trace_overhead_ratio: traced over untraced time of the same plain
//     and replay simulations.
//
// # Regression bounds
//
// The bounds come from calibration sets kept in perfbench/calibration:
// each holds a labelled result line per run of every workload, ten seeds
// each, made with --calibrate on one commit at one time. --bounds
// derives them and the self-test holds BENCHMARK.json to them:
//
//   - a metric's bound on one workload, which --compare applies, is the
//     larger of 5% and twice the widest relative interquartile range the
//     metric showed on that workload in any set;
//   - its bound in BENCHMARK.json, one for every workload, is the larger
//     of 5% and three times that range on its noisiest workload, so that
//     every observed spread sits below a third of it, but at most 25%;
//     setup_s takes 25%.
//
// --bounds flags a spread wider than a third of its bound. Slow spells on
// the host that last minutes move CPU time too (busy neighbours slow the
// CPU itself), and they outlast a run, so no filter inside a run removes
// them: in the kept calibration cpu_ms_per_op spread by 0.106 on
// service-cold in one set and 0.085 on plain in the other, past a third
// of the 25% cap, and by 0.022-0.075 elsewhere. Dividing by the CPU time
// of a fixed kernel run beside the simulations left their spread as it
// was.
//
// # Comparing two commits
//
// pairs.sh runs alternating parent/change pairs with identical benchmark
// code and settings and hands the two result files to --compare, which
// prints each side's median and quartiles per end-to-end metric and the
// share of pairs the change wins. It reports a gain only when the change
// wins at least nine tenths of the pairs and the medians differ by more
// than the parent's interquartile range, a regression when the change's
// median is worse than the parent's by more than the metric's bound on
// that workload, and "unresolved" when either side's spread is wider
// than that bound, unless every change run beats every parent run.
//
// # Left for later
//
// cmd/bench and its BENCH_streamfetch.json history stay as they are,
// with CI's bench-smoke job; retiring them, regenerating README's
// performance table from this benchmark, and moving tCrit95 from
// shard.go into internal/stats touch files outside this directory. This
// directory is a module of its own, so the repository's go build ./...
// and go test ./... do not cover it; run go vet and go test here.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"
)

// engines is the fixed engine list every timed loop uses. Traced runs
// register wrapper engines, so streamfetch.Engines() is not stable.
var engines = []string{"ev8", "ftb", "streams", "tcache"}

// workloads maps each workload name to its driver.
var workloads = []struct {
	name string
	run  func(*bench, context.Context) error
}{
	{"plain", (*bench).plain},
	{"replay", (*bench).replay},
	{"sharded", (*bench).sharded},
	{"service-hit", (*bench).serviceHit},
	{"service-cold", (*bench).serviceCold},
}

// sizes fixes how much work one operation does. Runs use fullSizes; the
// self-test uses toySizes so every workload fits in a few seconds.
type sizes struct {
	setups     int    // set-ups per run; setup_s is their median
	simInsts   uint64 // plain, replay: trace length of one simulation
	shardInsts uint64 // sharded: trace length of the logical run
	svcInsts   uint64 // service: trace length of a cold run or sweep cell
	hitSet     int    // service: benchmarks set-up runs once each, repeated as hits
	hitInsts   uint64 // service: trace length of a hit-set run
	hitChunk   int    // service-hit: hits one CPU measurement spans
	drain      time.Duration
}

var (
	fullSizes = sizes{setups: 3, simInsts: 2_000_000, shardInsts: 8_000_000, svcInsts: 1_000_000,
		hitSet: 11, hitInsts: 100_000, hitChunk: 25, drain: 60 * time.Second}
	toySizes = sizes{setups: 1, simInsts: 20_000, shardInsts: 100_000, svcInsts: 20_000,
		hitSet: 2, hitInsts: 10_000, hitChunk: 5, drain: 20 * time.Second}
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	sz       sizes
	dir      string // scratch directory for trace files and stores
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	workload := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 15, "how long to measure")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	compare := fs.Bool("compare", false, "compare two result files of --workload given as arguments, parent then change")
	bounds := fs.Bool("bounds", false, "derive the regression bounds from the calibration sets given as arguments (default "+calibrationGlob+")")
	calOut := fs.String("calibrate", "", "run every workload --runs times, on seeds from --seed up, appending labelled results to this file")
	runs := fs.Int("runs", 10, "runs per workload for --calibrate")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// The tool modes read BENCHMARK.json from the repository root.
	tool := func(do func(*spec) error) int {
		s, err := readSpec("BENCHMARK.json")
		if err == nil {
			err = do(s)
		}
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	switch {
	case *compare:
		if fs.NArg() != 2 || !slices.Contains(names, *workload) {
			fmt.Fprintln(stderr, "perfbench: usage: --compare --workload W PARENT-RESULTS CHANGE-RESULTS")
			return 2
		}
		return tool(func(s *spec) error {
			cal, err := loadCalibration(calibrationGlob)
			if err != nil {
				return err
			}
			return compareFiles(s, cal, *workload, fs.Arg(0), fs.Arg(1), stdout)
		})
	case *bounds:
		return tool(func(s *spec) error {
			cal, err := loadCalibration(calibrationGlob)
			if fs.NArg() > 0 {
				cal, err = readCalibration(fs.Args())
			}
			if err != nil {
				return err
			}
			return printBounds(s, cal, stdout)
		})
	case *calOut != "":
		if fs.NArg() != 0 || *runs < 1 {
			fmt.Fprintln(stderr, "perfbench: usage: --calibrate FILE --seed FIRST --runs N")
			return 2
		}
		return tool(func(s *spec) error { return calibrate(s, *calOut, *seed, *runs, stderr) })
	}
	if fs.NArg() != 0 || *trace < 0 || *trace > 1 || *seconds <= 0 || !slices.Contains(names, *workload) {
		fmt.Fprintf(stderr, "perfbench: usage: --workload {%s} --seed N --seconds S --trace {0|1}\n",
			strings.Join(names, "|"))
		return 2
	}
	// Scratch files go where run.sh puts the build.
	base := os.Getenv("CARGO_TARGET_DIR")
	if base == "" {
		base = ".bench_build"
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, sz: fullSizes, dir: dir}
	res, err := run(context.Background(), cfg, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// run executes one benchmark run and returns its result.
func run(ctx context.Context, cfg config, out, errw io.Writer) (*result, error) {
	b := &bench{
		cfg:     cfg,
		rng:     rand.New(rand.NewPCG(cfg.seed, 0x5eedbe4c)),
		out:     out,
		metrics: map[string]metric{},
	}
	b.ops.log = errw
	// The reference-input seed of every generated trace: derived, never
	// 0, which the service reads as "default".
	b.refSeed = 1 + b.rng.Uint64N(1<<31)

	if cfg.trace {
		if err := b.tour(ctx); err != nil {
			return nil, err
		}
	} else {
		heap := startHeapSampler()
		var err error
		for _, w := range workloads {
			if w.name == cfg.workload {
				err = w.run(b, ctx)
			}
		}
		live := heap.stop()
		if err != nil {
			return nil, err
		}
		p90, _ := percentile(live, 90)
		b.emit("live_heap_mb_p90", p90, "MB")
	}
	attempted, failed := b.ops.counts()
	if attempted == 0 {
		return nil, fmt.Errorf("workload %s attempted no operation", cfg.workload)
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: b.metrics}, nil
}

// bench is one run's state: its configuration, seeded randomness, the
// operation tally and the metrics gathered so far.
type bench struct {
	cfg     config
	rng     *rand.Rand
	refSeed uint64
	ops     tally
	out     io.Writer
	metrics map[string]metric
}

// emit records a metric for the result line and prints it.
func (b *bench) emit(name string, value float64, unit string) {
	b.metrics[name] = metric{Value: value, Unit: unit}
	fmt.Fprintf(b.out, "%-40s %14.6g %s\n", name, value, unit)
}

// note prints a summary line that is not a metric.
func (b *bench) note(format string, args ...any) {
	fmt.Fprintf(b.out, "# "+format+"\n", args...)
}

// setUp runs set-up b.cfg.sz.setups times, tearing down all but the last
// instance, emits setup_s as the median CPU time of one set-up and
// returns the last instance. A collection after each teardown starts
// every set-up, and the measurement after them, from a clean heap.
func setUp[S any](b *bench, setup func() (S, error), teardown func(S)) (S, error) {
	var (
		st   S
		cpus []float64
	)
	for i := 0; i < b.cfg.sz.setups; i++ {
		if i > 0 {
			teardown(st)
			runtime.GC()
		}
		start := cpuNow()
		var err error
		st, err = setup()
		if err != nil {
			return st, fmt.Errorf("set-up: %w", err)
		}
		cpus = append(cpus, cpuNow()-start)
	}
	runtime.GC()
	b.emit("setup_s", median(cpus), "s")
	return st, nil
}

// cpuNow is the CPU time the process has used, in seconds: every thread,
// garbage collection included, time the host stole from the virtual CPUs
// excluded.
func cpuNow() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// tally counts attempted and failed operations; the service load records
// from two goroutines.
type tally struct {
	mu                sync.Mutex
	attempted, failed int
	log               io.Writer
}

// op records one operation, failed when err is non-nil.
func (t *tally) op(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(t.log, "perfbench: operation failed: %v\n", err)
	}
}

func (t *tally) counts() (attempted, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed
}

// heapSampler records the live heap, as the latest garbage collection
// measured it, at 20 Hz until stopped.
type heapSampler struct {
	done chan struct{}
	quit chan struct{}
	mb   []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{}), quit: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		for {
			metrics.Read(sample)
			h.mb = append(h.mb, float64(sample[0].Value.Uint64())/1e6)
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the samples in MB.
func (h *heapSampler) stop() []float64 {
	close(h.quit)
	<-h.done
	return h.mb
}
