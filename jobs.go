// Job execution for the streamfetchd service: a bounded queue of run and
// sweep jobs drained by a worker pool that shares the process-wide
// internal/par budget with intra-job shard workers, and a session cache
// that amortizes preparation (program synthesis, profiling, layouts)
// across requests. A sweep is a grid of run requests, its cells: each
// cell runs through the run path and is cached under its run content
// key, so runs and sweeps answer each other's cells.
//
// One job path: submission and journal recovery parse a request alike
// (jobRequest), newJob builds every executable job from one, and finish
// is a job's one terminal transition. Only cached results and recovered
// terminal envelopes make jobs that are terminal from birth.
//
// Concurrency model: every concurrent job holds one par token while it
// runs, and sweep cells and sharded runs inside a job draw their extra
// workers from the same pool; only when the pool is empty and nothing is
// in flight does the dispatcher run a single job inline as the
// budget-free caller, which keeps a zero-token (one core) box
// progressing. Total simulation concurrency therefore never exceeds
// GOMAXPROCS, however jobs, sweeps and shards stack.
package streamfetch

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"math"

	"streamfetch/internal/metrics"
	"streamfetch/internal/par"
	"streamfetch/internal/retry"
	"streamfetch/internal/slo"
	"streamfetch/internal/store"
)

// Submission errors, mapped to HTTP statuses by the server (503, 429 and
// 500).
var (
	ErrDraining  = errors.New("streamfetch: server is draining, not accepting jobs")
	ErrQueueFull = errors.New("streamfetch: job queue is full")
	// ErrStore wraps a journal write that failed at submission time: the
	// job was not accepted, because an acknowledged job must be durable.
	// Its persistent form flips the server into degraded mode, after
	// which submissions are accepted from memory instead (see Health).
	ErrStore = errors.New("streamfetch: store write failed")
)

// Job-robustness causes: a job cut down by its execution deadline or by
// the no-progress watchdog finishes as a terminal failed envelope naming
// which tripwire fired (distinct from a client cancellation, which
// finishes as cancelled).
var (
	errJobDeadline = errors.New("streamfetch: job deadline exceeded")
	errJobStalled  = errors.New("streamfetch: job made no progress within the watchdog window")
)

// InfeasibleError sheds a submission whose deadline the daemon already
// knows it cannot meet: the queue-delay estimate plus the cost model's
// predicted execution time exceeds deadline_ms, so the job is rejected
// up front (HTTP 422, prediction in the body) instead of accepted only
// to fail at the deadline. Shed submissions are never journaled — no
// durability promise was made.
type InfeasibleError struct {
	PredictedSeconds  float64 `json:"predicted_seconds"`
	QueueDelaySeconds float64 `json:"queue_delay_seconds"`
	DeadlineSeconds   float64 `json:"deadline_seconds"`
}

func (e *InfeasibleError) Error() string {
	return fmt.Sprintf(
		"streamfetch: deadline infeasible: predicted %.3fs + queue delay %.3fs exceeds deadline %.3fs",
		e.PredictedSeconds, e.QueueDelaySeconds, e.DeadlineSeconds)
}

// GridCell is one (benchmark, layout, engine, width) cell of a sweep.
// Report is nil when the cell failed (Error says why) or was never reached
// because an earlier cell failed or the context was cancelled.
type GridCell struct {
	Benchmark string  `json:"benchmark"`
	Layout    string  `json:"layout"`
	Engine    string  `json:"engine"`
	Width     int     `json:"width"`
	Report    *Report `json:"report,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// RunRequest is the body of POST /v1/runs: one simulation configuration.
// Zero-valued fields keep the session defaults (streams engine, base
// layout, width 8, seed 99, 2M instructions), exactly as the corresponding
// session option would. MaxInsts caps the run as WithMaxInstructions does:
// at a trace position (CFG instructions), whatever the run's shape.
type RunRequest struct {
	Benchmark       string `json:"benchmark"`
	Engine          string `json:"engine,omitempty"`
	Layout          string `json:"layout,omitempty"`
	Width           int    `json:"width,omitempty"`
	Seed            uint64 `json:"seed,omitempty"`
	TrainSeed       uint64 `json:"train_seed,omitempty"`
	Insts           uint64 `json:"insts,omitempty"`
	TrainInsts      uint64 `json:"train_insts,omitempty"`
	MaxInsts        uint64 `json:"max_insts,omitempty"`
	Shards          int    `json:"shards,omitempty"`
	Warmup          uint64 `json:"warmup,omitempty"`
	ColdShards      bool   `json:"cold_shards,omitempty"`
	ICacheLineBytes int    `json:"icache_line_bytes,omitempty"`
	// Samples > 0 switches the run to sampled mode (WithSampling): that
	// many measure windows of SampleInsts instructions each, merged with
	// an IPC confidence interval instead of simulating the whole trace.
	// Shards is then ignored; Warmup and ColdShards shape each window.
	Samples     int    `json:"samples,omitempty"`
	SampleInsts uint64 `json:"sample_insts,omitempty"`
	// TimeoutMS bounds the job's execution time (queue wait excluded):
	// past it the run aborts and the job finishes failed with its partial
	// report. 0 defers to the server's -max-job-time cap; a value above
	// the cap is clamped to it. Execution policy, not result identity —
	// requests differing only here share one content key, coalesce onto
	// one job (the first submitter's timeout governs it), and share
	// cached results.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Priority is the job's scheduling class: higher runs first, equal
	// priorities stay FIFO (0, the default, is the normal class; negative
	// values queue behind it). Execution policy like TimeoutMS — excluded
	// from the content key, and a coalesced submission inherits the
	// leader's class.
	Priority int `json:"priority,omitempty"`
	// DeadlineMS is the SLO deadline in milliseconds from submission. A
	// submission whose predicted completion (queue-delay estimate plus
	// predicted execution cost, see the slo package) cannot meet it is
	// shed up front with HTTP 422 carrying the prediction, instead of
	// being accepted only to fail. Within the queue, tighter deadlines
	// run first inside a priority class. 0 means no deadline. Execution
	// policy: excluded from the content key.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

func (r *RunRequest) validate() error {
	if r.Benchmark == "" {
		return errors.New("missing benchmark")
	}
	if r.TimeoutMS < 0 {
		return fmt.Errorf("negative timeout_ms %d", r.TimeoutMS)
	}
	if r.DeadlineMS < 0 {
		return fmt.Errorf("negative deadline_ms %d", r.DeadlineMS)
	}
	if !slices.Contains(Benchmarks(), r.Benchmark) {
		return fmt.Errorf("unknown benchmark %q", r.Benchmark)
	}
	if r.Engine != "" && !slices.Contains(Engines(), r.Engine) {
		return fmt.Errorf("unknown engine %q", r.Engine)
	}
	if r.Layout != "" {
		if err := checkLayout(r.Layout); err != nil {
			return err
		}
	}
	if r.Width < 0 {
		return fmt.Errorf("negative width %d", r.Width)
	}
	if r.Shards < 0 {
		return fmt.Errorf("negative shards %d", r.Shards)
	}
	if r.Samples < 0 {
		return fmt.Errorf("negative samples %d", r.Samples)
	}
	if r.Samples > 0 && r.SampleInsts == 0 {
		return errors.New("samples need a positive sample_insts window")
	}
	return nil
}

// runOptions maps the per-run fields onto session options (preparation
// fields are the session's own, via the cache key).
func (r *RunRequest) runOptions() []Option {
	var opts []Option
	if r.Engine != "" {
		opts = append(opts, WithEngine(r.Engine))
	}
	if r.Layout != "" {
		opts = append(opts, WithLayout(r.Layout))
	}
	if r.Width > 0 {
		opts = append(opts, WithWidth(r.Width))
	}
	if r.MaxInsts > 0 {
		opts = append(opts, WithMaxInstructions(r.MaxInsts))
	}
	if r.Shards > 0 {
		opts = append(opts, WithShards(r.Shards))
	}
	if r.Warmup > 0 {
		opts = append(opts, WithWarmup(r.Warmup))
	}
	if r.ColdShards {
		opts = append(opts, WithColdShards())
	}
	if r.ICacheLineBytes > 0 {
		opts = append(opts, WithICacheLineBytes(r.ICacheLineBytes))
	}
	if r.Samples > 0 {
		opts = append(opts, WithSampling(r.Samples, r.SampleInsts))
	}
	return opts
}

// SweepRequest is the body of POST /v1/sweeps: a benchmark × layout ×
// engine × width grid run as one job. Empty dimensions default to the full
// axis (every benchmark, both layouts, every registered engine, width 8).
// The scalar fields configure every cell, like RunRequest.
type SweepRequest struct {
	Benchmarks []string `json:"benchmarks,omitempty"`
	Layouts    []string `json:"layouts,omitempty"`
	Engines    []string `json:"engines,omitempty"`
	Widths     []int    `json:"widths,omitempty"`

	Seed       uint64 `json:"seed,omitempty"`
	TrainSeed  uint64 `json:"train_seed,omitempty"`
	Insts      uint64 `json:"insts,omitempty"`
	TrainInsts uint64 `json:"train_insts,omitempty"`
	MaxInsts   uint64 `json:"max_insts,omitempty"`
	Shards     int    `json:"shards,omitempty"`
	Warmup     uint64 `json:"warmup,omitempty"`
	ColdShards bool   `json:"cold_shards,omitempty"`
	// TimeoutMS bounds the whole sweep's execution time; see
	// RunRequest.TimeoutMS for the semantics.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Priority and DeadlineMS are the sweep's scheduling class and SLO
	// deadline; see the RunRequest fields of the same names. The deadline
	// covers the whole grid (predicted cost sums over cells).
	Priority   int   `json:"priority,omitempty"`
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// normalize fills defaulted axes and validates every cell.
func (r *SweepRequest) normalize() error {
	if r.TimeoutMS < 0 {
		return fmt.Errorf("negative timeout_ms %d", r.TimeoutMS)
	}
	if r.DeadlineMS < 0 {
		return fmt.Errorf("negative deadline_ms %d", r.DeadlineMS)
	}
	if len(r.Benchmarks) == 0 {
		r.Benchmarks = Benchmarks()
	}
	if len(r.Layouts) == 0 {
		r.Layouts = Layouts()
	}
	if len(r.Engines) == 0 {
		r.Engines = Engines()
	}
	if len(r.Widths) == 0 {
		r.Widths = []int{8}
	}
	for _, w := range r.Widths {
		if w <= 0 {
			return fmt.Errorf("invalid width %d", w)
		}
	}
	for _, c := range r.cells() {
		if err := c.validate(); err != nil {
			return err
		}
	}
	return nil
}

// cells enumerates the sweep's grid as run requests, in the order its
// cells return: benchmarks outermost, then layouts, engines, and widths
// innermost. Call only after normalize (which fills defaulted axes).
func (r *SweepRequest) cells() []RunRequest {
	cells := make([]RunRequest, 0, len(r.Benchmarks)*len(r.Layouts)*len(r.Engines)*len(r.Widths))
	for _, b := range r.Benchmarks {
		for _, l := range r.Layouts {
			for _, e := range r.Engines {
				for _, w := range r.Widths {
					cells = append(cells, RunRequest{
						Benchmark: b, Layout: l, Engine: e, Width: w,
						Seed: r.Seed, TrainSeed: r.TrainSeed, Insts: r.Insts, TrainInsts: r.TrainInsts,
						MaxInsts: r.MaxInsts, Shards: r.Shards, Warmup: r.Warmup, ColdShards: r.ColdShards,
					})
				}
			}
		}
	}
	return cells
}

// contentSpec is the input half of a request's content identity: the
// benchmark, seeds and instruction counts with defaults resolved. It
// feeds runKeySpec (and, through a sweep's cells, sweepKeySpec), and
// splits into a preparation identity (prep, the session-cache key) and
// per-run options (runOptions: the reference seed and length, which no
// prepared artifact depends on).
type contentSpec struct {
	benchmark         string
	seed, trainSeed   uint64
	insts, trainInsts uint64
}

// normalized resolves zero fields to the session defaults so "default by
// omission" and "default spelled out" share one content key. trainInsts
// stays 0 when unset: the key has always hashed it as given, and the
// session derives the effective training length itself (Session.training),
// so the rule lives in one place.
func (p contentSpec) normalized() contentSpec {
	if p.seed == 0 {
		p.seed = defaultSeed
	}
	if p.trainSeed == 0 {
		p.trainSeed = defaultTrainSeed
	}
	if p.insts == 0 {
		p.insts = defaultInsts
	}
	return p
}

// runOptions are the spec's per-run fields, passed to every run of a
// shared session.
func (p contentSpec) runOptions() []Option {
	return []Option{WithSeed(p.seed), WithInstructions(p.insts)}
}

// prep returns the spec's preparation identity.
func (p contentSpec) prep() prepSpec {
	return prepSpec{p.benchmark, trainingOf(p.trainSeed, p.trainInsts, p.insts)}
}

// prepSpec is the session-cache key: what a session's prepared artifacts
// depend on. The program and baseline layout depend on the benchmark
// alone, the optimized layout also on the training input; the reference
// seed and length reach each run as options (contentSpec.runOptions).
type prepSpec struct {
	benchmark string
	train     training
}

func (r *RunRequest) contentSpec() contentSpec {
	return contentSpec{r.Benchmark, r.Seed, r.TrainSeed, r.Insts, r.TrainInsts}.normalized()
}

// modelVersion is the version of the model's semantics, carried by every
// run, sweep and checkpoint key. Bump it whenever any report or warm-state
// byte changes for the same request (and re-pin the goldens' hash in
// TestModelVersionPinsGoldens): every stored result and checkpoint then
// misses once and is recomputed, instead of serving a byte the current
// code would not compute. Version 2 is the model that the goldens pinned
// beside it record.
const modelVersion = 2

// runKeySpec is the canonical identity of a run's output: every semantic
// field of a RunRequest with defaults resolved, so "default by omission"
// and "default spelled out" hash to one content key. Runs are
// deterministic for a fixed spec — same spec, byte-identical Report —
// which is what makes the key sound as a cache address and a coalescing
// handle. V is modelVersion.
type runKeySpec struct {
	V           int    `json:"v"`
	Kind        string `json:"kind"`
	Benchmark   string `json:"benchmark"`
	Engine      string `json:"engine"`
	Layout      string `json:"layout"`
	Width       int    `json:"width"`
	Seed        uint64 `json:"seed"`
	TrainSeed   uint64 `json:"train_seed"`
	Insts       uint64 `json:"insts"`
	TrainInsts  uint64 `json:"train_insts"`
	MaxInsts    uint64 `json:"max_insts"`
	Shards      int    `json:"shards"`
	Warmup      uint64 `json:"warmup"`
	ColdShards  bool   `json:"cold_shards"`
	LineBytes   int    `json:"line_bytes"`
	Samples     int    `json:"samples"`
	SampleInsts uint64 `json:"sample_insts"`
}

// contentKey hashes the request's normalized semantic fields. Call only
// after validate.
func (r *RunRequest) contentKey() string {
	return store.Key(r.keySpec())
}

// keySpec resolves the request's semantic fields into its runKeySpec.
// Call only after validate.
func (r *RunRequest) keySpec() runKeySpec {
	p := r.contentSpec()
	k := runKeySpec{
		V:    modelVersion,
		Kind: "run",

		Benchmark:  p.benchmark,
		Seed:       p.seed,
		TrainSeed:  p.trainSeed,
		Insts:      p.insts,
		TrainInsts: p.trainInsts,

		Engine:     cmp.Or(r.Engine, defaultEngine),
		Layout:     cmp.Or(r.Layout, defaultLayout),
		Width:      cmp.Or(r.Width, defaultWidth),
		MaxInsts:   r.MaxInsts,
		Shards:     max(r.Shards, 1),
		Warmup:     r.Warmup,
		ColdShards: r.ColdShards,
		LineBytes:  r.ICacheLineBytes,

		Samples:     max(r.Samples, 0),
		SampleInsts: r.SampleInsts,
	}
	if k.Samples > 0 {
		// Sampling replaces sharding: the shard count is ignored, while
		// Warmup and ColdShards still shape each sampled window.
		k.Shards = 1
	} else {
		k.SampleInsts = 0
		// Warmup and cold-shard mode only shape sharded runs; an unsharded
		// run ignores them, so they must not split its key space.
		if k.Shards <= 1 {
			k.Warmup = 0
			k.ColdShards = false
		}
	}
	return k
}

// sweepKeySpec is the canonical identity of a sweep's cells: its axes and
// the run key of its first cell, whose scalar fields every cell shares.
// The run key's rules for defaults, for fields an unsharded run ignores
// and for the model version are thereby the sweep's too. Axis order is
// semantic (cells return in enumeration order), so the slices hash as
// given — after normalize has resolved empty axes to the full lists.
type sweepKeySpec struct {
	Kind       string     `json:"kind"`
	Benchmarks []string   `json:"benchmarks"`
	Layouts    []string   `json:"layouts"`
	Engines    []string   `json:"engines"`
	Widths     []int      `json:"widths"`
	Cell       runKeySpec `json:"cell"`
}

// contentKey hashes the sweep's normalized identity. Call only after
// normalize (which fills defaulted axes).
func (r *SweepRequest) contentKey() string {
	return store.Key(r.keySpec())
}

// keySpec resolves the sweep into its sweepKeySpec. Call only after
// normalize.
func (r *SweepRequest) keySpec() sweepKeySpec {
	return sweepKeySpec{
		Kind:       "sweep",
		Benchmarks: r.Benchmarks,
		Layouts:    r.Layouts,
		Engines:    r.Engines,
		Widths:     r.Widths,
		Cell:       r.cells()[0].keySpec(),
	}
}

// jobRequest is a validated request parsed into everything a job is built
// from: kind, content key, the bytes journaled for it, the runs it
// simulates (a run's one request, or a sweep's cells) and its execution
// policy. A journaled request parses as its submission did.
type jobRequest struct {
	kind    string // "run" or "sweep"
	key     string
	reqJSON json.RawMessage
	cells   []RunRequest

	timeoutMS, deadlineMS int64
	priority              int
}

// runJobRequest validates a run request and parses it for submission.
func runJobRequest(req RunRequest) (*jobRequest, error) {
	if err := req.validate(); err != nil {
		return nil, err
	}
	return newJobRequest("run", req, req.contentKey(), []RunRequest{req}, req.TimeoutMS, req.DeadlineMS, req.Priority)
}

// sweepJobRequest normalizes a sweep request and parses it for
// submission; the normalized form is what is journaled.
func sweepJobRequest(req SweepRequest) (*jobRequest, error) {
	if err := req.normalize(); err != nil {
		return nil, err
	}
	return newJobRequest("sweep", req, req.contentKey(), req.cells(), req.TimeoutMS, req.DeadlineMS, req.Priority)
}

// newJobRequest completes a parsed request with the bytes journaled for it.
func newJobRequest(kind string, req any, key string, cells []RunRequest, timeoutMS, deadlineMS int64, priority int) (*jobRequest, error) {
	reqJSON, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return &jobRequest{kind, key, reqJSON, cells, timeoutMS, deadlineMS, priority}, nil
}

// journaledRequest parses the request journaled for an accepted job of the
// given kind.
func journaledRequest(kind string, reqJSON json.RawMessage) (*jobRequest, error) {
	switch kind {
	case "run":
		var req RunRequest
		if err := json.Unmarshal(reqJSON, &req); err != nil {
			return nil, err
		}
		return runJobRequest(req)
	case "sweep":
		var req SweepRequest
		if err := json.Unmarshal(reqJSON, &req); err != nil {
			return nil, err
		}
		return sweepJobRequest(req)
	}
	return nil, fmt.Errorf("unknown job kind %q", kind)
}

// maxCachedSessions is the default session-cache bound
// (WithSessionCacheSize overrides it): enough for a broad working set
// (the full 11-benchmark suite at several training inputs) while keeping
// a long-lived daemon's prepared-artifact memory bounded against clients
// that sweep the training key space (e.g. a fresh train seed per
// request).
const maxCachedSessions = 64

// sessionCache shares prepared sessions across jobs, keyed by preparation
// identity (prepSpec) and least-recently-used beyond its bound. Requests
// that differ only in reference seed or length share one session, since
// those reach each run as options. Like every session in the process, the
// cached sessions of one benchmark share one program and baseline layout
// (programOf), so the bound limits optimized layouts, and a benchmark
// whose sessions have all been evicted frees its program. Sessions are
// safe for concurrent RunWith, so two jobs over the same preparation run
// simultaneously; an evicted session keeps serving jobs already holding
// it and is garbage-collected when they finish.
type sessionCache struct {
	mu  sync.Mutex
	cap int // fixed before first use
	m   map[prepSpec]*Session
	use []prepSpec // LRU order, least recently used first
}

// get returns the session for spec's preparation identity. Every run of
// it passes its own seed and length (contentSpec.runOptions).
func (c *sessionCache) get(spec contentSpec) *Session {
	key := spec.prep()
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.m[key]; ok {
		for i, k := range c.use {
			if k == key {
				c.use = append(append(c.use[:i:i], c.use[i+1:]...), key)
				break
			}
		}
		return s
	}
	if c.m == nil {
		c.m = map[prepSpec]*Session{}
	}
	// The training length is spelled out, so no run's length changes it;
	// spec.insts derives the same length where that is 0 (traces under 4
	// instructions), which WithTrainInstructions cannot spell.
	s := New(spec.benchmark, WithTrainSeed(key.train.seed),
		WithTrainInstructions(key.train.insts), WithInstructions(spec.insts))
	c.m[key] = s
	c.use = append(c.use, key)
	for len(c.use) > c.cap {
		delete(c.m, c.use[0])
		c.use = c.use[1:]
	}
	return s
}

func (c *sessionCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// job is one queued or executing unit of service work.
type job struct {
	id   string
	kind string // "run" or "sweep"
	// key is the content hash of the normalized request (the store-cache
	// address of its result); reqJSON the submitted body, journaled so a
	// restart can re-enqueue the job.
	key     string
	reqJSON json.RawMessage

	ctx    context.Context
	cancel context.CancelFunc
	// abort cancels ctx with an explanatory cause (deadline, watchdog
	// stall), so runJob can tell policy cut-downs from client cancels.
	abort context.CancelCauseFunc
	// run executes the job under its context, returning a report (run
	// jobs) or cells (sweep jobs).
	run  func(ctx context.Context) (*Report, []GridCell, error)
	done chan struct{} // closed on reaching a terminal state
	// timeout is the job's effective execution budget (request timeout_ms
	// clamped by the server cap; 0 = unbounded), applied from start, not
	// enqueue. lastAdvance is the unix-nano time of the last measurable
	// progress (retired instructions or completed cells; set at start),
	// read by the watchdog.
	timeout     time.Duration
	lastAdvance atomic.Int64

	// Admission policy and prediction, fixed at submit: the scheduling
	// class and absolute SLO deadline ordering the queue (see jobOrder),
	// the submission sequence breaking ties FIFO, and the cost model's
	// predicted execution work-seconds plus the queue-delay estimate at
	// acceptance (surfaced on the envelope).
	priority      int
	deadline      time.Time
	seq           int
	predictedSecs float64
	queueDelay    float64

	mu       sync.Mutex
	state    JobState
	enqueued time.Time
	started  time.Time
	finished time.Time
	report   *Report
	cells    []GridCell
	err      error
	// timings is the per-stage breakdown of a job that ran (cells summed
	// for a sweep, queue wait included); set by finish.
	timings *Timings
	// cached marks a job answered from the result cache (terminal at
	// birth, never enqueued; a submission's hit is also never journaled
	// or registered, see hitID); userCancel distinguishes an explicit
	// DELETE from a shutdown interruption — only the former journals a
	// terminal record, so interrupted jobs re-run after a restart.
	cached     bool
	userCancel bool
	// restored is the terminal envelope recovered from the journal for
	// jobs that finished in a previous process generation; when set it is
	// served as-is.
	restored *JobEnvelope

	pmu        sync.Mutex
	shardRet   map[int]uint64 // retired per reporting shard (key 0 unsharded)
	total      uint64
	cellsDone  int
	cellsTotal int
}

// noteProgress records a session progress callback; sharded callbacks
// arrive concurrently, one per interval. Only an advancing retired count
// feeds the watchdog: the simulator also fires callbacks on a cycle
// cadence so stalls stay cancellable, and those must not look like
// progress.
func (j *job) noteProgress(p Progress) {
	j.pmu.Lock()
	if j.shardRet == nil {
		j.shardRet = map[int]uint64{}
	}
	if p.Retired > j.shardRet[p.Shard] {
		j.lastAdvance.Store(time.Now().UnixNano())
	}
	j.shardRet[p.Shard] = p.Retired
	j.total = p.Total
	j.pmu.Unlock()
}

// noteCell records sweep-cell completion.
func (j *job) noteCell(done, total int) {
	j.pmu.Lock()
	if done > j.cellsDone {
		j.cellsDone = done
		j.lastAdvance.Store(time.Now().UnixNano())
	}
	j.cellsTotal = total
	j.pmu.Unlock()
}

// tryStart moves queued → running; false when the job was cancelled while
// queued (it must not run).
func (j *job) tryStart() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobQueued {
		return false
	}
	j.state = JobRunning
	j.started = time.Now()
	// Preparation (synthesis, profiling, layouts) precedes the first
	// progress callback; starting the watchdog clock here keeps it from
	// counting queue wait against the job.
	j.lastAdvance.Store(j.started.UnixNano())
	return true
}

// finish is the job's one terminal transition: from state from to the
// terminal state to, carrying the job's result. It reports false, and
// changes nothing, when the job is not in state from, so a queued job
// either starts (tryStart) or is finished while queued, never both.
func (j *job) finish(from, to JobState, rep *Report, cells []GridCell, err error) bool {
	j.mu.Lock()
	if j.state != from {
		j.mu.Unlock()
		return false
	}
	j.state = to
	j.finished = time.Now()
	j.report = rep
	j.cells = cells
	j.err = err
	if from == JobRunning {
		// The terminal envelope — and the journal record persist writes
		// from it — carries where the job's time went.
		j.timings = stageTimings(rep, cells, j.started.Sub(j.enqueued))
	}
	j.mu.Unlock()
	close(j.done)
	return true
}

// envelope snapshots the job as its public resource representation.
func (j *job) envelope() *JobEnvelope {
	now := time.Now()
	j.mu.Lock()
	if j.restored != nil {
		env := *j.restored
		j.mu.Unlock()
		return &env
	}
	env := &JobEnvelope{
		ID:                j.id,
		Kind:              j.kind,
		State:             j.state,
		Key:               j.key,
		Cached:            j.cached,
		EnqueuedAt:        j.enqueued,
		StartedAt:         j.started,
		FinishedAt:        j.finished,
		PredictedSeconds:  j.predictedSecs,
		QueueDelaySeconds: j.queueDelay,
	}
	if !j.started.IsZero() {
		env.WaitSeconds = j.started.Sub(j.enqueued).Seconds()
		end := now
		if !j.finished.IsZero() {
			end = j.finished
		}
		env.RunSeconds = end.Sub(j.started).Seconds()
	}
	if j.state.Terminal() {
		env.Report = j.report
		env.Cells = j.cells
		env.Timings = j.timings
		if j.err != nil {
			env.Error = j.err.Error()
		}
	}
	j.mu.Unlock()

	j.pmu.Lock()
	var retired uint64
	for _, r := range j.shardRet {
		retired += r
	}
	if retired > 0 || j.total > 0 || j.cellsTotal > 0 {
		env.Progress = &JobProgress{
			Retired:    retired,
			Total:      j.total,
			CellsDone:  j.cellsDone,
			CellsTotal: j.cellsTotal,
		}
	}
	j.pmu.Unlock()
	return env
}

// jobManager owns the queue, the registry, the worker pool and the
// durability store.
type jobManager struct {
	workers int
	retain  int // terminal jobs kept in the registry

	baseCtx context.Context
	stopAll context.CancelFunc

	// queue orders admitted jobs by (priority, deadline, arrival);
	// queueCap bounds admissions (the heap itself is unbounded so
	// recovery and internal re-offers never block).
	queue    *jobQueue
	queueCap int
	// admitting counts submissions that have reserved a queue slot but
	// are still journaling outside the lock; the fullness check counts
	// them so the capacity promise holds without holding m.mu across
	// store I/O. A reservation lasts until its submission is queued or
	// refused, retraction included. Guarded by m.mu; admissionsIdle (on
	// m.mu) is broadcast when it falls to 0, which shutdown waits for.
	admitting      int
	admissionsIdle *sync.Cond
	// admittingKeys holds, per content key, a channel closed when the
	// submission journaling that key settles; identical submissions wait
	// on it instead of starting a twin job. Guarded by m.mu.
	admittingKeys map[string]chan struct{}

	slotFree chan struct{}  // pulsed when an extra job runner finishes
	wg       sync.WaitGroup // dispatcher + spawned job runners

	mu       sync.Mutex
	draining bool
	jobs     map[string]*job
	done     []string        // terminal job ids, oldest first, for eviction
	inflight map[string]*job // non-terminal jobs by content key, for coalescing
	nextID   int

	spawned atomic.Int64 // token-held extra job runners in flight

	sessions sessionCache

	store     store.Store
	ownStore  bool // close the store at shutdown (we opened it)
	closeOnce sync.Once

	// Job-robustness policy (see WithMaxJobTime / WithWatchdog) and the
	// goroutines that enforce it: the watchdog scanning for stalled jobs
	// and the probe testing a degraded store for recovery. They outlive
	// the worker pool's WaitGroup on purpose — m.wg is waited before
	// stopAll during a clean drain, and these loops only exit on stopAll.
	maxJobTime time.Duration
	watchdog   time.Duration
	probeEvery time.Duration
	auxWG      sync.WaitGroup

	// Degraded mode: flipped by a persistently failing store write, cleared
	// by any later successful write (including the probe's). While set,
	// submissions skip the journal and are accepted from memory — explicit
	// availability-over-durability, surfaced on /healthz.
	retryPolicy    retry.Policy
	degraded       atomic.Bool
	dmu            sync.Mutex // guards lastStoreErr/lastStoreErrAt
	lastStoreErr   error
	lastStoreErrAt time.Time

	hits      atomic.Int64 // submissions answered from the result cache
	misses    atomic.Int64 // submissions that enqueued a simulation
	coalesced atomic.Int64 // submissions folded into an in-flight twin
	storeErrs atomic.Int64 // store writes that failed after retries
	retries   atomic.Int64 // individual store-write retry attempts

	// Warm-state checkpoint outcomes summed over every executed job
	// (see WithCheckpoints): intervals restored from the store versus
	// intervals that warmed functionally and published a checkpoint.
	ckptHits   atomic.Int64
	ckptMisses atomic.Int64

	// SLO admission: the online cost model predicting execution time per
	// (engine, width, mode), the count of deadline-infeasible submissions
	// shed up front, and the EWMA of |actual−predicted|/predicted over
	// finished predicted jobs (smoothed the same way as the model's
	// rates; pmu guards it).
	slo  *slo.Model
	shed atomic.Int64
	pmu  sync.Mutex
	// predErr < 0 means "no finished predicted job yet".
	predErr float64

	// stageSeconds holds the /metrics stage-latency histograms fed by
	// finished jobs, one per entry of stages.
	stageSeconds [len(stages)]*metrics.Histogram
	startedAt    time.Time

	// runHook, when set, observes each simulation a job runs (test seam
	// for coalescing/caching assertions: coalesced and cached submissions,
	// and sweep cells answered from the cache, never trigger it). Set
	// before any submission.
	runHook func()
}

// newJobManager builds the manager and replays the store's journal:
// terminal jobs are registered so their results keep serving, journaled
// unfinished jobs are re-enqueued ahead of any new submission. The queue
// is sized to hold the full recovery debt even when it exceeds
// queueDepth, so a restart never drops journaled work.
func newJobManager(cfg serverConfig, st store.Store, ownStore bool) (*jobManager, error) {
	recs, err := st.Recover()
	if err != nil {
		return nil, err
	}
	pending := 0
	for _, rec := range recs {
		if !store.Terminal(rec.State) {
			pending++
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &jobManager{
		workers: cfg.workers,
		retain:  cfg.retainJobs,
		baseCtx: ctx,
		stopAll: cancel,
		queue:   newJobQueue(),
		// Sized to hold the full recovery debt even when it exceeds
		// queueDepth, so a restart never drops journaled work.
		queueCap:      max(cfg.queueDepth, pending),
		slotFree:      make(chan struct{}, 1),
		jobs:          map[string]*job{},
		inflight:      map[string]*job{},
		admittingKeys: map[string]chan struct{}{},
		store:         st,
		ownStore:      ownStore,
		maxJobTime:    cfg.maxJobTime,
		watchdog:      cfg.watchdog,
		probeEvery:    cfg.probeEvery,
		retryPolicy:   retry.Default(),
		slo:           slo.NewModel(),
		predErr:       -1,
		startedAt:     time.Now(),
	}
	m.admissionsIdle = sync.NewCond(&m.mu)
	m.sessions.cap = cfg.sessionCap
	for i := range m.stageSeconds {
		m.stageSeconds[i] = metrics.NewHistogram(stageBuckets)
	}
	for _, rec := range recs {
		m.restore(rec)
	}
	m.wg.Add(1)
	go m.dispatch()
	m.auxWG.Add(1)
	go m.probeLoop()
	if m.watchdog > 0 {
		m.auxWG.Add(1)
		go m.watchdogLoop()
	}
	return m, nil
}

// jobSeq extracts the numeric suffix of a job id ("run-000042" → 42).
func jobSeq(id string) (int, bool) {
	i := strings.LastIndexByte(id, '-')
	if i < 0 {
		return 0, false
	}
	n, err := strconv.Atoi(id[i+1:])
	return n, err == nil
}

// restore registers one recovered journal record: the terminal envelope
// of a finished job, or the job an accepted record is owed, built from its
// journaled request as its submission built it. Recovered terminal jobs
// count against retention. Runs before the dispatcher starts.
func (m *jobManager) restore(rec store.JournalRecord) {
	if _, dup := m.jobs[rec.ID]; dup {
		return
	}
	if n, ok := jobSeq(rec.ID); ok && n > m.nextID {
		m.nextID = n
	}
	if store.Terminal(rec.State) {
		var env JobEnvelope
		if json.Unmarshal(rec.Envelope, &env) != nil || env.ID == "" {
			return // pre-seal noise; nothing servable
		}
		m.restoreTerminal(rec.ID, JobState(rec.State), &env)
		return
	}

	// An accepted job with no terminal record is owed a run. Its content
	// key comes from its journaled request, as a submission's does, not
	// from the record: a key journaled under another model version, or
	// naming another request, would serve a report this request does not
	// have and keep identical submissions from coalescing onto it.
	r, err := journaledRequest(rec.Kind, rec.Request)
	if err != nil {
		// The journaled request no longer parses or validates (schema
		// drift, disk corruption inside an intact line): surface a failed
		// terminal job rather than dropping the id, journaled so it keeps
		// serving after the next restart.
		j := m.restoreTerminal(rec.ID, JobFailed, &JobEnvelope{
			ID: rec.ID, Kind: rec.Kind, State: JobFailed, EnqueuedAt: rec.Time, FinishedAt: time.Now(),
			Error: "streamfetch: journaled request is not recoverable",
		})
		m.journal(j, JobFailed)
		return
	}

	// If its result landed in the cache meanwhile (a twin completed, or
	// the process died between the blob write and the terminal journal
	// record), answer from the cache instead of re-simulating.
	if blob, ok, err := m.store.GetBlob(r.key); err == nil && ok {
		if j := m.cachedJob(rec.ID, r.kind, r.key, blob); j != nil {
			m.hits.Add(1)
			m.jobs[rec.ID] = j
			m.retire(j)
			m.journal(j, JobDone)
			return
		}
	}

	// Recovered jobs keep their journaled policy: the original priority,
	// the deadline anchored at the original submission time (an
	// already-blown deadline just sorts first and runs — the job was
	// accepted; recovery must not shed it), and the arrival order of
	// their ids.
	j := m.newJob(rec.ID, r, m.policy(r, rec.Time), rec.Time)
	m.jobs[rec.ID] = j
	m.inflight[r.key] = j
	m.queue.push(j)
}

// restoreTerminal registers a job that is terminal at recovery and serves
// env as-is.
func (m *jobManager) restoreTerminal(id string, state JobState, env *JobEnvelope) *job {
	j := &job{id: id, kind: env.Kind, key: env.Key, state: state, restored: env, done: closedChan()}
	m.jobs[id] = j
	m.retire(j)
	return j
}

// closedChan returns an already-closed done channel for jobs that are
// terminal at construction.
func closedChan() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}

// cachedJob builds a terminal job from a cached result blob, or nil when
// the blob does not decode as the kind's payload (a checkpoint, or the
// other kind's result).
func (m *jobManager) cachedJob(id, kind, key string, blob []byte) *job {
	j := &job{
		id:     id,
		kind:   kind,
		key:    key,
		state:  JobDone,
		cached: true,
		done:   closedChan(),
	}
	now := time.Now()
	j.enqueued, j.finished = now, now
	switch kind {
	case "run":
		if j.report = decodeReport(blob); j.report == nil {
			return nil
		}
	case "sweep":
		var cells []GridCell
		if json.Unmarshal(blob, &cells) != nil || len(cells) == 0 {
			return nil
		}
		j.cells = cells
	default:
		return nil
	}
	return j
}

// decodeReport decodes a stored run result, or returns nil when the blob
// is not one.
func decodeReport(blob []byte) *Report {
	var rep Report
	if json.Unmarshal(blob, &rep) != nil || rep.Benchmark == "" {
		return nil
	}
	return &rep
}

// putResult stores a clean result (a run's report or a sweep's cells)
// under its content key, where later submissions and sweep cells find it.
func (m *jobManager) putResult(key string, v any) {
	blob, err := resultBlob(v)
	if err != nil {
		m.storeErrs.Add(1)
		return
	}
	m.storeWrite(func() error { return m.store.PutBlob(key, blob) })
}

// resultBlob encodes a result as the store holds it.
func resultBlob(v any) ([]byte, error) {
	blob, err := json.MarshalIndent(v, "", "  ")
	return append(blob, '\n'), err
}

// storeWrite runs one store write under the retry policy: transient
// failures back off and retry, exhausting the policy counts a store
// error and flips the server degraded, and any success — a later job's
// write or the probe's — clears degraded mode again.
func (m *jobManager) storeWrite(fn func() error) error {
	err := retry.Do(m.baseCtx, m.retryPolicy, fn, func(error) { m.retries.Add(1) })
	if err != nil {
		m.storeErrs.Add(1)
		m.dmu.Lock()
		m.lastStoreErr, m.lastStoreErrAt = err, time.Now()
		m.dmu.Unlock()
		m.degraded.Store(true)
		return err
	}
	m.degraded.Store(false)
	return nil
}

// storeHealth snapshots the degraded-mode surface for /healthz. The last
// error stays visible after recovery — it says what went wrong, degraded
// says whether it still is.
func (m *jobManager) storeHealth() (degraded bool, lastErr string, lastAt time.Time) {
	m.dmu.Lock()
	defer m.dmu.Unlock()
	if m.lastStoreErr != nil {
		lastErr = m.lastStoreErr.Error()
	}
	return m.degraded.Load(), lastErr, m.lastStoreErrAt
}

// journal appends one record for the job in state, counting write
// errors (see storeWrite). Past acceptance a caller ignores the error: a
// degraded store must not take down serving. Terminal records carry the
// envelope, the queued record the request and the time of acceptance.
func (m *jobManager) journal(j *job, state JobState) error {
	rec := store.JournalRecord{
		ID:    j.id,
		Kind:  j.kind,
		Key:   j.key,
		State: string(state),
		Time:  time.Now(),
	}
	if state.Terminal() {
		env, err := json.Marshal(j.envelope())
		if err != nil {
			m.storeErrs.Add(1)
			return err
		}
		rec.Envelope = env
	} else {
		rec.Time, rec.Request = j.enqueued, j.reqJSON
	}
	return m.storeWrite(func() error { return m.store.Journal(rec) })
}

// jobPolicy is a request's admission policy resolved at submission: its
// absolute SLO deadline (zero = none) and the cost model's predicted
// execution work-seconds.
type jobPolicy struct {
	deadline  time.Time
	predicted float64
}

// sloKey buckets the request for the cost model: engine, width and
// execution shape, with the session defaults resolved.
func (r *RunRequest) sloKey() slo.Key {
	mode := slo.ModePlain
	switch {
	case r.Samples > 0:
		mode = slo.ModeSampled
	case r.Shards > 1:
		mode = slo.ModeSharded
	}
	return slo.Key{
		Engine: cmp.Or(r.Engine, defaultEngine),
		Width:  cmp.Or(r.Width, defaultWidth),
		Mode:   mode,
	}
}

// workInsts estimates how many instructions the run will simulate: the
// trace length, cut by max_insts, or the sampled windows' coverage
// (lead-ins included) for sampled runs.
func (r *RunRequest) workInsts() uint64 {
	n := r.contentSpec().insts
	if r.MaxInsts > 0 && r.MaxInsts < n {
		n = r.MaxInsts
	}
	if r.Samples > 0 {
		if w := uint64(r.Samples) * (r.SampleInsts + r.Warmup); w < n {
			n = w
		}
	}
	return n
}

// policy resolves a request's admission policy, submitted at time at. The
// predicted cost sums over the runs the job simulates: a run's one
// request, or every cell of a sweep (serial work-seconds, a conservative
// bound; the queue-delay estimate is what accounts for worker
// parallelism).
func (m *jobManager) policy(r *jobRequest, at time.Time) jobPolicy {
	var pol jobPolicy
	for _, c := range r.cells {
		pol.predicted += m.slo.Predict(c.sloKey(), c.workInsts())
	}
	if r.deadlineMS > 0 {
		pol.deadline = at.Add(msToDuration(r.deadlineMS))
	}
	return pol
}

// queueEstimateLocked sums the predicted backlog: full predicted cost
// for queued jobs, the predicted remainder for running ones. delay is
// the backlog spread over the worker pool — the expected wait a new
// submission sees. Callers hold m.mu.
func (m *jobManager) queueEstimateLocked() (backlog, delay float64) {
	now := time.Now()
	for _, j := range m.jobs {
		j.mu.Lock()
		switch j.state {
		case JobQueued:
			backlog += j.predictedSecs
		case JobRunning:
			if rem := j.predictedSecs - now.Sub(j.started).Seconds(); rem > 0 {
				backlog += rem
			}
		}
		j.mu.Unlock()
	}
	return backlog, backlog / float64(max(m.workers, 1))
}

// submit accepts one parsed request: coalesced onto an identical
// in-flight job (same job returned), answered from the result cache
// (terminal immediately, never enqueued, registered or journaled; see
// hitID), or built by newJob, journaled and enqueued as a fresh job —
// rejecting when draining, deadline-infeasible or full. It takes the
// parser's results as they come: a parse error is the submission's.
//
// The returned envelope is the submission's answer. A fresh job's is
// taken before the job is queued, so it says queued however fast a
// worker picks the job up; a coalesced or cached job's is its state now.
//
// Store writes happen outside m.mu: the journal retries with backoff
// when the store misbehaves, and holding the registry lock across that
// would convoy every poll, cancel and /healthz behind disk I/O. The
// queue-capacity promise survives the unlock through the admitting
// reservation, and coalescing through admittingKeys: an identical twin
// submitted mid-journal waits for that journal to settle, then coalesces
// onto the admitted job (or, if it was refused, tries on its own).
func (m *jobManager) submit(r *jobRequest, parseErr error) (*job, *JobEnvelope, error) {
	if parseErr != nil {
		return nil, nil, parseErr
	}
	pol := m.policy(r, time.Now())
	// Cache lookup outside the registry lock: blob reads may touch disk.
	var cachedBlob []byte
	if blob, ok, err := m.store.GetBlob(r.key); err == nil && ok {
		cachedBlob = blob
	}

	m.mu.Lock()
	for {
		if m.draining {
			m.mu.Unlock()
			return nil, nil, ErrDraining
		}
		if leader := m.inflight[r.key]; leader != nil {
			// An identical job is queued or running: one simulation,
			// fan-out of the result. The submitter shares the leader's id
			// (and its cancellation — DELETE cancels for every submitter).
			m.coalesced.Add(1)
			m.mu.Unlock()
			return leader, leader.envelope(), nil
		}
		// An identical submission journaling outside the lock: wait for
		// it to settle, then look again.
		twin := m.admittingKeys[r.key]
		if twin == nil {
			break
		}
		m.mu.Unlock()
		<-twin
		m.mu.Lock()
	}
	if cachedBlob != nil {
		// A hit is a read: it takes no sequence number, enters no
		// registry and writes no journal record. Its id names its content
		// key, which get resolves against the store.
		if j := m.cachedJob(hitID(r.kind, r.key), r.kind, r.key, cachedBlob); j != nil {
			m.hits.Add(1)
			m.mu.Unlock()
			return j, j.envelope(), nil
		}
	}
	m.nextID++
	id := fmt.Sprintf("%s-%06d", r.kind, m.nextID)

	// Admission control: a deadline the daemon already knows it cannot
	// meet is shed now — before any durability promise — with the
	// prediction in the error. An accepted-then-failed deadline would
	// cost a queue slot, a journal record and a simulation for nothing.
	_, delay := m.queueEstimateLocked()
	if !pol.deadline.IsZero() {
		deadlineSecs := time.Until(pol.deadline).Seconds()
		if delay+pol.predicted > deadlineSecs {
			m.shed.Add(1)
			m.mu.Unlock()
			return nil, nil, &InfeasibleError{
				PredictedSeconds:  pol.predicted,
				QueueDelaySeconds: delay,
				DeadlineSeconds:   deadlineSecs,
			}
		}
	}

	// Only this lock admits producers, so a spot measured now cannot be
	// taken by anyone else; the dispatcher only drains. admitting covers
	// submissions journaling outside the lock below — reserved but not
	// yet queued. Checking before journaling keeps rejected submissions
	// out of the journal: a journaled job is a promise to run it.
	if m.queue.len()+m.admitting >= m.queueCap {
		m.mu.Unlock()
		return nil, nil, ErrQueueFull
	}
	m.admitting++
	settled := make(chan struct{})
	m.admittingKeys[r.key] = settled
	degraded := m.degraded.Load()
	m.mu.Unlock()

	j := m.newJob(id, r, pol, time.Now())
	j.queueDelay = delay
	var storeErr error
	if !degraded {
		// In degraded mode, already declared on /healthz, the job is
		// accepted from memory without the journal write that would fail
		// anyway. Availability over durability — the job will not survive
		// a restart. The probe (and every later store write) keeps testing
		// for recovery.
		storeErr = m.journal(j, JobQueued)
	}

	m.mu.Lock()
	// Waiters re-check under m.mu, after this section has registered the
	// job in inflight or refused it.
	delete(m.admittingKeys, r.key)
	close(settled)
	if storeErr == nil && !m.draining {
		// Queued under the lock a drain starts under: no shutdown has
		// begun to wait on the reservation, and the drain will run the job.
		m.admitting--
		m.jobs[id] = j
		m.inflight[r.key] = j
		m.misses.Add(1)
		env := j.envelope()
		m.queue.push(j)
		m.mu.Unlock()
		return j, env, nil
	}
	m.mu.Unlock()
	// A refusal holds its reservation until settled, retraction included:
	// shutdown waits for it before it closes the store.
	defer m.endAdmission()
	j.cancel()
	if storeErr != nil {
		// The 202 is a durability promise; without the journal record the
		// job would silently vanish in a crash. Refuse this one — the
		// failure flipped the server degraded, so the next submission is
		// accepted memory-only under the declared policy.
		return nil, nil, fmt.Errorf("%w: %v", ErrStore, storeErr)
	}
	// Drain flipped during the journaling window: this process will never
	// run the job. Refuse the submission and retract the queued journal
	// record with a terminal cancelled one, so a restart does not
	// resurrect a job whose submitter was told no.
	j.finish(JobQueued, JobCancelled, nil, nil, ErrDraining)
	if !degraded {
		m.journal(j, JobCancelled)
	}
	return nil, nil, ErrDraining
}

// endAdmission ends a refused submission's queue reservation.
func (m *jobManager) endAdmission() {
	m.mu.Lock()
	if m.admitting--; m.admitting == 0 {
		m.admissionsIdle.Broadcast()
	}
	m.mu.Unlock()
}

// msToDuration converts validated (non-negative) milliseconds to a
// Duration, saturating instead of overflowing: time.Duration(ms) *
// time.Millisecond wraps negative past ~9.2e12 ms, which would read as
// "tighter than any cap" in one place and "unbounded" in another.
func msToDuration(ms int64) time.Duration {
	const maxMS = int64(math.MaxInt64) / int64(time.Millisecond)
	if ms > maxMS {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(ms) * time.Millisecond
}

// effTimeout resolves a request's timeout_ms against the server cap: the
// tighter of the two wins; 0 means unbounded.
func (m *jobManager) effTimeout(ms int64) time.Duration {
	d := msToDuration(ms)
	if m.maxJobTime > 0 && (d == 0 || d > m.maxJobTime) {
		d = m.maxJobTime
	}
	return d
}

// newJob builds the queued job for r under id, accepted at `at` with
// policy pol: cancellable (by shutdown too), bounded by r's timeout under
// the server cap, and running r's cells — a run's one request with
// progress reporting, or a sweep's grid cell by cell.
func (m *jobManager) newJob(id string, r *jobRequest, pol jobPolicy, at time.Time) *job {
	ctx, abort := context.WithCancelCause(m.baseCtx)
	j := &job{
		id:            id,
		kind:          r.kind,
		key:           r.key,
		reqJSON:       r.reqJSON,
		state:         JobQueued,
		enqueued:      at,
		ctx:           ctx,
		cancel:        func() { abort(context.Canceled) },
		abort:         abort,
		done:          make(chan struct{}),
		timeout:       m.effTimeout(r.timeoutMS),
		priority:      r.priority,
		deadline:      pol.deadline,
		predictedSecs: pol.predicted,
	}
	j.seq, _ = jobSeq(id)
	cells := r.cells
	if r.kind == "run" {
		j.run = func(ctx context.Context) (*Report, []GridCell, error) {
			rep, err := m.simulate(ctx, cells[0], WithProgress(0, j.noteProgress))
			return rep, nil, err
		}
	} else {
		j.cellsTotal = len(cells)
		j.run = func(ctx context.Context) (*Report, []GridCell, error) {
			out, err := sweepCells(ctx, cells, m.store, m.simulate, m.putResult, j.noteCell)
			return nil, out, err
		}
	}
	return j
}

// simulate runs one request on its cached session, with stage timings and
// the daemon's store for warm-state checkpoints. An interval opens by
// restoring its boundary's warm state whether the snapshot comes from the
// store or from the run's own warming walk, so the content-keyed result
// cache stays sound: reports differ at most in their checkpoint counters.
// The run feeds those counters and, when clean, the cost model. A panic
// fails this simulation only, with the stack in its error.
func (m *jobManager) simulate(ctx context.Context, req RunRequest, opts ...Option) (rep *Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			rep, err = nil, fmt.Errorf("streamfetch: simulation panicked: %v\n%s", r, debug.Stack())
		}
	}()
	if h := m.runHook; h != nil {
		h()
	}
	spec := req.contentSpec()
	opts = append(append(append(spec.runOptions(), req.runOptions()...), opts...),
		WithStageTimings(), WithCheckpoints(m.store))
	rep, err = m.sessions.get(spec).RunWith(ctx, opts...)
	if rep != nil {
		m.ckptHits.Add(int64(rep.CheckpointHits))
		m.ckptMisses.Add(int64(rep.CheckpointMisses))
	}
	// Feed the cost model with the measured rate so the next prediction
	// for this (engine, width, mode) reflects this machine. Aborted or
	// failed runs are not representative.
	if err == nil && rep != nil && !rep.Aborted && rep.Timings != nil {
		m.slo.Observe(req.sloKey(), rep.Retired, rep.Timings.workSeconds())
	}
	return rep, err
}

// RunSweep answers every cell of a sweep, normalized and validated as
// POST /v1/sweeps does, in enumeration order. A cell is answered by the
// report stored under its run content key in st, or else simulated, and
// stored there when clean; a nil st caches within this call only. The
// execution-policy fields are the daemon's and are ignored. The first
// error or cancellation stops new cells and is returned with the grid,
// cells never reached keeping a nil Report.
func RunSweep(ctx context.Context, req SweepRequest, st store.Store) ([]GridCell, error) {
	if err := req.normalize(); err != nil {
		return nil, err
	}
	if st == nil {
		st = store.NewMem()
	}
	sessions := &sessionCache{cap: len(req.Benchmarks)} // cells share seeds and lengths
	simulate := func(ctx context.Context, r RunRequest, opts ...Option) (*Report, error) {
		spec := r.contentSpec()
		return sessions.get(spec).RunWith(ctx, append(append(spec.runOptions(), r.runOptions()...), opts...)...)
	}
	put := func(key string, v any) {
		if blob, err := resultBlob(v); err == nil {
			_ = st.PutBlob(key, blob) // a lost write costs a later sweep one simulation
		}
	}
	return sweepCells(ctx, req.cells(), st, simulate, put, func(int, int) {})
}

// sweepCells answers a sweep's cells on the process-wide worker budget,
// returning one GridCell per cell in enumeration order. A cell is
// answered by the report stored under its run content key in st, which
// ran no simulation here and so carries no timings, or else by simulate,
// and put stores a clean simulated report under that key. The first
// error (or cancellation) stops new cells from being claimed; in-flight
// cells finish, and the partial grid is returned with that error. Every
// finished cell, a failed one included, ticks onCell, or a sweep grinding
// through failing cells would look stalled to the daemon's watchdog and
// its cells_done could never reach cells_total.
func sweepCells(ctx context.Context, reqs []RunRequest, st store.Store,
	simulate func(context.Context, RunRequest, ...Option) (*Report, error),
	put func(key string, v any), onCell func(done, total int)) ([]GridCell, error) {
	cells := make([]GridCell, len(reqs))
	for i, r := range reqs {
		cells[i] = GridCell{Benchmark: r.Benchmark, Layout: r.Layout, Engine: r.Engine, Width: r.Width}
	}
	answer := func(req RunRequest) (*Report, error) {
		key := req.contentKey()
		if blob, ok, err := st.GetBlob(key); err == nil && ok {
			if rep := decodeReport(blob); rep != nil {
				rep.Timings = nil
				return rep, nil
			}
		}
		rep, err := simulate(ctx, req)
		if err == nil && rep != nil && !rep.Aborted {
			put(key, rep)
		}
		return rep, err
	}
	var done atomic.Int64
	err := par.Do(ctx, len(reqs), func(i int) error {
		rep, err := answer(reqs[i])
		c := &cells[i]
		if err != nil {
			c.Error = err.Error()
			err = fmt.Errorf("%s/%s/%s w=%d: %w", c.Benchmark, c.Layout, c.Engine, c.Width, err)
		} else {
			c.Report = rep
		}
		onCell(int(done.Add(1)), len(reqs))
		return err
	})
	return cells, err
}

// submitRun validates and submits a single-configuration run.
func (m *jobManager) submitRun(req RunRequest) (*job, *JobEnvelope, error) {
	return m.submit(runJobRequest(req))
}

// submitSweep validates and submits a grid sweep as one job.
func (m *jobManager) submitSweep(req SweepRequest) (*job, *JobEnvelope, error) {
	return m.submit(sweepJobRequest(req))
}

// get returns a job by id (nil when unknown). A cache hit's id is in no
// registry: it resolves, outside the registry lock, from the blob its
// content key names, for as long as that blob exists.
func (m *jobManager) get(id string) *job {
	m.mu.Lock()
	j := m.jobs[id]
	m.mu.Unlock()
	if j != nil {
		return j
	}
	kind, key, ok := parseHitID(id)
	if !ok {
		return nil
	}
	blob, ok, err := m.store.GetBlob(key)
	if err != nil || !ok {
		return nil
	}
	return m.cachedJob(id, kind, key, blob)
}

// hitID is the id of a submission answered from the result cache:
// "<kind>-hit-<content key>". It is derived, not minted, so a hit costs
// no journal record and no registry entry, and its id keeps resolving
// across restarts and past job retention.
func hitID(kind, key string) string { return kind + "-hit-" + key }

// parseHitID splits a hit id into its kind and content key, refusing any
// key that is not a 64-digit lowercase hex hash (store.Key's form), so a
// malformed id never reaches the store.
func parseHitID(id string) (kind, key string, ok bool) {
	for _, kind := range []string{"run", "sweep"} {
		if key, found := strings.CutPrefix(id, kind+"-hit-"); found {
			return kind, key, len(key) == 64 && strings.Trim(key, "0123456789abcdef") == ""
		}
	}
	return "", "", false
}

// cancelJob cancels one job on a client's explicit request: a queued job
// goes terminal immediately and never runs; a running job has its
// context cancelled and finishes as cancelled once the simulation
// observes it (its shard workers release their pool tokens on the way
// out). Terminal jobs are untouched. A coalesced job is one job: DELETE
// cancels it for every submitter that shares its id.
func (m *jobManager) cancelJob(j *job) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.userCancel = true
	j.mu.Unlock()
	queued := j.finish(JobQueued, JobCancelled, nil, nil, context.Canceled)
	j.cancel()
	if queued {
		// It never started, and never will: the dispatcher skips it.
		m.persist(j)
		m.retire(j)
	}
}

// retire records a terminal job for bounded retention: the registry keeps
// the most recent `retain` finished jobs (their envelopes, reports and
// sweep cells) and evicts the oldest beyond that, so a long-lived daemon's
// memory is bounded however many jobs it has served. Evicted ids answer
// 404 from this process — a daemon on a filesystem store serves them
// again after a restart, which replays the journal's terminal envelopes.
func (m *jobManager) retire(j *job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.done = append(m.done, j.id)
	for len(m.done) > m.retain {
		delete(m.jobs, m.done[0])
		m.done = m.done[1:]
	}
}

// persist makes a terminal job durable: its result blob lands in the
// content-addressed cache (successful jobs only — partial or failed
// output must never be served as a hit) and its envelope is journaled so
// a restart keeps serving it. The one exception is a job cancelled by
// shutdown rather than by a client: it stays journaled as accepted, which
// is exactly what makes a restarted daemon re-enqueue and finish it.
//
// Also releases the job's coalescing slot, after the result blob is
// written: until then an identical submission finds neither the slot nor
// the cache entry, and would simulate again. A submission that coalesces
// onto the finished job in that window gets its done envelope.
func (m *jobManager) persist(j *job) {
	j.mu.Lock()
	state, userCancel := j.state, j.userCancel
	rep, cells := j.report, j.cells
	j.mu.Unlock()

	if state == JobDone {
		switch {
		case j.kind == "run" && rep != nil && !rep.Aborted:
			m.putResult(j.key, rep)
		case j.kind == "sweep" && len(cells) > 0:
			m.putResult(j.key, cells)
		}
	}

	m.mu.Lock()
	if m.inflight[j.key] == j {
		delete(m.inflight, j.key)
	}
	m.mu.Unlock()

	if state == JobCancelled && !userCancel && m.baseCtx.Err() != nil {
		return // interrupted by shutdown: the journal still owes it a run
	}
	m.journal(j, state)
}

// dispatch drains the queue in priority order, placing each job on a
// worker.
func (m *jobManager) dispatch() {
	defer m.wg.Done()
	for {
		j, ok := m.queue.pop()
		if !ok {
			return
		}
		m.place(j)
	}
}

// place runs one job. When the worker cap and the par pool both allow,
// the job is handed to an extra goroutine holding one pool token for the
// job's duration, so concurrent jobs and the shard workers inside them
// draw from the same GOMAXPROCS budget: up to `workers` jobs run at once,
// each on its own token. The dispatcher runs a job inline (as the
// budget-free caller) only while no runner is in flight — that keeps a
// zero-token box progressing without ever parking a long-running job on
// the dispatcher while freed workers sit idle; with runners in flight it
// instead waits for capacity (a runner finishing, or a token returned
// mid-job by a shard fan-out) and retries.
func (m *jobManager) place(j *job) {
	for {
		// While waiting for capacity the dispatcher holds j outside the
		// queue; a higher-priority arrival must not wait behind it. Each
		// pass re-offers the held job: if something now orders ahead of
		// it, run that instead and re-queue j (swap is a no-op otherwise).
		j = m.queue.swap(j)
		select {
		case <-j.done:
			return // cancelled while queued: don't wait for capacity
		default:
		}
		if int(m.spawned.Load()) < m.workers {
			if release, ok := par.TryHold(); ok {
				m.spawned.Add(1)
				m.wg.Add(1)
				go func() {
					defer m.wg.Done()
					m.runJob(j)
					release()
					m.spawned.Add(-1)
					select {
					case m.slotFree <- struct{}{}:
					default:
					}
				}()
				return
			}
		}
		if m.spawned.Load() == 0 {
			m.runJob(j)
			return
		}
		select {
		case <-m.slotFree:
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// runJob executes one job and records its terminal state. A cancelled or
// cut-down run may still carry a partial report (Aborted set), which is
// preserved. Every simulation runs behind a recover barrier (simulate,
// and internal/par for shard and sweep-cell workers): an engine panic
// fails that job — stack in its envelope — without taking the daemon
// down.
func (m *jobManager) runJob(j *job) {
	defer j.cancel()
	if !j.tryStart() {
		return // cancelled while queued
	}
	runCtx := j.ctx
	if j.timeout > 0 {
		var stop context.CancelFunc
		runCtx, stop = context.WithTimeoutCause(j.ctx, j.timeout, errJobDeadline)
		defer stop()
	}
	rep, cells, err := j.run(runCtx)
	state := JobFailed
	switch {
	case err == nil:
		state = JobDone
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// The context ended the run; its cause says who pulled the plug.
		// Policy cut-downs — the execution deadline, the no-progress
		// watchdog — are failures carrying the partial aborted report; a
		// plain cancellation is the client's (or shutdown's) own doing.
		switch cause := context.Cause(runCtx); {
		case errors.Is(cause, errJobDeadline):
			err = fmt.Errorf("%w (%s)", errJobDeadline, j.timeout)
		case errors.Is(cause, errJobStalled):
			err = cause
		default:
			state = JobCancelled
		}
	}
	j.finish(JobRunning, state, rep, cells, err)
	m.observeFinished(j)
	m.persist(j)
	m.retire(j)
}

// stageTimings assembles a finished job's per-stage breakdown: the run
// report's stage timings (or the sum over sweep cells) plus the queue
// wait the daemon itself measured.
func stageTimings(rep *Report, cells []GridCell, wait time.Duration) *Timings {
	tm := &Timings{}
	if rep != nil {
		tm.Add(rep.Timings)
	}
	for _, c := range cells {
		if c.Report != nil {
			tm.Add(c.Report.Timings)
		}
	}
	tm.QueueSeconds = wait.Seconds()
	return tm
}

// observeFinished feeds a terminal job into the /metrics surface: the
// latency of each stage it ran into that stage's histogram, and — for
// completed predicted jobs — the relative prediction error into its
// EWMA. A stage at 0 s did not run (no merge for an unsharded run, no
// warming walk when every boundary restored) and is not observed, so it
// cannot drag that stage's quantiles toward 0.
func (m *jobManager) observeFinished(j *job) {
	j.mu.Lock()
	tm := j.timings
	state := j.state
	predicted := j.predictedSecs
	j.mu.Unlock()
	if tm == nil {
		return
	}
	for i, v := range [len(stages)]float64{
		tm.QueueSeconds, tm.PrepareSeconds, tm.WarmupSeconds, tm.MeasureSeconds, tm.MergeSeconds,
	} {
		if v > 0 {
			m.stageSeconds[i].Observe(v)
		}
	}
	if state != JobDone || predicted <= 0 {
		return
	}
	actual := tm.workSeconds()
	if actual <= 0 {
		return
	}
	ratio := math.Abs(actual-predicted) / predicted
	m.pmu.Lock()
	if m.predErr < 0 {
		m.predErr = ratio
	} else {
		m.predErr = 0.3*ratio + 0.7*m.predErr
	}
	m.pmu.Unlock()
}

// watchdogLoop cancels running jobs that report no measurable progress —
// no retired instructions, no completed sweep cells — for a full window:
// a wedged engine or pathological configuration fails fast instead of
// occupying a worker until (or past) any deadline.
func (m *jobManager) watchdogLoop() {
	defer m.auxWG.Done()
	tick := max(m.watchdog/4, 10*time.Millisecond)
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-m.baseCtx.Done():
			return
		case <-t.C:
		}
		cutoff := time.Now().Add(-m.watchdog).UnixNano()
		m.mu.Lock()
		var stalled []*job
		for _, j := range m.jobs {
			j.mu.Lock()
			running := j.state == JobRunning
			j.mu.Unlock()
			if running && j.lastAdvance.Load() < cutoff {
				stalled = append(stalled, j)
			}
		}
		m.mu.Unlock()
		for _, j := range stalled {
			j.abort(errJobStalled)
		}
	}
}

// probeLoop tests a degraded store for recovery: while degraded it
// periodically journals a probe record, and the first success (via
// storeWrite) flips the server healthy again. The probe record is
// terminal with no envelope, so restarts replay it as noise.
func (m *jobManager) probeLoop() {
	defer m.auxWG.Done()
	t := time.NewTicker(m.probeEvery)
	defer t.Stop()
	for {
		select {
		case <-m.baseCtx.Done():
			return
		case <-t.C:
		}
		if !m.degraded.Load() {
			continue
		}
		m.storeWrite(func() error {
			return m.store.Journal(store.JournalRecord{
				ID: "store-probe", Kind: "probe",
				State: string(JobDone), Time: time.Now(),
			})
		})
	}
}

// shutdown drains: no new submissions, queued and running jobs complete,
// workers exit. Submissions still journaling settle first: each finds the
// drain and retracts its queued record, which needs the store open. When
// ctx expires first, every remaining job is cancelled and shutdown still
// waits for the admissions and workers to unwind (no goroutine leaks),
// returning ctx's error.
func (m *jobManager) shutdown(ctx context.Context) error {
	m.mu.Lock()
	if !m.draining {
		m.draining = true
		m.queue.close()
	}
	m.mu.Unlock()
	done := make(chan struct{})
	go func() {
		m.mu.Lock()
		for m.admitting > 0 {
			m.admissionsIdle.Wait()
		}
		m.mu.Unlock()
		m.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
		m.stopAll()
	case <-ctx.Done():
		m.stopAll()
		<-done
		err = ctx.Err()
	}
	// stopAll also releases the probe and watchdog loops, which outlive
	// the worker pool by design; wait for them before touching the store.
	m.auxWG.Wait()
	// Workers have unwound: nothing journals or reads blobs anymore, so a
	// store we opened can close (one installed via WithStore belongs to
	// the caller).
	if m.ownStore {
		m.closeOnce.Do(func() {
			if cerr := m.store.Close(); cerr != nil && err == nil {
				err = cerr
			}
		})
	}
	return err
}
