package streamfetch

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"streamfetch/internal/cache"
	"streamfetch/internal/frontend"
	"streamfetch/internal/isa"
	"streamfetch/internal/layout"
	"streamfetch/internal/sim"
)

// CacheReport summarizes one cache's activity: its event counters and
// their miss rate.
type CacheReport struct {
	cache.Stats
	MissRate float64 `json:"miss_rate"`
}

// FetchReport summarizes front-end delivery statistics: the engine's
// counters and the rates derived from them.
type FetchReport struct {
	frontend.FetchStats
	MeanUnitLen float64 `json:"mean_unit_len"`
	FetchIPC    float64 `json:"fetch_ipc"`
}

// Report is the structured outcome of one simulation run: the sim.Result
// metrics plus the run's identity (benchmark, engine, layout, width, seed),
// marshallable to JSON.
type Report struct {
	Benchmark  string `json:"benchmark"`
	Engine     string `json:"engine"`
	Layout     string `json:"layout"`
	Width      int    `json:"width"`
	Seed       uint64 `json:"seed,omitempty"`
	TraceInsts uint64 `json:"trace_insts"`
	CodeBytes  int    `json:"code_bytes"`
	Aborted    bool   `json:"aborted,omitempty"`

	Cycles  uint64  `json:"cycles"`
	Retired uint64  `json:"retired"`
	IPC     float64 `json:"ipc"`

	Branches      uint64            `json:"branches"`
	Mispredicted  uint64            `json:"mispredicted"`
	MispredRate   float64           `json:"mispred_rate"`
	MispredByType map[string]uint64 `json:"mispred_by_type,omitempty"`
	Misfetches    uint64            `json:"misfetches"`

	FetchIPC float64     `json:"fetch_ipc"`
	Fetch    FetchReport `json:"fetch"`

	ICache CacheReport `json:"icache"`
	DCache CacheReport `json:"dcache"`
	L2     CacheReport `json:"l2"`

	// Sharded runs only (WithShards > 1): the interval count, the
	// requested per-interval warmup, and one row per simulated interval.
	// The top-level counters are the merged totals; cycle-derived figures
	// aggregate as merged retired over merged cycles.
	Shards      int              `json:"shards,omitempty"`
	WarmupInsts uint64           `json:"warmup_insts,omitempty"`
	Intervals   []IntervalReport `json:"intervals,omitempty"`

	// Checkpointed runs only (WithCheckpoints): how many intervals
	// restored their warm state from the store versus warming
	// functionally (and publishing a checkpoint). Both zero when
	// checkpointing was off or no interval had a warmable prefix.
	CheckpointHits   uint64 `json:"checkpoint_hits,omitempty"`
	CheckpointMisses uint64 `json:"checkpoint_misses,omitempty"`

	// Sampled runs only (WithSampling): the window count actually
	// simulated, the per-window length, and the 95% confidence
	// half-width on IPC estimated from the per-window spread. Counters
	// in a sampled report cover only the sampled windows (TraceInsts is
	// the sampled coverage): they are estimates, not exact totals.
	Samples     int     `json:"samples,omitempty"`
	SampleInsts uint64  `json:"sample_insts,omitempty"`
	IPCCI95     float64 `json:"ipc_ci95,omitempty"`

	// Timings carries the run's per-stage wall clock when the session
	// opted in via WithStageTimings — wall-clock telemetry, not result
	// identity: two runs of one configuration share a content key and
	// differ here, like the checkpoint counters above. nil (and absent
	// from JSON) when timing was off, which keeps default runs
	// byte-identical to their golden reports.
	Timings *Timings `json:"timings,omitempty"`
}

// Timings is the per-stage wall-clock breakdown of one run or job. Queue
// is filled by the daemon (time between acceptance and start); the
// session fills the rest. Warmup is the wall time of a sharded or
// sampled run's functional-warming walk (zero when every boundary
// restored from the checkpoint store). Measure is summed across the run's parallel
// intervals — per-stage work-seconds, not elapsed wall time — so the
// attribution stays meaningful whatever the parallelism; an interval's
// timed lead-in counts as Measure.
type Timings struct {
	PrepareSeconds float64 `json:"prepare_seconds,omitempty"`
	QueueSeconds   float64 `json:"queue_seconds,omitempty"`
	WarmupSeconds  float64 `json:"warmup_seconds,omitempty"`
	MeasureSeconds float64 `json:"measure_seconds,omitempty"`
	MergeSeconds   float64 `json:"merge_seconds,omitempty"`
}

// Add accumulates o into t (used to aggregate sweep cells).
func (t *Timings) Add(o *Timings) {
	if o == nil {
		return
	}
	t.PrepareSeconds += o.PrepareSeconds
	t.QueueSeconds += o.QueueSeconds
	t.WarmupSeconds += o.WarmupSeconds
	t.MeasureSeconds += o.MeasureSeconds
	t.MergeSeconds += o.MergeSeconds
}

// workSeconds is the simulation work the SLO cost model predicts:
// warming plus measuring, excluding preparation (amortized by the
// session cache) and queueing.
func (t *Timings) workSeconds() float64 {
	return t.WarmupSeconds + t.MeasureSeconds
}

// IntervalReport is one trace interval of a sharded run.
type IntervalReport struct {
	Index int `json:"index"`
	// StartInsts is the measure-window start position in CFG-level trace
	// instructions; Insts is the window's measured length and WarmupInsts
	// the lead-in actually delivered (block-snapped, so it can exceed the
	// request by less than one block; 0 for the head interval).
	StartInsts  uint64 `json:"start_insts"`
	Insts       uint64 `json:"insts"`
	WarmupInsts uint64 `json:"warmup_insts"`

	Cycles         uint64  `json:"cycles"`
	Retired        uint64  `json:"retired"`
	IPC            float64 `json:"ipc"`
	MispredRate    float64 `json:"mispred_rate"`
	FetchIPC       float64 `json:"fetch_ipc"`
	ICacheMissRate float64 `json:"icache_miss_rate"`
}

// newReport lifts a sim.Result into the public report shape. traceInsts is
// the trace's total instruction count when the source knew it
// (fully-drained generators and file footers); for a run cut short
// mid-stream it is the count supplied so far, or 0 when unknown.
func newReport(benchmark string, lay *layout.Layout, traceInsts uint64, seed uint64, res sim.Result) *Report {
	rep := &Report{
		Benchmark:  benchmark,
		Engine:     res.Engine,
		Layout:     lay.Name,
		Width:      res.Width,
		Seed:       seed,
		TraceInsts: traceInsts,
		CodeBytes:  lay.CodeSize(),
		Aborted:    res.Aborted,

		Cycles:  res.Cycles,
		Retired: res.Retired,
		IPC:     res.IPC(),

		Branches:     res.Branches,
		Mispredicted: res.Mispredicted,
		MispredRate:  res.MispredRate(),
		Misfetches:   res.Misfetches,

		FetchIPC: res.Fetch.FetchIPC(),
		Fetch:    FetchReport{res.Fetch, res.Fetch.MeanUnitLen(), res.Fetch.FetchIPC()},
		ICache:   CacheReport{res.ICache, res.ICache.MissRate()},
		DCache:   CacheReport{res.DCache, res.DCache.MissRate()},
		L2:       CacheReport{res.L2, res.L2.MissRate()},
	}
	for i, n := range res.MispredByType {
		if n == 0 {
			continue
		}
		if rep.MispredByType == nil {
			rep.MispredByType = map[string]uint64{}
		}
		rep.MispredByType[isa.BranchType(i).String()] = n
	}
	return rep
}

// String renders a one-line summary.
func (r *Report) String() string {
	return fmt.Sprintf("%s %-8s %-9s w=%d IPC=%.3f fetchIPC=%.2f mispred=%.2f%% misfetch=%d icacheMiss=%.3f%%",
		r.Benchmark, r.Engine, r.Layout, r.Width, r.IPC, r.FetchIPC,
		100*r.MispredRate, r.Misfetches, 100*r.ICache.MissRate)
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// JobState is the lifecycle state of a service job (see Server).
type JobState string

// Job lifecycle: queued → running → done | failed | cancelled. A queued
// job that is cancelled never runs.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final (no further transitions).
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// JobProgress is a point-in-time view of a running job's advancement: the
// retired-instruction counters for run jobs (summed over shards for a
// sharded run), the completed-cell counters for sweep jobs.
type JobProgress struct {
	Retired    uint64 `json:"retired,omitempty"`
	Total      uint64 `json:"total,omitempty"`
	CellsDone  int    `json:"cells_done,omitempty"`
	CellsTotal int    `json:"cells_total,omitempty"`
}

// JobEnvelope is the service's job resource: identity, lifecycle state,
// timings, live progress, and — once terminal — the run's Report or the
// sweep's cells. It is what GET /v1/runs/{id} returns at every state.
type JobEnvelope struct {
	ID    string   `json:"id"`
	Kind  string   `json:"kind"` // "run" or "sweep"
	State JobState `json:"state"`

	// Key is the content hash of the job's normalized request: the
	// store-cache address of its result. Jobs agreeing on Key produce
	// byte-identical results (runs are deterministic for a fixed
	// configuration), which is what makes coalescing and the Report
	// cache sound. Cached marks a job answered from the store without
	// running a simulation.
	Key    string `json:"key,omitempty"`
	Cached bool   `json:"cached,omitempty"`

	EnqueuedAt time.Time `json:"enqueued_at,omitzero"`
	StartedAt  time.Time `json:"started_at,omitzero"`
	FinishedAt time.Time `json:"finished_at,omitzero"`
	// WaitSeconds is queue latency (enqueue → start); RunSeconds is
	// execution time (start → finish, or → now while running).
	WaitSeconds float64 `json:"wait_seconds,omitempty"`
	RunSeconds  float64 `json:"run_seconds,omitempty"`

	// SLO admission surface: the cost model's predicted execution
	// work-seconds for this job and the queue-delay estimate at the
	// moment it was accepted (see the slo package). Zero — and absent —
	// for cached answers and journal-restored envelopes.
	PredictedSeconds  float64 `json:"predicted_seconds,omitempty"`
	QueueDelaySeconds float64 `json:"queue_delay_seconds,omitempty"`

	// Timings is the finished job's per-stage breakdown (cells summed
	// for a sweep), including the queue stage only the daemon can see.
	Timings *Timings `json:"timings,omitempty"`

	Progress *JobProgress `json:"progress,omitempty"`
	Report   *Report      `json:"report,omitempty"`
	Cells    []GridCell   `json:"cells,omitempty"`
	Error    string       `json:"error,omitempty"`
}

// Experiment is one table or figure of the paper's evaluation in structured
// form: labeled rows of values under named columns, renderable as aligned
// text or JSON.
type Experiment struct {
	Name      string          `json:"name"`
	Title     string          `json:"title"`
	RowHeader string          `json:"row_header,omitempty"`
	Columns   []string        `json:"columns,omitempty"`
	Rows      []ExperimentRow `json:"rows"`
	// Summary holds aggregate rows (e.g. a harmonic mean) kept apart
	// from the data rows so JSON consumers never mistake them for data.
	Summary []ExperimentRow `json:"summary,omitempty"`
	Notes   []string        `json:"notes,omitempty"`

	// Formats holds per-column fmt verbs for text rendering ("" = %.3f);
	// JSON output carries the raw values instead.
	Formats []string `json:"-"`
}

// ExperimentRow is one labeled row: numeric cells first, then any textual
// cells (e.g. Table 1's "paper" column).
type ExperimentRow struct {
	Label  string    `json:"label"`
	Values []float64 `json:"values,omitempty"`
	Text   []string  `json:"text,omitempty"`
}

// AddRow appends a numeric row.
func (e *Experiment) AddRow(label string, values ...float64) {
	e.Rows = append(e.Rows, ExperimentRow{Label: label, Values: values})
}

// AddSummary appends a numeric aggregate row.
func (e *Experiment) AddSummary(label string, values ...float64) {
	e.Summary = append(e.Summary, ExperimentRow{Label: label, Values: values})
}

// WriteJSON writes the experiment as indented JSON.
func (e *Experiment) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(e)
}

// cell renders column j of a row: values first, then text cells.
func (e *Experiment) cell(row ExperimentRow, j int) string {
	if j < len(row.Values) {
		format := "%.3f"
		if j < len(e.Formats) && e.Formats[j] != "" {
			format = e.Formats[j]
		}
		return fmt.Sprintf(format, row.Values[j])
	}
	if k := j - len(row.Values); k < len(row.Text) {
		return row.Text[k]
	}
	return ""
}

// WriteText renders the experiment as an aligned text table: the title,
// a header naming the label column and value columns, one line per row, and
// any notes.
func (e *Experiment) WriteText(w io.Writer) {
	fmt.Fprintln(w, e.Title)
	all := append(append([]ExperimentRow(nil), e.Rows...), e.Summary...)
	labelW := len(e.RowHeader)
	for _, row := range all {
		if len(row.Label) > labelW {
			labelW = len(row.Label)
		}
	}
	colW := make([]int, len(e.Columns))
	for j, name := range e.Columns {
		colW[j] = len(name)
		for _, row := range all {
			if n := len(e.cell(row, j)); n > colW[j] {
				colW[j] = n
			}
		}
	}
	if len(e.Columns) > 0 {
		var b strings.Builder
		fmt.Fprintf(&b, "  %-*s", labelW, e.RowHeader)
		for j, name := range e.Columns {
			fmt.Fprintf(&b, "  %*s", colW[j], name)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	for _, row := range all {
		var b strings.Builder
		fmt.Fprintf(&b, "  %-*s", labelW, row.Label)
		for j := range e.Columns {
			fmt.Fprintf(&b, "  %*s", colW[j], e.cell(row, j))
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	for _, note := range e.Notes {
		fmt.Fprintf(w, "  %s\n", note)
	}
}
