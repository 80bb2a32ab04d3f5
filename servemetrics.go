// The /metrics surface: a dependency-free Prometheus-text view over the
// job manager. Everything here is either a scrape-time callback reading
// the counters the manager already keeps (so the hot path pays nothing
// for being observable) or a histogram fed once per finished job.
package streamfetch

import (
	"sync/atomic"
	"time"

	"streamfetch/internal/metrics"
)

// stageBuckets spans the latencies jobs actually see, from sub-ms queue
// waits on an idle daemon to multi-minute sweeps.
var stageBuckets = []float64{0.001, 0.005, 0.02, 0.1, 0.5, 2.5, 10, 60, 300}

// initMetrics builds the /metrics registry. Called once from
// newJobManager, before any job can finish.
func (m *jobManager) initMetrics() {
	r := metrics.NewRegistry()
	m.met = r

	m.stageSeconds = map[string]*metrics.Histogram{}
	for _, stage := range []string{"queue", "prepare", "warmup", "measure", "merge"} {
		m.stageSeconds[stage] = r.Histogram(
			"streamfetch_stage_seconds",
			"Per-stage latency of finished jobs, labelled by pipeline stage.",
			stageBuckets, metrics.L("stage", stage))
	}
	m.predErrGauge = r.Gauge(
		"streamfetch_slo_prediction_error_ratio",
		"EWMA of |actual-predicted|/predicted execution time over finished predicted jobs.")

	counter := func(name, help string, v *atomic.Int64) {
		r.CounterFunc(name, help, func() float64 { return float64(v.Load()) })
	}
	counter("streamfetch_cache_hits_total",
		"Submissions answered from the content-addressed result cache.", &m.hits)
	counter("streamfetch_cache_misses_total",
		"Submissions that enqueued a simulation.", &m.misses)
	counter("streamfetch_coalesced_total",
		"Submissions folded onto an identical in-flight job.", &m.coalesced)
	counter("streamfetch_shed_total",
		"Submissions shed at admission as deadline-infeasible.", &m.shed)
	counter("streamfetch_store_errors_total",
		"Store writes that failed after exhausting retries.", &m.storeErrs)
	counter("streamfetch_store_retries_total",
		"Individual store-write retry attempts.", &m.retries)
	counter("streamfetch_checkpoint_hits_total",
		"Warm-state checkpoint restores across executed jobs.", &m.ckptHits)
	counter("streamfetch_checkpoint_misses_total",
		"Intervals that warmed functionally and published a checkpoint.", &m.ckptMisses)

	r.GaugeFunc("streamfetch_store_degraded",
		"1 while the store is degraded (journal writes failing), else 0.",
		func() float64 {
			if m.degraded.Load() {
				return 1
			}
			return 0
		})
	r.GaugeFunc("streamfetch_queue_depth",
		"Admission queue occupancy: queued jobs plus submissions being admitted.",
		func() float64 { return float64(m.queueDepth()) })
	r.GaugeFunc("streamfetch_queue_capacity",
		"Admission queue capacity.",
		func() float64 { return float64(m.queueCap) })
	r.GaugeFunc("streamfetch_workers",
		"Concurrent job execution cap.",
		func() float64 { return float64(m.workers) })
	r.GaugeFunc("streamfetch_queue_delay_seconds",
		"Predicted wait a new submission sees: backlog work spread over the workers.",
		func() float64 { _, d := m.queueEstimate(); return d })
	r.GaugeFunc("streamfetch_predicted_backlog_seconds",
		"Sum of predicted execution work-seconds over queued and running jobs.",
		func() float64 { b, _ := m.queueEstimate(); return b })
	r.GaugeFunc("streamfetch_sessions_cached",
		"Prepared sessions held by the LRU cache, one per benchmark and training input.",
		func() float64 { return float64(m.sessions.size()) })

	for _, st := range []struct {
		state string
		pick  func(q, r, t int) int
	}{
		{"queued", func(q, _, _ int) int { return q }},
		{"running", func(_, r, _ int) int { return r }},
		{"terminal", func(_, _, t int) int { return t }},
	} {
		pick := st.pick
		r.GaugeFunc("streamfetch_jobs",
			"Jobs in the registry by state.",
			func() float64 { return float64(pick(m.counts())) },
			metrics.L("state", st.state))
	}

	startedAt := time.Now()
	r.GaugeFunc("streamfetch_uptime_seconds",
		"Seconds since the job manager started.",
		func() float64 { return time.Since(startedAt).Seconds() })
}
