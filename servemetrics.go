// The health and /metrics surface: one snapshot of the job manager's
// figures (Health), served as JSON on /healthz and, walked through its
// metric tags, as Prometheus text on /metrics — followed by the stage
// histograms fed once per finished job and the uptime. The figures are
// counters and accessors the manager already keeps, read at scrape time,
// so the hot path pays nothing for being observable.
package streamfetch

import (
	"fmt"
	"io"
	"reflect"
	"strings"
	"time"

	"streamfetch/internal/metrics"
	"streamfetch/internal/par"
)

// stages names the pipeline stages of a job's Timings, in the order of
// jobManager.stageSeconds.
var stages = [...]string{"queue", "prepare", "warmup", "measure", "merge"}

// stageBuckets spans the latencies jobs actually see, from sub-ms queue
// waits on an idle daemon to multi-minute sweeps.
var stageBuckets = []float64{0.001, 0.005, 0.02, 0.1, 0.5, 2.5, 10, 60, 300}

// figure is one Health field's sample, parsed from its tags.
type figure struct {
	field           int
	name, typ, help string
	labels          []metrics.Label
}

// figures is the /metrics table: Health's tagged fields in field order.
var figures = healthFigures()

// healthFigures parses the metric and help tags of Health. A malformed
// tag is a programming error and panics at package init.
func healthFigures() []figure {
	var fs []figure
	t := reflect.TypeFor[Health]()
	for i := range t.NumField() {
		f := t.Field(i)
		tag, ok := f.Tag.Lookup("metric")
		if !ok {
			continue
		}
		parts := strings.Split(tag, ",")
		if len(parts) < 2 {
			panic(fmt.Sprintf("streamfetch: Health.%s: metric tag %q lacks a type", f.Name, tag))
		}
		fig := figure{field: i, name: parts[0], typ: parts[1], help: f.Tag.Get("help")}
		for _, kv := range parts[2:] {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				panic(fmt.Sprintf("streamfetch: Health.%s: label %q is not name=value", f.Name, kv))
			}
			fig.labels = append(fig.labels, metrics.L(k, v))
		}
		fs = append(fs, fig)
	}
	return fs
}

// health takes one snapshot of every figure /healthz and /metrics serve.
func (m *jobManager) health() Health {
	h := Health{
		Status:           "ok",
		QueueCap:         m.queueCap,
		Workers:          m.workers,
		JobsShed:         m.shed.Load(),
		Sessions:         m.sessions.size(),
		SessionCap:       m.sessions.cap,
		ParInUse:         par.InUse(),
		ParBudget:        par.Budget(),
		Store:            m.store.Name(),
		StoreHits:        m.hits.Load(),
		StoreMisses:      m.misses.Load(),
		StoreCoalesced:   m.coalesced.Load(),
		StoreErrors:      m.storeErrs.Load(),
		StoreRetries:     m.retries.Load(),
		CheckpointHits:   m.ckptHits.Load(),
		CheckpointMisses: m.ckptMisses.Load(),
	}
	m.mu.Lock()
	if m.draining {
		h.Status = "draining"
	}
	h.QueueDepth = m.queue.len() + m.admitting
	h.PredictedBacklogSeconds, h.QueueDelaySeconds = m.queueEstimateLocked()
	for _, j := range m.jobs {
		j.mu.Lock()
		s := j.state
		j.mu.Unlock()
		switch s {
		case JobQueued:
			h.JobsQueued++
		case JobRunning:
			h.JobsRunning++
		default:
			h.JobsFinished++
		}
	}
	m.mu.Unlock()
	m.pmu.Lock()
	h.SLOPredictionErrorRatio = max(m.predErr, 0) // < 0: no finished predicted job yet
	m.pmu.Unlock()
	// A stats failure (e.g. the store dir vanished) zeroes the store
	// footprint rather than failing the probe.
	if stats, err := m.store.Stats(); err == nil {
		h.StoreJournalDepth, h.StoreBlobs, h.StoreBytes = stats.JournalDepth, stats.Blobs, stats.Bytes
	}
	h.StoreDegraded, h.StoreLastError, h.StoreLastErrorTime = m.storeHealth()
	return h
}

// writeMetrics renders h's figures, the stage histograms and the uptime
// as Prometheus text.
func (m *jobManager) writeMetrics(w io.Writer, h Health) (int64, error) {
	var mw metrics.Writer
	v := reflect.ValueOf(h)
	for _, f := range figures {
		var x float64
		switch fv := v.Field(f.field); fv.Kind() {
		case reflect.Int, reflect.Int64:
			x = float64(fv.Int())
		case reflect.Float64:
			x = fv.Float()
		case reflect.Bool:
			if fv.Bool() {
				x = 1
			}
		default:
			panic("streamfetch: Health." + v.Type().Field(f.field).Name + " is not numeric")
		}
		mw.Sample(f.name, f.typ, f.help, x, f.labels...)
	}
	for i, stage := range stages {
		mw.Histogram("streamfetch_stage_seconds",
			"Per-stage latency of finished jobs, labelled by pipeline stage.",
			m.stageSeconds[i], metrics.L("stage", stage))
	}
	mw.Sample("streamfetch_uptime_seconds", "gauge", "Seconds since the job manager started.",
		time.Since(m.startedAt).Seconds())
	return mw.WriteTo(w)
}
