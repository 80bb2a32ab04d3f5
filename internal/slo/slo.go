// Package slo is the cost model behind streamfetchd's SLO-aware
// admission control: per-configuration throughput estimates that turn a
// validated request into a predicted execution time before the job is
// accepted.
//
// The unit of prediction is work-seconds — the serial simulation time a
// job needs, summed across its cells and intervals. The serve layer
// divides backlog work-seconds by its worker count to estimate queue
// delay, and compares (queue delay + predicted work) against a request's
// deadline to decide whether accepting it is honest or a promise the
// daemon already knows it will break.
//
// Rates are bucketed by (engine, width, execution mode): engines differ
// by 2-3x in sim-insts/s, and sharded/sampled runs carry warming overhead
// a plain run does not. Buckets are seeded from built-in defaults (the
// BENCH_streamfetch.json trajectory of this repository's own hardware)
// and updated online by an exponentially weighted moving average over
// every finished job's measured rate, so a daemon converges to its actual
// host within a handful of jobs whatever the defaults said.
package slo

import (
	"sync"
	"time"
)

// Mode classifies a run's execution shape for rate bucketing.
type Mode string

const (
	// ModePlain is a single sequential simulation of the whole trace.
	ModePlain Mode = "plain"
	// ModeSharded is an interval-sharded run: the same total work plus
	// per-shard functional warming.
	ModeSharded Mode = "sharded"
	// ModeSampled is a sampled run: K short windows plus their lead-ins.
	ModeSampled Mode = "sampled"
)

// Key addresses one throughput bucket.
type Key struct {
	Engine string
	Width  int
	Mode   Mode
}

// defaultRates seeds each engine's plain-mode sim-insts/s from the
// recorded benchmark trajectory (width 8; width dependence is second
// order and the EWMA absorbs it). Unknown engines start at fallbackRate,
// deliberately conservative so a new engine over-predicts (sheds too
// eagerly) rather than accepting deadlines it cannot meet.
var defaultRates = map[string]float64{
	"ev8":     8.5e6,
	"ftb":     6.8e6,
	"streams": 6.2e6,
	"tcache":  5.5e6,
}

const (
	fallbackRate = 3e6
	// alpha weights the newest observation: heavy enough to converge to
	// the host in a few jobs, light enough that one anomalous run (a GC
	// pause, a loaded box) does not whipsaw admission decisions.
	alpha = 0.3
	// Observed rates are clamped to a sane band so a pathological
	// measurement (a zero-length run, a clock hiccup) cannot poison the
	// model into accepting or shedding everything.
	minRate = 1e3
	maxRate = 1e12
	// outlierFactor bounds how far one observation can pull a learned
	// bucket: it is clamped to within this factor of the current rate
	// before blending, so one stalled or watchdog-reaped job moves
	// predictions by at most this factor and cannot trigger mass
	// shedding, while a real shift in host speed still converges.
	outlierFactor = 4
)

// Model holds the live rate buckets. The zero value is not usable; build
// with NewModel. Safe for concurrent use.
type Model struct {
	mu    sync.Mutex
	rates map[Key]float64
}

// NewModel builds a model holding only the built-in defaults; every
// bucket starts from its engine's seeded rate and learns from there.
func NewModel() *Model {
	return &Model{rates: map[Key]float64{}}
}

// Rate returns the bucket's current sim-insts/s estimate, falling back
// to the engine's plain-mode bucket (sharded/sampled overhead not yet
// observed), then the engine's built-in default, then the global
// fallback.
func (m *Model) Rate(k Key) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r, ok := m.rates[k]; ok {
		return r
	}
	if k.Mode != ModePlain {
		if r, ok := m.rates[Key{Engine: k.Engine, Width: k.Width, Mode: ModePlain}]; ok {
			return r
		}
	}
	if r, ok := defaultRates[k.Engine]; ok {
		return r
	}
	return fallbackRate
}

// Predict converts an instruction count into predicted work-seconds for
// the bucket's current rate.
func (m *Model) Predict(k Key, insts uint64) float64 {
	r := m.Rate(k)
	if r <= 0 {
		r = fallbackRate
	}
	return float64(insts) / r
}

// Observe folds one finished run into the bucket's EWMA: insts simulated
// in seconds of work time. Degenerate observations (nothing retired,
// non-positive time, rate outside the sane band) are dropped rather than
// clamped into a lie; a plausible one that lies beyond outlierFactor of
// the bucket's learned rate is clamped to that factor before blending.
func (m *Model) Observe(k Key, insts uint64, seconds float64) {
	if insts == 0 || seconds <= 0 {
		return
	}
	obs := float64(insts) / seconds
	if obs < minRate || obs > maxRate {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	old, ok := m.rates[k]
	if !ok {
		// First observation: adopt it outright instead of blending with a
		// default that may be off by the host's whole speed ratio.
		m.rates[k] = obs
		return
	}
	obs = min(max(obs, old/outlierFactor), old*outlierFactor)
	m.rates[k] = alpha*obs + (1-alpha)*old
}

// PredictDuration is Predict as a time.Duration, saturating instead of
// overflowing for astronomically large requests.
func (m *Model) PredictDuration(k Key, insts uint64) time.Duration {
	secs := m.Predict(k, insts)
	if secs > float64(1<<62)/float64(time.Second) {
		return 1 << 62
	}
	return time.Duration(secs * float64(time.Second))
}

// Len reports how many buckets hold learned (non-default) rates.
func (m *Model) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.rates)
}
