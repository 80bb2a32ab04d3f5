// Package stats provides the small statistical helpers the evaluation
// harness needs: means, harmonic means (the paper aggregates IPC with
// harmonic means over the SPECint2000 suite), Student-t confidence
// intervals and histograms.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// HarmonicMean returns the harmonic mean; zero or negative elements yield 0.
func HarmonicMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += 1 / x
	}
	return float64(len(xs)) / s
}

// CI95 returns the 95% confidence half-width on the mean of xs (Student's
// t on n-1 degrees of freedom). Fewer than two observations give no spread
// estimate: 0.
func CI95(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	mean := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(n-1))
	return TCrit95(n-1) * sd / math.Sqrt(float64(n))
}

// TCrit95 is the two-sided 95% Student-t critical value for df degrees of
// freedom, 1.96 asymptotically (df > 30); 0 for df < 1.
func TCrit95(df int) float64 {
	table := [...]float64{
		12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
		2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
		2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
		2.048, 2.045, 2.042,
	}
	switch {
	case df < 1:
		return 0
	case df <= len(table):
		return table[df-1]
	default:
		return 1.96
	}
}

// Histogram accumulates integer samples for distribution reports (e.g.
// stream length distributions).
type Histogram struct {
	counts map[int]uint64
	total  uint64
	sum    int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make(map[int]uint64)}
}

// Add records one sample.
func (h *Histogram) Add(v int) {
	h.counts[v]++
	h.total++
	h.sum += int64(v)
}

// N returns the sample count.
func (h *Histogram) N() uint64 { return h.total }

// Mean returns the sample mean.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Percentile returns the smallest value v such that at least p (0..1) of
// samples are <= v.
func (h *Histogram) Percentile(p float64) int {
	if h.total == 0 {
		return 0
	}
	keys := make([]int, 0, len(h.counts))
	for k := range h.counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	target := uint64(math.Ceil(p * float64(h.total)))
	var acc uint64
	for _, k := range keys {
		acc += h.counts[k]
		if acc >= target {
			return k
		}
	}
	return keys[len(keys)-1]
}

// String renders a compact summary.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%d p90=%d p99=%d",
		h.total, h.Mean(), h.Percentile(0.5), h.Percentile(0.9), h.Percentile(0.99))
}
