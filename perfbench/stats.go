package main

import (
	"fmt"
	"math"
	"slices"
)

// quartiles returns the first quartile, the median and the third quartile
// of xs by the exclusive method, the default of Python's
// statistics.quantiles(xs, n=4), so spreads computed here match the ones
// computed from the printed results. One value is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// low is the lower quartile of xs, never below the smallest value: with
// fewer than four values the exclusive method would extrapolate past it.
func low(xs []float64) float64 {
	q1, _, _ := quartiles(xs)
	return max(q1, slices.Min(xs))
}

// median is the middle value of xs (the mean of the two middle values
// for an even count); NaN for no values.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// percentile returns the nearest-rank p-th percentile of xs and whether
// it may be reported: a tail percentile is reported only when at least
// ten samples lie beyond it, so p90 needs 100 samples and p99 needs 1000.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = max(1, min(rank, n))
	return s[rank-1], n-rank >= 10
}

// describe renders a latency sample set for the human-readable summary:
// the median, every tail percentile the ten-beyond rule allows, and the
// sample count.
func describe(xs []float64, scale float64, unit string) string {
	if len(xs) == 0 {
		return "n=0"
	}
	out := fmt.Sprintf("p50 %.4g%s", median(xs)*scale, unit)
	for _, p := range []float64{90, 99} {
		if v, ok := percentile(xs, p); ok {
			out += fmt.Sprintf("  p%g %.4g%s", p, v*scale, unit)
		}
	}
	return out + fmt.Sprintf("  (n=%d)", len(xs))
}
