package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean not 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestHarmonicMean(t *testing.T) {
	if got := HarmonicMean([]float64{1, 1, 1}); got != 1 {
		t.Fatalf("HarmonicMean of ones = %v", got)
	}
	got := HarmonicMean([]float64{2, 4})
	if math.Abs(got-8.0/3) > 1e-12 {
		t.Fatalf("HarmonicMean(2,4) = %v, want 8/3", got)
	}
	if HarmonicMean([]float64{1, 0}) != 0 {
		t.Fatal("zero element must yield 0")
	}
}

func TestHarmonicLeqGeoLeqArithmetic(t *testing.T) {
	f := func(a, b, c uint16) bool {
		xs := []float64{float64(a) + 1, float64(b) + 1, float64(c) + 1}
		// The geometric mean, computed here as the reference between the
		// two means under test.
		g := math.Exp((math.Log(xs[0]) + math.Log(xs[1]) + math.Log(xs[2])) / 3)
		h, m := HarmonicMean(xs), Mean(xs)
		const eps = 1e-9
		return h <= g+eps && g <= m+eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTCrit95(t *testing.T) {
	for _, c := range []struct {
		df   int
		want float64
	}{
		{-1, 0}, {0, 0}, {1, 12.706}, {7, 2.365}, {30, 2.042}, {31, 1.96}, {1000, 1.96},
	} {
		if got := TCrit95(c.df); got != c.want {
			t.Errorf("TCrit95(%d) = %v, want %v", c.df, got, c.want)
		}
	}
}

func TestCI95(t *testing.T) {
	for _, c := range []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"one observation", []float64{3}, 0},
		{"no spread", []float64{2, 2, 2}, 0},
		// mean 2, sample sd sqrt(0.5), n 2: t(1) = 12.706.
		{"df=1", []float64{1.5, 2.5}, 12.706 * math.Sqrt(0.5) / math.Sqrt(2)},
		// 8 observations: sample sd sqrt(6), t(7) = 2.365.
		{"df=7", []float64{1, 2, 3, 4, 5, 6, 7, 8}, 2.365 * math.Sqrt(6) / math.Sqrt(8)},
	} {
		if got := CI95(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: CI95 = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Add(i)
	}
	if h.N() != 100 || h.Mean() != 50.5 {
		t.Fatalf("n=%d mean=%v", h.N(), h.Mean())
	}
	if p := h.Percentile(0.5); p != 50 {
		t.Fatalf("p50 = %d", p)
	}
	if p := h.Percentile(0.99); p != 99 {
		t.Fatalf("p99 = %d", p)
	}
	if !strings.Contains(h.String(), "n=100") {
		t.Fatalf("summary = %q", h.String())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Mean() != 0 || h.Percentile(0.5) != 0 {
		t.Fatal("empty histogram not zero")
	}
}
