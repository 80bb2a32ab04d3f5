package main

import (
	"bytes"
	"context"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// raceDetector is set when the tests run under -race (race_test.go).
var raceDetector bool

// runToy runs one workload at toy size and returns its result.
func runToy(t *testing.T, workload string, trace bool) *result {
	t.Helper()
	var out, errs bytes.Buffer
	cfg := config{workload: workload, seed: 7, seconds: 0.3, trace: trace, sz: toySizes, dir: t.TempDir()}
	res, err := run(context.Background(), cfg, &out, &errs)
	if err != nil {
		t.Fatalf("%s: %v\n%s%s", workload, err, out.String(), errs.String())
	}
	if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
		t.Fatalf("%s: %d of %d operations failed\n%s%s", workload, res.Failed, res.Attempted, out.String(), errs.String())
	}
	return res
}

// checkMetrics asserts that a result prints exactly the metrics want
// lists, each with its unit and a finite value.
func checkMetrics(t *testing.T, label string, res *result, want []specMetric) {
	t.Helper()
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not printed", label, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", label, m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: metric %s = %v", label, m.Name, got.Value)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: printed %d metrics, BENCHMARK.json lists %d", label, len(res.Metrics), len(want))
	}
}

// TestEveryWorkloadAtToySize runs every workload, and the traced run,
// small enough for go test, and holds their output to BENCHMARK.json.
func TestEveryWorkloadAtToySize(t *testing.T) {
	s, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for _, w := range workloads {
		res := runToy(t, w.name, false)
		checkMetrics(t, w.name, res, s.EndToEnd)
		for _, m := range s.EndToEnd {
			if v := res.Metrics[m.Name].Value; v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, v)
			}
		}
	}
	checkMetrics(t, "traced", runToy(t, "plain", true), s.PerLayer)
	if d := time.Since(start); d > 15*time.Second && !raceDetector {
		t.Errorf("toy runs took %s, want under 15s", d)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 3, 2, 1}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	// low is the lower quartile, but never below the smallest value.
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75},
		{[]float64{5, 1}, 1},
		{[]float64{7}, 7},
	} {
		if got := low(c.xs); got != c.want {
			t.Errorf("low(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{99, 90, false, 90},
		{100, 90, true, 90},
		{999, 99, false, 990},
		{1000, 99, true, 990},
		{20, 50, true, 10},
	} {
		got, ok := percentile(seq(c.n), c.p)
		if ok != c.ok || got != c.want {
			t.Errorf("percentile(1..%d, %g) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if d := describe(seq(99), 1, "s"); strings.Contains(d, "p90") {
		t.Errorf("describe printed p90 from 99 samples: %s", d)
	}
	if d := describe(seq(100), 1, "s"); !strings.Contains(d, "p90") || strings.Contains(d, "p99") || !strings.Contains(d, "n=100") {
		t.Errorf("describe of 100 samples = %q, want p50 and p90 with n", d)
	}
}

func TestJudge(t *testing.T) {
	lower := specMetric{Name: "cpu_ms_per_op", Better: "lower", Bound: 0.10}
	ramp := func(base, step float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = base + step*float64(i%5)
		}
		return xs
	}
	for _, c := range []struct {
		name           string
		m              specMetric
		parent, change []float64
		want           string
	}{
		{"clear gain", lower, ramp(100, 1), ramp(90, 1), "gain"},
		{"regression past the bound", lower, ramp(100, 1), ramp(115, 1), "regression"},
		{"inside the bound", lower, ramp(100, 1), ramp(102, 1), "within bound"},
		{"spread wider than the bound", lower, ramp(100, 10), ramp(100, 10), "unresolved"},
		{"gain on a higher-is-better metric", specMetric{Better: "higher", Bound: 0.1}, ramp(100, 1), ramp(110, 1), "gain"},
		{"wins too few pairs", lower,
			[]float64{100, 101, 102, 103, 104, 100, 101, 102, 103, 104},
			[]float64{95, 96, 97, 98, 99, 95, 96, 97, 105, 105}, "within bound"},
	} {
		if got := judge(c.m, c.parent, c.change).label; got != c.want {
			t.Errorf("%s: judged %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareNeedsTenPairs(t *testing.T) {
	dir := t.TempDir()
	line := `{"correct":true,"attempted":1,"failed":0,"metrics":{"cpu_ms_per_op":{"value":1,"unit":"ms"}}}` + "\n"
	write := func(name string, n int) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(strings.Repeat("# a summary line\n"+line, n)), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	s, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	cal := &calibration{}
	var out bytes.Buffer
	if err := compareFiles(s, cal, "plain", write("p9", 9), write("c9", 9), &out); err == nil {
		t.Error("compared 9 pairs")
	}
	if err := compareFiles(s, cal, "plain", write("p10", 10), write("c10", 10), &out); err == nil ||
		!strings.Contains(err.Error(), "lacks metric") {
		t.Errorf("comparing results without every metric: %v", err)
	}
	line = `{"correct":true,"attempted":1,"failed":0,"metrics":{"setup_s":{"value":1,"unit":"s"},` +
		`"cpu_ms_per_op":{"value":1,"unit":"ms"},"live_heap_mb_p90":{"value":1,"unit":"MB"}}}` + "\n"
	if err := compareFiles(s, cal, "plain", write("p", 10), write("c", 10), &out); err != nil ||
		strings.Count(out.String(), "within bound") != 3 {
		t.Errorf("comparing identical results: %v\n%s", err, out.String())
	}
}

// calSet writes a calibration set holding, for each workload, one run per
// value of cpu_ms_per_op and setup_s.
func calSet(t *testing.T, dir, name string, cpu map[string][]float64) string {
	t.Helper()
	var lines []string
	for w, xs := range cpu {
		for i, x := range xs {
			lines = append(lines, mustJSON(calRecord{Workload: w, Seed: uint64(i), Result: result{
				Correct: true, Attempted: 1, Metrics: map[string]metric{
					"cpu_ms_per_op": {Value: x, Unit: "ms"}, "setup_s": {Value: 1, Unit: "s"}}}}))
		}
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBoundRules(t *testing.T) {
	dir := t.TempDir()
	// Quartiles of 96..104 step 1 are 97.5 and 102.5: a spread of 0.05.
	ramp := func(base float64) []float64 {
		var xs []float64
		for i := range 9 {
			xs = append(xs, base-4+float64(i))
		}
		return xs
	}
	quiet := []float64{100, 100, 100, 100, 100}
	cal, err := readCalibration([]string{
		calSet(t, dir, "a.jsonl", map[string][]float64{"noisy": ramp(100), "quiet": quiet}),
		calSet(t, dir, "b.jsonl", map[string][]float64{"noisy": ramp(100), "quiet": quiet}),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		workload string
		want     float64
	}{{"noisy", 0.10}, {"quiet", minBound}} {
		if got, ok := cal.workloadBound("cpu_ms_per_op", c.workload); !ok || got != c.want {
			t.Errorf("workloadBound(%s) = %v, %v; want %v", c.workload, got, ok, c.want)
		}
	}
	if got, err := cal.benchmarkBound("cpu_ms_per_op", []string{"noisy", "quiet"}); err != nil || got != 0.15 {
		t.Errorf("benchmarkBound = %v, %v; want 0.15 from the noisier workload", got, err)
	}
	wide, err := readCalibration([]string{calSet(t, dir, "w.jsonl", map[string][]float64{"wide": {80, 90, 100, 110, 120}})})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := wide.benchmarkBound("cpu_ms_per_op", []string{"wide"}); err != nil || got != maxBound {
		t.Errorf("benchmarkBound of a 0.3 spread = %v, %v; want the cap %v", got, err, maxBound)
	}
	if got, err := cal.benchmarkBound("setup_s", []string{"noisy", "quiet"}); err != nil || got != maxBound {
		t.Errorf("setup_s bound = %v, %v; want %v", got, err, maxBound)
	}
	if _, err := cal.benchmarkBound("cpu_ms_per_op", []string{"noisy", "absent"}); err == nil {
		t.Error("derived a bound without calibration runs of a workload")
	}
	short, err := readCalibration([]string{calSet(t, dir, "c.jsonl", map[string][]float64{"quiet": quiet[:4]})})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := short.workloadBound("cpu_ms_per_op", "quiet"); ok {
		t.Errorf("derived a bound from %d runs, want at least %d", 4, minCalRuns)
	}
}

// TestBoundsMatchCalibration holds BENCHMARK.json's bounds to the
// calibration runs kept beside this file.
func TestBoundsMatchCalibration(t *testing.T) {
	s, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	if got := specWorkloads(s); !slices.Equal(got, names) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark runs %v", got, names)
	}
	cal, err := loadCalibration(filepath.Join("calibration", "*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cal.sets) < 2 {
		t.Fatalf("%d calibration sets, want at least 2", len(cal.sets))
	}
	for _, m := range s.EndToEnd {
		want, err := cal.benchmarkBound(m.Name, names)
		if err != nil {
			t.Error(err)
		} else if m.Bound != want {
			t.Errorf("BENCHMARK.json bounds %s by %v; the calibration gives %v", m.Name, m.Bound, want)
		}
	}
	if err := printBounds(s, cal, io.Discard); err != nil {
		t.Error(err)
	}
}

func TestCLIRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "plain", "--trace", "2"},
		{"--workload", "plain", "--seconds", "0"},
		{"--compare", "only-one"},
	} {
		var out, errs bytes.Buffer
		if code := cli(args, &out, &errs); code == 0 || out.Len() != 0 {
			t.Errorf("cli(%q) = %d with output %q; want a failure and no result", args, code, out.String())
		}
	}
}
