package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func render(t *testing.T, w *Writer) string {
	t.Helper()
	var b strings.Builder
	if _, err := w.WriteTo(&b); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return b.String()
}

func TestCounterGaugeExposition(t *testing.T) {
	var w Writer
	w.Sample("app_requests_total", "counter", "Requests served.", 3, L("code", "200"))
	w.Sample("app_requests_total", "counter", "Requests served.", 1, L("code", "500"))
	w.Sample("app_queue_depth", "gauge", "Jobs queued.", 7)
	w.Sample("app_workers", "gauge", "", 3)

	out := render(t, &w)
	for _, want := range []string{
		"# HELP app_requests_total Requests served.\n",
		"# TYPE app_requests_total counter\n",
		`app_requests_total{code="200"} 3` + "\n",
		`app_requests_total{code="500"} 1` + "\n",
		"# TYPE app_queue_depth gauge\n",
		"app_queue_depth 7\n",
		"app_workers 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# TYPE app_requests_total"); n != 1 {
		t.Errorf("app_requests_total declared %d times, want once:\n%s", n, out)
	}
	if strings.Contains(out, "# HELP app_workers") {
		t.Errorf("empty help must not emit a HELP line:\n%s", out)
	}
}

func TestHistogramCumulativeBuckets(t *testing.T) {
	h := NewHistogram([]float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	var w Writer
	w.Histogram("app_latency_seconds", "Latency.", h, L("stage", "measure"))
	w.Histogram("app_latency_seconds", "Latency.", NewHistogram([]float64{1}), L("stage", "merge"))
	out := render(t, &w)
	for _, want := range []string{
		`app_latency_seconds_bucket{stage="measure",le="0.1"} 2`,
		`app_latency_seconds_bucket{stage="measure",le="1"} 3`,
		`app_latency_seconds_bucket{stage="measure",le="10"} 4`,
		`app_latency_seconds_bucket{stage="measure",le="+Inf"} 5`,
		`app_latency_seconds_sum{stage="measure"} 55.65`,
		`app_latency_seconds_count{stage="measure"} 5`,
		`app_latency_seconds_bucket{stage="merge",le="+Inf"} 0`,
		`app_latency_seconds_count{stage="merge"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE app_latency_seconds histogram") != 1 {
		t.Errorf("want exactly one TYPE line:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	var w Writer
	w.Sample("app_info", "gauge", "Info.", 1, L("path", `C:\x "q"`+"\n"))
	out := render(t, &w)
	want := `app_info{path="C:\\x \"q\"\n"} 1`
	if !strings.Contains(out, want) {
		t.Errorf("exposition missing %q:\n%s", want, out)
	}
}

func TestInvalidNamesPanic(t *testing.T) {
	for _, fn := range []func(w *Writer){
		func(w *Writer) { w.Sample("9bad", "counter", "", 0) },
		func(w *Writer) { w.Sample("has space", "counter", "", 0) },
		func(w *Writer) { w.Sample("ok_name", "gauge", "", 0, L("0bad", "v")) },
		func(w *Writer) { w.Sample("ok_name2", "gauge", "", 0, L("", "v")) },
		func(w *Writer) { w.Histogram("", "", NewHistogram(nil)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("invalid name did not panic")
				}
			}()
			fn(&Writer{})
		}()
	}
}

// TestSplitFamilyPanics: a family whose samples are not adjacent would
// need a second HELP/TYPE pair, which the format forbids.
func TestSplitFamilyPanics(t *testing.T) {
	var w Writer
	w.Sample("app_a", "gauge", "", 1, L("k", "1"))
	w.Sample("app_b", "gauge", "", 1)
	defer func() {
		if recover() == nil {
			t.Errorf("split family did not panic")
		}
	}()
	w.Sample("app_a", "gauge", "", 1, L("k", "2"))
}

func TestSpecialValues(t *testing.T) {
	var w Writer
	w.Sample("app_inf", "gauge", "", math.Inf(1))
	out := render(t, &w)
	if !strings.Contains(out, "app_inf +Inf\n") {
		t.Errorf("missing +Inf rendering:\n%s", out)
	}
}

func TestConcurrentObservations(t *testing.T) {
	h := NewHistogram([]float64{1})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	var w Writer
	w.Histogram("app_h_seconds", "", h)
	out := render(t, &w)
	for _, want := range []string{
		`app_h_seconds_bucket{le="1"} 8000`,
		`app_h_seconds_bucket{le="+Inf"} 8000`,
		"app_h_seconds_count 8000\n",
		"app_h_seconds_sum 4000\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}
