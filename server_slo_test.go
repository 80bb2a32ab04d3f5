package streamfetch_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"streamfetch"
	"streamfetch/internal/metrics"
	"streamfetch/internal/store"
	"streamfetch/internal/store/faultstore"
)

// TestServiceSLOAdmission: a submission whose deadline the cost model
// already rules out is shed up front — 422, never enqueued, never
// journaled — with the prediction in the body; a feasible one is
// accepted with the prediction on its envelope and finishes with a
// per-stage timing breakdown.
func TestServiceSLOAdmission(t *testing.T) {
	srv := newTestServer(t, streamfetch.WithWorkers(2))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	sc := newServiceClient(t, srv)

	// 30k instructions at any plausible rate take far longer than 1ms.
	req := streamfetch.RunRequest{Benchmark: "164.gzip", Insts: 30_000, Seed: 41, DeadlineMS: 1}
	var shed struct {
		Error             string  `json:"error"`
		PredictedSeconds  float64 `json:"predicted_seconds"`
		QueueDelaySeconds float64 `json:"queue_delay_seconds"`
		DeadlineSeconds   float64 `json:"deadline_seconds"`
	}
	if code := sc.do("POST", "/v1/runs", req, &shed); code != http.StatusUnprocessableEntity {
		t.Fatalf("infeasible deadline: status %d, want 422", code)
	}
	if shed.Error == "" || shed.PredictedSeconds <= 0 {
		t.Fatalf("shed body must carry the prediction: %+v", shed)
	}
	var h streamfetch.Health
	if code := sc.do("GET", "/healthz", nil, &h); code != http.StatusOK {
		t.Fatalf("GET /healthz: status %d", code)
	}
	if h.JobsQueued != 0 || h.StoreMisses != 0 {
		t.Errorf("shed submission leaked into the queue: queued=%d misses=%d", h.JobsQueued, h.StoreMisses)
	}
	if h.JobsShed < 1 {
		t.Errorf("jobs_shed = %d, want ≥1", h.JobsShed)
	}

	req.DeadlineMS = 600_000
	env := sc.submit("/v1/runs", req)
	if env.PredictedSeconds <= 0 {
		t.Errorf("accepted envelope predicted_seconds = %v, want > 0", env.PredictedSeconds)
	}
	got := sc.await(env.ID, time.Minute)
	if got.State != streamfetch.JobDone {
		t.Fatalf("job finished %s (error %q), want done", got.State, got.Error)
	}
	if got.Timings == nil || got.Timings.MeasureSeconds <= 0 {
		t.Fatalf("terminal envelope timings = %+v, want a measure stage > 0", got.Timings)
	}
	if got.Timings.QueueSeconds < 0 {
		t.Errorf("negative queue time %v", got.Timings.QueueSeconds)
	}
	if got.Report == nil || got.Report.Timings == nil {
		t.Error("service report lost its stage timings")
	}
}

// TestServicePriorityOrdering: with one worker occupied, a later
// high-priority submission overtakes an earlier normal one — including
// the job the dispatcher already holds while waiting for capacity.
func TestServicePriorityOrdering(t *testing.T) {
	srv := newTestServer(t, streamfetch.WithWorkers(1))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	sc := newServiceClient(t, srv)

	blocker := sc.submit("/v1/runs", streamfetch.RunRequest{
		Benchmark: "164.gzip", Insts: 1_000_000, Seed: 31})
	low := sc.submit("/v1/runs", streamfetch.RunRequest{
		Benchmark: "164.gzip", Insts: 20_000, Seed: 32})
	high := sc.submit("/v1/runs", streamfetch.RunRequest{
		Benchmark: "164.gzip", Insts: 20_000, Seed: 33, Priority: 5})

	lowGot := sc.await(low.ID, 2*time.Minute)
	highGot := sc.await(high.ID, 2*time.Minute)
	sc.await(blocker.ID, 2*time.Minute)
	if lowGot.State != streamfetch.JobDone || highGot.State != streamfetch.JobDone {
		t.Fatalf("jobs finished %s/%s, want done/done", lowGot.State, highGot.State)
	}
	if !highGot.StartedAt.Before(lowGot.StartedAt) {
		t.Errorf("high-priority job started %s, after the normal one at %s",
			highGot.StartedAt.Format(time.RFC3339Nano), lowGot.StartedAt.Format(time.RFC3339Nano))
	}
}

// checkPrometheusText validates Prometheus text exposition format 0.0.4:
// well-formed HELP/TYPE comments, each family declared by at most one
// HELP and exactly one TYPE line, every sample line shaped
// name{labels} value with a parseable value, and every sample's family
// declared by a TYPE line (histograms via their _bucket/_sum/_count
// suffixes).
func checkPrometheusText(t *testing.T, body string) {
	t.Helper()
	metaRe := regexp.MustCompile(`^# (HELP|TYPE) ([a-zA-Z_:][a-zA-Z0-9_:]*)( .*)?$`)
	sampleRe := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (\S+)$`)
	typed := map[string]string{}
	helped := map[string]bool{}
	for i, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			mm := metaRe.FindStringSubmatch(line)
			if mm == nil {
				t.Fatalf("line %d: malformed comment %q", i+1, line)
			}
			if mm[1] == "HELP" {
				if helped[mm[2]] {
					t.Fatalf("line %d: second HELP for %s", i+1, mm[2])
				}
				helped[mm[2]] = true
			}
			if mm[1] == "TYPE" {
				if typed[mm[2]] != "" {
					t.Fatalf("line %d: second TYPE for %s", i+1, mm[2])
				}
				typ := strings.TrimSpace(mm[3])
				if typ != "counter" && typ != "gauge" && typ != "histogram" {
					t.Fatalf("line %d: unknown TYPE %q", i+1, typ)
				}
				typed[mm[2]] = typ
			}
			continue
		}
		sm := sampleRe.FindStringSubmatch(line)
		if sm == nil {
			t.Fatalf("line %d: malformed sample %q", i+1, line)
		}
		if _, err := strconv.ParseFloat(sm[len(sm)-1], 64); err != nil {
			t.Fatalf("line %d: unparseable value in %q: %v", i+1, line, err)
		}
		base := sm[1]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if trimmed := strings.TrimSuffix(base, suffix); trimmed != base && typed[trimmed] == "histogram" {
				base = trimmed
				break
			}
		}
		if typed[base] == "" {
			t.Fatalf("line %d: sample %q has no TYPE declaration", i+1, sm[1])
		}
	}
	if len(typed) == 0 {
		t.Fatal("exposition declared no metric families")
	}
}

// TestMetricsExposition: after a job completes, GET /metrics serves
// valid Prometheus text carrying the health counters and the per-stage
// latency histograms.
func TestMetricsExposition(t *testing.T) {
	srv := newTestServer(t, streamfetch.WithWorkers(2))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	sc := newServiceClient(t, srv)

	env := sc.submit("/v1/runs", streamfetch.RunRequest{
		Benchmark: "164.gzip", Insts: 20_000, Seed: 51})
	if got := sc.await(env.ID, time.Minute); got.State != streamfetch.JobDone {
		t.Fatalf("job finished %s (error %q), want done", got.State, got.Error)
	}

	resp, err := sc.c.Get(sc.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q, want Prometheus text 0.0.4", ct)
	}
	body := string(raw)
	checkPrometheusText(t, body)
	for _, want := range []string{
		`streamfetch_stage_seconds_bucket{stage="measure",le="+Inf"}`,
		`streamfetch_stage_seconds_count{stage="queue"}`,
		"streamfetch_cache_misses_total 1",
		`streamfetch_jobs{state="terminal"} 1`,
		"streamfetch_queue_capacity",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestMetricsMatchHealthz: every figure /metrics and /healthz share reads
// the same value, also once the store has crash-stopped (where a failing
// store.Stats read used to add a phantom store error to /healthz only).
func TestMetricsMatchHealthz(t *testing.T) {
	fst := faultstore.Wrap(store.NewMem())
	srv := newTestServer(t,
		streamfetch.WithWorkers(1),
		streamfetch.WithStore(fst),
		// No probe writes between the two scrapes.
		streamfetch.WithStoreProbeInterval(time.Hour))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	sc := newServiceClient(t, srv)

	req := streamfetch.RunRequest{Benchmark: "164.gzip", Insts: 20_000, Seed: 71}
	env := sc.submit("/v1/runs", req)
	if got := sc.await(env.ID, time.Minute); got.State != streamfetch.JobDone {
		t.Fatalf("job finished %s (error %q), want done", got.State, got.Error)
	}
	var hit streamfetch.JobEnvelope
	if code := sc.do("POST", "/v1/runs", req, &hit); code != http.StatusOK || !hit.Cached {
		t.Fatalf("resubmission: status %d, cached %v; want 200 from the cache", code, hit.Cached)
	}

	// Crash-stop the store: the next submission's journal write fails,
	// degrading the server; the one after is accepted memory-only.
	fst.CrashAt(faultstore.OpWrite, 1)
	if code := sc.do("POST", "/v1/runs", streamfetch.RunRequest{
		Benchmark: "164.gzip", Insts: 20_000, Seed: 72}, nil); code != http.StatusInternalServerError {
		t.Fatalf("submission against crashed store: status %d, want 500", code)
	}
	env = sc.submit("/v1/runs", streamfetch.RunRequest{Benchmark: "164.gzip", Insts: 20_000, Seed: 73})
	if got := sc.await(env.ID, time.Minute); got.State != streamfetch.JobDone {
		t.Fatalf("degraded job finished %s (error %q), want done", got.State, got.Error)
	}

	// A finished job's last store writes may still be retrying when its
	// envelope reads done, so scrape /metrics between two equal /healthz
	// reads: nothing moved in between.
	health := func() (h streamfetch.Health) {
		if code := sc.do("GET", "/healthz", nil, &h); code != http.StatusOK {
			t.Fatalf("GET /healthz: status %d", code)
		}
		return h
	}
	var h streamfetch.Health
	var samples map[string]float64
	for attempt := 0; ; attempt++ {
		h = health()
		samples = scrapeMetrics(t, sc)
		if h == health() {
			break
		}
		if attempt == 100 {
			t.Fatal("/healthz never settled")
		}
		time.Sleep(20 * time.Millisecond)
	}

	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	for name, want := range map[string]float64{
		"streamfetch_cache_hits_total":          float64(h.StoreHits),
		"streamfetch_cache_misses_total":        float64(h.StoreMisses),
		"streamfetch_coalesced_total":           float64(h.StoreCoalesced),
		"streamfetch_shed_total":                float64(h.JobsShed),
		"streamfetch_store_errors_total":        float64(h.StoreErrors),
		"streamfetch_store_retries_total":       float64(h.StoreRetries),
		"streamfetch_checkpoint_hits_total":     float64(h.CheckpointHits),
		"streamfetch_checkpoint_misses_total":   float64(h.CheckpointMisses),
		"streamfetch_store_degraded":            b2f(h.StoreDegraded),
		"streamfetch_queue_depth":               float64(h.QueueDepth),
		"streamfetch_queue_capacity":            float64(h.QueueCap),
		"streamfetch_workers":                   float64(h.Workers),
		"streamfetch_queue_delay_seconds":       h.QueueDelaySeconds,
		"streamfetch_predicted_backlog_seconds": h.PredictedBacklogSeconds,
		"streamfetch_sessions_cached":           float64(h.Sessions),
		`streamfetch_jobs{state="queued"}`:      float64(h.JobsQueued),
		`streamfetch_jobs{state="running"}`:     float64(h.JobsRunning),
		`streamfetch_jobs{state="terminal"}`:    float64(h.JobsFinished),
	} {
		got, ok := samples[name]
		switch {
		case !ok:
			t.Errorf("/metrics has no %s", name)
		case got != want:
			t.Errorf("/metrics %s = %v, /healthz says %v", name, got, want)
		}
	}
	if h.StoreErrors == 0 || !h.StoreDegraded || h.StoreHits != 1 {
		t.Errorf("health after the crash: errors %d, degraded %v, hits %d; want errors > 0, degraded, 1 hit",
			h.StoreErrors, h.StoreDegraded, h.StoreHits)
	}
}

// TestHealthIsTheMetricsTable: Health is the /metrics table. Every
// numeric field carries a metric tag naming a valid sample with a
// counter or gauge type and help text; counters end in _total; a
// family's fields are adjacent; no sample repeats. A fresh server's
// scrape declares each family once and serves exactly those samples,
// the stage histograms and the uptime.
func TestHealthIsTheMetricsTable(t *testing.T) {
	want := map[string]bool{}       // sample name{labels}, as scraped
	families := map[string]string{} // family name → TYPE
	last := ""
	ht := reflect.TypeFor[streamfetch.Health]()
	for i := range ht.NumField() {
		f := ht.Field(i)
		tag, tagged := f.Tag.Lookup("metric")
		switch f.Type.Kind() {
		case reflect.Int, reflect.Int64, reflect.Float64, reflect.Bool:
		default:
			if tagged {
				t.Errorf("Health.%s: non-numeric field carries metric tag %q", f.Name, tag)
			}
			continue
		}
		parts := strings.Split(tag, ",")
		if len(parts) < 2 {
			t.Errorf("Health.%s: metric tag %q, want name,type[,label=value...]", f.Name, tag)
			continue
		}
		name, typ := parts[0], parts[1]
		if !metrics.ValidName(name) {
			t.Errorf("Health.%s: invalid metric name %q", f.Name, name)
		}
		switch {
		case typ == "counter" && !strings.HasSuffix(name, "_total"):
			t.Errorf("Health.%s: counter %s does not end in _total", f.Name, name)
		case typ != "counter" && typ != "gauge":
			t.Errorf("Health.%s: type %q, want counter or gauge", f.Name, typ)
		}
		if f.Tag.Get("help") == "" {
			t.Errorf("Health.%s: no help text", f.Name)
		}
		if prev, seen := families[name]; seen && (name != last || prev != typ) {
			t.Errorf("Health.%s: family %s split or retyped", f.Name, name)
		}
		families[name], last = typ, name
		key := name
		if len(parts) > 2 {
			var labels []string
			for _, kv := range parts[2:] {
				k, v, ok := strings.Cut(kv, "=")
				if !ok || !metrics.ValidName(k) {
					t.Errorf("Health.%s: label %q is not name=value", f.Name, kv)
				}
				labels = append(labels, fmt.Sprintf("%s=%q", k, v))
			}
			key += "{" + strings.Join(labels, ",") + "}"
		}
		if want[key] {
			t.Errorf("Health.%s: sample %s repeats", f.Name, key)
		}
		want[key] = true
	}
	families["streamfetch_stage_seconds"] = "histogram"
	for _, stage := range []string{"queue", "prepare", "warmup", "measure", "merge"} {
		want[fmt.Sprintf("streamfetch_stage_seconds_sum{stage=%q}", stage)] = true
		want[fmt.Sprintf("streamfetch_stage_seconds_count{stage=%q}", stage)] = true
	}
	families["streamfetch_uptime_seconds"] = "gauge"
	want["streamfetch_uptime_seconds"] = true

	srv := newTestServer(t)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	body := getMetrics(t, newServiceClient(t, srv))
	checkPrometheusText(t, body)
	for name, typ := range families {
		if n := strings.Count(body, "# TYPE "+name+" "+typ+"\n"); n != 1 {
			t.Errorf("TYPE %s %s declared %d times, want once", name, typ, n)
		}
	}
	got := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		name, _, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.HasPrefix(name, "streamfetch_stage_seconds_bucket{stage=") {
			continue
		}
		got[name] = true
		if !want[name] {
			t.Errorf("/metrics serves %s, which no Health field, stage histogram or uptime names", name)
		}
	}
	for name := range want {
		if !got[name] {
			t.Errorf("/metrics lacks %s", name)
		}
	}
}

// TestStageHistogramsSkipUnrunStages: a stage a job never ran is not
// observed — an unsharded run without checkpoints has no merge and no
// warming walk — so it cannot pull that stage's quantiles toward 0.
func TestStageHistogramsSkipUnrunStages(t *testing.T) {
	srv := newTestServer(t, streamfetch.WithWorkers(1))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	sc := newServiceClient(t, srv)
	env := sc.submit("/v1/runs", streamfetch.RunRequest{Benchmark: "164.gzip", Insts: 20_000, Seed: 81})
	if got := sc.await(env.ID, time.Minute); got.State != streamfetch.JobDone {
		t.Fatalf("job finished %s (error %q), want done", got.State, got.Error)
	}
	samples := scrapeMetrics(t, sc)
	for stage, want := range map[string]float64{"warmup": 0, "merge": 0, "measure": 1} {
		name := fmt.Sprintf("streamfetch_stage_seconds_count{stage=%q}", stage)
		if got, ok := samples[name]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, want)
		}
	}
}

// getMetrics returns the /metrics body.
func getMetrics(t *testing.T, sc *serviceClient) string {
	t.Helper()
	resp, err := sc.c.Get(sc.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// scrapeMetrics reads /metrics into a map from sample name (labels
// included) to value.
func scrapeMetrics(t *testing.T, sc *serviceClient) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	for _, line := range strings.Split(getMetrics(t, sc), "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		samples[name] = v
	}
	return samples
}

// slowJournalStore delays Journal calls by the configured amount,
// widening the window a submission spends inside store I/O so the test
// below can probe what else blocks behind it.
type slowJournalStore struct {
	store.Store
	delayMS atomic.Int64
}

func (s *slowJournalStore) Journal(rec store.JournalRecord) error {
	if d := s.delayMS.Load(); d > 0 {
		time.Sleep(time.Duration(d) * time.Millisecond)
	}
	return s.Store.Journal(rec)
}

// TestDegradedStoreSubmitLatency: while a submission is stuck retrying a
// failing journal write, polling an existing job and /healthz must stay
// fast. The registry lock used to be held across the whole retry/backoff
// sequence, convoying every read behind broken store I/O.
func TestDegradedStoreSubmitLatency(t *testing.T) {
	fst := faultstore.Wrap(store.NewMem())
	slow := &slowJournalStore{Store: fst}
	srv := newTestServer(t,
		streamfetch.WithWorkers(2),
		streamfetch.WithStore(slow),
		// Keep the recovery probe out of the way: this test owns the
		// store's failure schedule.
		streamfetch.WithStoreProbeInterval(time.Hour))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	sc := newServiceClient(t, srv)

	// A healthy-store job to poll against.
	env := sc.submit("/v1/runs", streamfetch.RunRequest{
		Benchmark: "164.gzip", Insts: 20_000, Seed: 61})
	if got := sc.await(env.ID, time.Minute); got.State != streamfetch.JobDone {
		t.Fatalf("job finished %s (error %q), want done", got.State, got.Error)
	}

	// Now every journal write fails after a 150ms stall: a fresh
	// submission sits in retry-with-backoff for several hundred ms.
	fst.FailAll(faultstore.OpJournal, errors.New("injected: journal failed"))
	slow.delayMS.Store(150)
	submitDone := make(chan int, 1)
	go func() {
		code := sc.do("POST", "/v1/runs", streamfetch.RunRequest{
			Benchmark: "164.gzip", Insts: 20_000, Seed: 62}, nil)
		submitDone <- code
	}()
	time.Sleep(50 * time.Millisecond) // let the submission enter the journal write

	const bound = 250 * time.Millisecond
	for _, probe := range []struct{ method, path string }{
		{"GET", "/v1/runs/" + env.ID},
		{"GET", "/healthz"},
	} {
		start := time.Now()
		if code := sc.do(probe.method, probe.path, nil, nil); code != http.StatusOK {
			t.Fatalf("%s %s during degraded submit: status %d", probe.method, probe.path, code)
		}
		if took := time.Since(start); took > bound {
			t.Errorf("%s %s took %s while a submission was stuck in store I/O (bound %s)",
				probe.method, probe.path, took, bound)
		}
	}

	select {
	case code := <-submitDone:
		// First failure after retries: refused with 500, and the server is
		// degraded from here on.
		if code != http.StatusInternalServerError {
			t.Fatalf("submission against failing store: status %d, want 500", code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("submission never returned")
	}
	slow.delayMS.Store(0)

	var h streamfetch.Health
	if code := sc.do("GET", "/healthz", nil, &h); code != http.StatusOK {
		t.Fatalf("GET /healthz: status %d", code)
	}
	if !h.StoreDegraded {
		t.Error("server not degraded after the failed journal write")
	}

	// Degraded mode accepts memory-only without touching the journal.
	env2 := sc.submit("/v1/runs", streamfetch.RunRequest{
		Benchmark: "164.gzip", Insts: 20_000, Seed: 63})
	if got := sc.await(env2.ID, time.Minute); got.State != streamfetch.JobDone {
		t.Fatalf("degraded-mode job finished %s (error %q), want done", got.State, got.Error)
	}
}
