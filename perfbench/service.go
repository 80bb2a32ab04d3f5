package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"streamfetch"
	"streamfetch/internal/store"
)

// mix is a service traffic mix: the arrival rate per second of each
// request class.
type mix struct{ hitRate, coldRate, sweepRate float64 }

var (
	hitMix = mix{hitRate: 25}
	// traceMix is the whole service mix, about half of two cores busy.
	// Its hits and jobs (one journal write per hit, two per executed job)
	// give a p90 with ten samples beyond it.
	traceMix = mix{hitRate: 25, coldRate: 2.5, sweepRate: 0.2}
)

// coldBench is the benchmark every cold run and sweep simulates.
const coldBench = "176.gcc"

// svc is one running service instance with the hits set-up prepared.
type svc struct {
	dir    string
	st     store.Store
	srv    *streamfetch.Server
	ts     *httptest.Server
	client *http.Client
	hits   []hitReq
}

// hitReq is a request set-up ran once, and the report every repeat must
// be answered with from the result cache.
type hitReq struct {
	body   []byte
	report string
}

// startService opens an FS store in a fresh directory (through wrap, when
// given), starts a server with its default settings on it behind an
// httptest server on loopback, and runs the hit set: one streams run per
// benchmark, width 8, optimized layout, at the run's reference seed. The
// server keeps a prepared session for each. The runs are short: a hit
// costs the same whatever the length of the run it repeats, and eleven
// 1M-instruction runs would make set-up the longest part of a run.
func (b *bench) startService(ctx context.Context, wrap func(store.Store) store.Store) (*svc, error) {
	dir, err := os.MkdirTemp(b.cfg.dir, "store-")
	if err != nil {
		return nil, err
	}
	fs, err := store.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	var st store.Store = fs
	if wrap != nil {
		st = wrap(fs)
	}
	srv, err := streamfetch.NewServer(streamfetch.WithStore(st))
	if err != nil {
		st.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	sv := &svc{dir: dir, st: st, srv: srv, ts: ts, client: ts.Client()}

	var ids []string
	for _, name := range streamfetch.Benchmarks()[:b.cfg.sz.hitSet] {
		req := streamfetch.RunRequest{Benchmark: name, Engine: "streams",
			Layout: "optimized", Width: 8, Seed: b.refSeed, Insts: b.cfg.sz.hitInsts}
		env, err := sv.accept(ctx, "/v1/runs", req)
		if err != nil {
			sv.close()
			return nil, err
		}
		sv.hits = append(sv.hits, hitReq{body: []byte(mustJSON(req))})
		ids = append(ids, env.ID)
	}
	for i, id := range ids {
		env, err := sv.wait(ctx, id, b.cfg.sz.drain)
		if err == nil && (env.State != streamfetch.JobDone || env.Report == nil) {
			err = fmt.Errorf("hit-set run %s ended %s: %s", id, env.State, env.Error)
		}
		if err != nil {
			sv.close()
			return nil, err
		}
		sv.hits[i].report = mustJSON(env.Report)
	}
	return sv, nil
}

// close drains the server and removes its store.
func (sv *svc) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = sv.srv.Shutdown(ctx) // a drain timeout leaves nothing to recover
	sv.ts.Close()
	sv.st.Close()
	os.RemoveAll(sv.dir)
}

// post submits a body and decodes the envelope; non-2xx is an error.
func (sv *svc) post(ctx context.Context, path string, body []byte) (*streamfetch.JobEnvelope, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, sv.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	return sv.do(req)
}

// get polls one job.
func (sv *svc) get(ctx context.Context, id string) (*streamfetch.JobEnvelope, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, sv.ts.URL+"/v1/runs/"+id, nil)
	if err != nil {
		return nil, err
	}
	env, _, err := sv.do(req)
	return env, err
}

func (sv *svc) do(req *http.Request) (*streamfetch.JobEnvelope, int, error) {
	resp, err := sv.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, resp.StatusCode, fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path,
			resp.Status, strings.TrimSpace(string(data)))
	}
	var env streamfetch.JobEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, resp.StatusCode, fmt.Errorf("%s %s: %w", req.Method, req.URL.Path, err)
	}
	return &env, resp.StatusCode, nil
}

// pollPeriod bounds latency resolution. Polling faster costs CPU that
// grows with how long jobs stay open, which host slowdowns would then
// leak into cpu_ms_per_op.
const pollPeriod = 20 * time.Millisecond

// accept submits a run or sweep that must be accepted fresh (202).
func (sv *svc) accept(ctx context.Context, path string, req any) (*streamfetch.JobEnvelope, error) {
	env, code, err := sv.post(ctx, path, []byte(mustJSON(req)))
	if err == nil && (code != http.StatusAccepted || env.Cached) {
		err = fmt.Errorf("fresh job answered %d cached=%v", code, env.Cached)
	}
	return env, err
}

// job submits a fresh run or sweep and waits until it is done.
func (sv *svc) job(ctx context.Context, path string, req any, timeout time.Duration) (*streamfetch.JobEnvelope, error) {
	env, err := sv.accept(ctx, path, req)
	if err != nil {
		return nil, err
	}
	if env, err = sv.wait(ctx, env.ID, timeout); err != nil {
		return nil, err
	}
	if env.State != streamfetch.JobDone {
		return nil, fmt.Errorf("job %s ended %s: %s", env.ID, env.State, env.Error)
	}
	return env, nil
}

// wait polls a job until it is terminal or the timeout passes.
func (sv *svc) wait(ctx context.Context, id string, timeout time.Duration) (*streamfetch.JobEnvelope, error) {
	end := time.Now().Add(timeout)
	for {
		env, err := sv.get(ctx, id)
		if err != nil || env.State.Terminal() {
			return env, err
		}
		if time.Now().After(end) {
			return env, fmt.Errorf("job %s still %s after %s", id, env.State, timeout)
		}
		time.Sleep(pollPeriod)
	}
}

// metricsText fetches GET /metrics and returns the unlabelled samples.
func (sv *svc) metricsText(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, sv.ts.URL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := sv.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// arrival is one scheduled request of the open loop.
type arrival struct {
	at    time.Duration
	class string // "hit", "cold" or "sweep"
}

// arrivals draws a seeded Poisson schedule of every class over dur,
// conditioned on its count: each class sends rate × dur requests (at
// least one when its rate is positive) at independent uniform times. A
// fixed count keeps the work of a run, and so its CPU time per request,
// independent of the seed.
func (b *bench) arrivals(m mix, dur time.Duration) []arrival {
	var out []arrival
	for _, c := range []struct {
		class string
		rate  float64
	}{{"hit", m.hitRate}, {"cold", m.coldRate}, {"sweep", m.sweepRate}} {
		if c.rate <= 0 {
			continue
		}
		n := max(1, int(math.Round(c.rate*dur.Seconds())))
		for i := 0; i < n; i++ {
			out = append(out, arrival{at: time.Duration(b.rng.Float64() * float64(dur)), class: c.class})
		}
	}
	slices.SortStableFunc(out, func(x, y arrival) int { return int(x.at - y.at) })
	return out
}

// loadStats is what one open-loop load measured.
type loadStats struct {
	lat     map[string][]float64 // class → latencies in seconds
	queue   []float64            // cold runs' queue stage, seconds
	measure []float64            // cold runs' measure stage, seconds
	polls   int
	lag     time.Duration // how late the generator sent, at worst
	hitCPU  []float64     // CPU seconds of each chunk of hits
}

// coldRun is a cold request and the report the server returned for it.
type coldRun struct {
	req streamfetch.RunRequest
	rep *streamfetch.Report
}

// pending is a submitted job the poller watches until it is terminal.
type pending struct {
	id    string
	class string
	due   time.Time
}

// load drives the open loop: this goroutine submits on schedule, one
// more polls submitted jobs until they are terminal. Latency runs from a
// request's scheduled send time, so generator stalls count against it.
func (b *bench) load(ctx context.Context, sv *svc, m mix, dur time.Duration) *loadStats {
	arr := b.arrivals(m, dur)
	ls := &loadStats{lat: map[string][]float64{}}
	// One slot per possible submission, so the generator never blocks on
	// the poller.
	pend := make(chan pending, len(arr))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		b.poll(ctx, sv, pend, ls)
	}()

	var hitLat []float64
	nHit, nCold, nSweep := 0, 0, 0
	start, chunkCPU := time.Now(), cpuNow()
	for _, a := range arr {
		due := start.Add(a.at)
		time.Sleep(time.Until(due))
		ls.lag = max(ls.lag, time.Since(due))
		switch a.class {
		case "hit":
			h := sv.hits[nHit%len(sv.hits)]
			nHit++
			env, code, err := sv.post(ctx, "/v1/runs", h.body)
			lat := time.Since(due).Seconds()
			if err == nil && (code != http.StatusOK || !env.Cached || env.State != streamfetch.JobDone ||
				env.Report == nil || mustJSON(env.Report) != h.report) {
				err = fmt.Errorf("hit answered %d cached=%v state=%s, or with another report", code, env.Cached, env.State)
			}
			b.ops.op(wrapErr("hit", err))
			if err == nil {
				hitLat = append(hitLat, lat)
			}
			if nHit%b.cfg.sz.hitChunk == 0 {
				cpu := cpuNow()
				ls.hitCPU = append(ls.hitCPU, cpu-chunkCPU)
				chunkCPU = cpu
			}
		case "cold":
			req := b.coldReq(nCold/len(engines), engines[nCold%len(engines)])
			b.submit(ctx, sv, "/v1/runs", req, pending{class: "cold", due: due}, pend)
			nCold++
		case "sweep":
			b.submit(ctx, sv, "/v1/sweeps", b.sweepReq(nSweep), pending{class: "sweep", due: due}, pend)
			nSweep++
		}
	}
	close(pend)
	wg.Wait()
	ls.lat["hit"] = hitLat
	return ls
}

// submit posts a fresh job and hands it to the poller.
func (b *bench) submit(ctx context.Context, sv *svc, path string, req any, p pending, pend chan<- pending) {
	env, err := sv.accept(ctx, path, req)
	if err != nil {
		b.ops.op(wrapErr(p.class, err))
		return
	}
	p.id = env.ID
	pend <- p
}

// poll watches submitted jobs round-robin until each is terminal,
// recording its latency at the first poll that sees it finished. Jobs
// still running a drain period after the last submission fail.
func (b *bench) poll(ctx context.Context, sv *svc, pend <-chan pending, ls *loadStats) {
	var open []pending
	var drainEnd time.Time
	for pend != nil || len(open) > 0 {
		if len(open) == 0 {
			p, ok := <-pend
			if !ok {
				return
			}
			open = append(open, p)
		}
	take:
		for pend != nil {
			select {
			case p, ok := <-pend:
				if !ok {
					pend = nil
					drainEnd = time.Now().Add(b.cfg.sz.drain)
					break take
				}
				open = append(open, p)
			default:
				break take
			}
		}
		still := open[:0]
		for _, p := range open {
			env, err := sv.get(ctx, p.id)
			ls.polls++
			switch {
			case err != nil:
				b.ops.op(wrapErr(p.class+" poll", err))
			case env.State.Terminal():
				b.finished(p, env, time.Since(p.due).Seconds(), ls)
			case !drainEnd.IsZero() && time.Now().After(drainEnd):
				b.ops.op(fmt.Errorf("%s %s still %s after the drain period", p.class, p.id, env.State))
			default:
				still = append(still, p)
			}
		}
		open = still
		time.Sleep(pollPeriod)
	}
}

// finished checks a terminal job and records its latency.
func (b *bench) finished(p pending, env *streamfetch.JobEnvelope, lat float64, ls *loadStats) {
	var err error
	switch {
	case env.State != streamfetch.JobDone:
		err = fmt.Errorf("%s %s ended %s: %s", p.class, p.id, env.State, env.Error)
	case p.class == "cold":
		err = checkRun(env.Report, nil)
	default:
		_, err = checkCells(env)
	}
	b.ops.op(wrapErr(p.class+" "+p.id, err))
	if err != nil {
		return
	}
	ls.lat[p.class] = append(ls.lat[p.class], lat)
	if p.class == "cold" && env.Timings != nil {
		ls.queue = append(ls.queue, env.Timings.QueueSeconds)
		ls.measure = append(ls.measure, env.Timings.MeasureSeconds)
	}
}

// Cold requests come in groups, each a new reference input of coldBench:
// a run per engine at width 8 and a sweep of the four engines at width 4,
// all optimized layout. The first request of a group makes the server
// prepare a session for its seed, which the rest of the group reuses, and
// no two requests share a content key, so every one is simulated. Groups
// cost the same whatever the seed.

// coldSeed is group g's reference seed; the hit set uses b.refSeed.
func (b *bench) coldSeed(g int) uint64 { return b.refSeed + 1 + uint64(g) }

// coldReq asks for group g's run on engine.
func (b *bench) coldReq(g int, engine string) streamfetch.RunRequest {
	return streamfetch.RunRequest{Benchmark: coldBench, Engine: engine, Layout: "optimized",
		Width: 8, Seed: b.coldSeed(g), Insts: b.cfg.sz.svcInsts}
}

// sweepReq asks for group g's sweep.
func (b *bench) sweepReq(g int) streamfetch.SweepRequest {
	return streamfetch.SweepRequest{Benchmarks: []string{coldBench}, Engines: engines,
		Layouts: []string{"optimized"}, Widths: []int{4}, Seed: b.coldSeed(g), Insts: b.cfg.sz.svcInsts}
}

// checkDirect compares the first cold run per engine with the same
// configuration run directly through one session: the service must serve
// exactly the bytes Session.RunWith computes.
func (b *bench) checkDirect(ctx context.Context, firstCold map[string]coldRun) {
	var direct *streamfetch.Session
	for _, e := range slices.Sorted(maps.Keys(firstCold)) {
		c := firstCold[e]
		if direct == nil {
			direct = streamfetch.New(c.req.Benchmark, streamfetch.WithSeed(c.req.Seed),
				streamfetch.WithInstructions(c.req.Insts))
		}
		rep, err := direct.RunWith(ctx, streamfetch.WithEngine(c.req.Engine),
			streamfetch.WithLayout(c.req.Layout), streamfetch.WithWidth(c.req.Width))
		if err == nil && reportJSON(rep) != reportJSON(c.rep) {
			err = errors.New("service report differs from a direct Session.RunWith")
		}
		b.ops.op(wrapErr("cold "+e+" vs direct run", err))
	}
}

// serviceHit paces hits at hitMix's rate. The generator waits for each
// response, so requests do not overlap and every chunk of hits does the
// same work.
func (b *bench) serviceHit(ctx context.Context) error {
	sv, err := setUp(b, func() (*svc, error) { return b.startService(ctx, nil) }, (*svc).close)
	if err != nil {
		return err
	}
	ls := b.load(ctx, sv, hitMix, time.Duration(b.cfg.seconds*float64(time.Second)))
	sv.close()
	b.note("hit    %s", describe(ls.lat["hit"], 1000, "ms"))
	b.note("generator lag at worst %.2fms", ls.lag.Seconds()*1000)
	if len(ls.hitCPU) == 0 {
		return errors.New("too few hits completed to measure")
	}
	b.emitCPU(ls.hitCPU, b.cfg.sz.hitChunk)
	return nil
}

// serviceCold is a closed loop of one client over HTTP: round r is cold
// group r, its requests in a seeded order, each awaited before the next.
func (b *bench) serviceCold(ctx context.Context) error {
	sv, err := setUp(b, func() (*svc, error) { return b.startService(ctx, nil) }, (*svc).close)
	if err != nil {
		return err
	}
	firstCold := map[string]coldRun{}
	var ops []op
	// Each op runs once a round, so the count of its calls is the group.
	for _, e := range engines {
		g := 0
		ops = append(ops, op{name: "cold/" + e, do: func(ctx context.Context) (uint64, error) {
			req := b.coldReq(g, e)
			g++
			env, err := sv.job(ctx, "/v1/runs", req, b.cfg.sz.drain)
			if err == nil {
				err = checkRun(env.Report, nil)
			}
			if err != nil {
				return 0, err
			}
			if req.Seed == b.coldSeed(0) {
				firstCold[e] = coldRun{req: req, rep: env.Report}
			}
			return env.Report.Retired, nil
		}})
	}
	g := 0
	ops = append(ops, op{name: "sweep", do: func(ctx context.Context) (uint64, error) {
		req := b.sweepReq(g)
		g++
		env, err := sv.job(ctx, "/v1/sweeps", req, b.cfg.sz.drain)
		if err != nil {
			return 0, err
		}
		return checkCells(env)
	}})
	ls := b.closedLoop(ctx, ops, b.rounds(coldRoundSecs))
	sv.close()
	b.checkDirect(ctx, firstCold)
	b.emitLoop(ls)
	return nil
}

// checkCells checks a finished sweep's cells and returns the
// instructions they simulated.
func checkCells(env *streamfetch.JobEnvelope) (uint64, error) {
	if len(env.Cells) != len(engines) {
		return 0, fmt.Errorf("sweep %s has %d cells, want %d", env.ID, len(env.Cells), len(engines))
	}
	var retired uint64
	for _, c := range env.Cells {
		if c.Error != "" {
			return 0, errors.New(c.Error)
		}
		if err := checkRun(c.Report, nil); err != nil {
			return 0, err
		}
		retired += c.Report.Retired
	}
	return retired, nil
}
