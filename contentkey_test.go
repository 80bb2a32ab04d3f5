package streamfetch

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"streamfetch/internal/layout"
)

// contentKeyShapes are request shapes whose content keys are pinned in
// TestContentKeyPinned, recorded at modelVersion 2. A changed hash means
// cached results would stop being found (or, worse, a different request
// would collide with them); only a modelVersion bump moves them on
// purpose, and it moves every one of them.
var contentKeyShapes = []struct {
	name  string
	run   *RunRequest
	sweep *SweepRequest
	want  string
}{
	{name: "run defaults omitted", run: &RunRequest{Benchmark: "164.gzip"},
		want: "bcef73ee666bd8709e086ae90d961b906a691e77a4b352c048bb041ea311f994"},
	{name: "run defaults spelled out", run: &RunRequest{Benchmark: "164.gzip", Engine: "streams", Layout: "base",
		Width: 8, Seed: 99, TrainSeed: 7, Insts: 2_000_000},
		want: "bcef73ee666bd8709e086ae90d961b906a691e77a4b352c048bb041ea311f994"},
	{name: "run fresh seed", run: &RunRequest{Benchmark: "164.gzip", Seed: 12345},
		want: "2be4b57ecc5f7b16a9447b6ca813f5c7420e90249f82399ff27f7e1c6c239e90"},
	{name: "run train fields", run: &RunRequest{Benchmark: "176.gcc", Layout: "optimized", TrainSeed: 11,
		TrainInsts: 300_000},
		want: "c1dc9c5e6cf8f95520ad4791b2e7ef73e1aaaf7359dc1df05a1b8b0c2f3822d6"},
	{name: "run train insts spelled as the derived default", run: &RunRequest{Benchmark: "164.gzip",
		Insts: 1_000_000, TrainInsts: 250_000},
		want: "94f233a871fc622d80a5fcb9068de79494e3807e7d6f4cff9d9640dcb9d62142"},
	{name: "run sharded warm", run: &RunRequest{Benchmark: "176.gcc", Engine: "ev8", Insts: 8_000_000,
		Shards: 4, Warmup: 20_000},
		want: "d013fd610e4b2eb080ddf3e08aa68b33a57c18eb8e7e87025b8dc42bed4122e2"},
	{name: "run sharded cold", run: &RunRequest{Benchmark: "176.gcc", Shards: 4, Warmup: 5_000, ColdShards: true},
		want: "c751bb2c219aa9d0be5c474340e5cfbd7d42d4672d1e7c501b6aa11156ccc6c9"},
	{name: "run sharded warmup 0", run: &RunRequest{Benchmark: "164.gzip", Insts: 300_000, Shards: 3},
		want: "9a3ad7db0f38288a0dc6ce6f61b118b19254bd3fce0114146af5cb19be336632"},
	{name: "run sampled", run: &RunRequest{Benchmark: "164.gzip", Insts: 1_000_000, Samples: 8,
		SampleInsts: 25_000, Warmup: 5_000},
		want: "8bba7bf2ea9e7b475ccdf2c07ec4255638f9b344568f31a5933a8962e82d831f"},
	{name: "run sampled warmup 0 ignores shards", run: &RunRequest{Benchmark: "164.gzip", Shards: 7,
		Samples: 4, SampleInsts: 10_000},
		want: "535ad0d0fa883b993b08eb272a9898d7fe6f8b5775769a98be2e7ef26634cf0d"},
	{name: "run cap, line size and width", run: &RunRequest{Benchmark: "300.twolf", Engine: "tcache", Width: 4,
		MaxInsts: 100_000, ICacheLineBytes: 64},
		want: "927c4b3fe43945e5c75b8d003bc73e8816bb27cfa393a183ad166317160d58e4"},
	{name: "sweep defaults", sweep: &SweepRequest{},
		want: "3f4a74b832f498d59b0a8ccadc25f0b01d339978705042f9ae5f5919512462d0"},
	{name: "sweep axes and seed", sweep: &SweepRequest{Benchmarks: []string{"176.gcc"},
		Layouts: []string{"optimized"}, Engines: []string{"ev8", "streams"}, Widths: []int{4, 8},
		Seed: 5, Insts: 1_000_000},
		want: "e7f2d8b5ce5ad279dd3f6f9a6e18ad94ce09e8aabf8f0bbb9e05c78cd885d5dd"},
	{name: "sweep sharded warmup 0", sweep: &SweepRequest{Benchmarks: []string{"164.gzip"}, Shards: 2},
		want: "92015830c7a25c95466a112b92903b424d946912470d80fe6e9de1dd2747187d"},
	{name: "sweep sharded warm with train fields", sweep: &SweepRequest{Benchmarks: []string{"164.gzip"},
		Shards: 2, Warmup: 10_000, TrainSeed: 3, TrainInsts: 100_000},
		want: "63d931ef4037f8e0434bc5eb9316d6bef4845c6dac85f1f993fe2bd6e83b5b87"},
	{name: "sweep capped unsharded", sweep: &SweepRequest{Benchmarks: []string{"300.twolf"},
		Engines: []string{"tcache"}, Widths: []int{4}, MaxInsts: 100_000},
		want: "0333f6a687c1005d293650c15d311739ce11e9170ded6bcd47aecda421df6355"},
}

func shapeKey(t *testing.T, run *RunRequest, sweep *SweepRequest) string {
	t.Helper()
	if run != nil {
		r := *run
		if err := r.validate(); err != nil {
			t.Fatal(err)
		}
		return r.contentKey()
	}
	r := *sweep
	if err := r.normalize(); err != nil {
		t.Fatal(err)
	}
	return r.contentKey()
}

// TestContentKeyPinned: every pinned request shape hashes to its
// recorded content key.
func TestContentKeyPinned(t *testing.T) {
	for _, c := range contentKeyShapes {
		if got := shapeKey(t, c.run, c.sweep); got != c.want {
			t.Errorf("%s: content key %s, want %s", c.name, got, c.want)
		}
	}
}

// goldensPin is the sha256 of the report goldens (goldensHash), recorded
// at modelVersion goldensPinVersion. A report byte changes only with a
// modelVersion bump, so re-recording a golden without one, or bumping
// without re-pinning, fails TestModelVersionPinsGoldens.
const (
	goldensPinVersion = 2
	goldensPin        = "0eb4f2bf0ab5ed8d71bc61e845ffc7b972b4e4faeb3515ee632f361a0d4879bb"
)

// goldensHash hashes the names and bytes of testdata/golden_*.json in
// name order.
func goldensHash(t *testing.T) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join("testdata", "golden_*.json"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no goldens found (%v)", err)
	}
	slices.Sort(names)
	h := sha256.New()
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.Base(name), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestModelVersionPinsGoldens: the report goldens are the ones pinned at
// the current modelVersion. Cached reports and checkpoints are keyed by
// modelVersion, so goldens that move under an unchanged version mean
// stale stored bytes would keep being served.
func TestModelVersionPinsGoldens(t *testing.T) {
	if got := goldensHash(t); got != goldensPin || modelVersion != goldensPinVersion {
		t.Fatalf("testdata/golden_*.json hash to %s at modelVersion %d; pinned %s at %d: "+
			"goldens that change report bytes must bump modelVersion, then re-pin goldensPin and goldensPinVersion",
			got, modelVersion, goldensPin, goldensPinVersion)
	}
}

// TestKeysCarryModelVersion: the run, sweep and checkpoint keys each hash
// modelVersion, so one bump retires every stored result and checkpoint.
func TestKeysCarryModelVersion(t *testing.T) {
	run := RunRequest{Benchmark: "164.gzip", Shards: 2, Warmup: 1_000}
	if err := run.validate(); err != nil {
		t.Fatal(err)
	}
	sweep := SweepRequest{Benchmarks: []string{"164.gzip"}}
	if err := sweep.normalize(); err != nil {
		t.Fatal(err)
	}
	ck, ok := New("164.gzip").ckptKeySpec(&layout.Layout{Name: "base"}, 10_000, "")
	if !ok {
		t.Fatal("a default session has no checkpoint identity")
	}
	for _, c := range []struct {
		name string
		spec any
		path []string
	}{
		{"run", run.keySpec(), []string{"v"}},
		{"sweep", sweep.keySpec(), []string{"cell", "v"}},
		{"checkpoint", ck, []string{"model"}},
	} {
		b, err := json.Marshal(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		var v any
		if err := json.Unmarshal(b, &v); err != nil {
			t.Fatal(err)
		}
		for _, f := range c.path {
			m, _ := v.(map[string]any)
			v = m[f]
		}
		if v != float64(modelVersion) {
			t.Errorf("%s key %s: %v = %v, want modelVersion %d", c.name, b, c.path, v, modelVersion)
		}
	}
}

// randomRunRequest draws a valid request over every content-key field,
// at lengths small enough to simulate.
func randomRunRequest(rng *rand.Rand) RunRequest {
	pick := func(vals ...uint64) uint64 { return vals[rng.IntN(len(vals))] }
	r := RunRequest{
		Benchmark:  []string{"164.gzip", "300.twolf"}[rng.IntN(2)],
		Engine:     []string{"", "ev8", "ftb", "streams", "tcache"}[rng.IntN(5)],
		Layout:     []string{"", "base", "optimized"}[rng.IntN(3)],
		Width:      []int{0, 2, 4, 8}[rng.IntN(4)],
		Seed:       pick(0, 99, 1+rng.Uint64N(1000)),
		TrainSeed:  pick(0, 7, 1+rng.Uint64N(1000)),
		Insts:      pick(20_000, 24_000),
		TrainInsts: pick(0, 3_000, 5_000),
		MaxInsts:   pick(0, 0, 15_000),
		Shards:     rng.IntN(4),
		Warmup:     pick(0, 2_000),
		ColdShards: rng.IntN(4) == 0,
	}
	if rng.IntN(4) == 0 {
		r.ICacheLineBytes = 64
	}
	if rng.IntN(3) == 0 {
		r.Samples, r.SampleInsts = 1+rng.IntN(3), 4_000
	}
	return r
}

// spelledVariant returns a request that normalizes equal to r: defaults
// toggled between omitted and spelled out, fields the request's mode
// ignores changed, and fresh execution policy.
func spelledVariant(rng *rand.Rand, r RunRequest) RunRequest {
	v := r
	toggle := func(s *string, def string) {
		if *s == "" {
			*s = def
		} else if *s == def {
			*s = ""
		}
	}
	toggle(&v.Engine, defaultEngine)
	toggle(&v.Layout, defaultLayout)
	if v.Width == 0 {
		v.Width = defaultWidth
	} else if v.Width == defaultWidth {
		v.Width = 0
	}
	if v.Seed == 0 {
		v.Seed = defaultSeed
	} else if v.Seed == defaultSeed {
		v.Seed = 0
	}
	if v.TrainSeed == 0 {
		v.TrainSeed = defaultTrainSeed
	} else if v.TrainSeed == defaultTrainSeed {
		v.TrainSeed = 0
	}
	switch {
	case v.Samples > 0:
		v.Shards = rng.IntN(5)
	case v.Shards <= 1:
		v.Shards = 1 - v.Shards
		v.Warmup = 3_000 - v.Warmup
		v.ColdShards = !v.ColdShards
	}
	v.Priority = rng.IntN(5) - 2
	v.DeadlineMS = 3_600_000 + rng.Int64N(1000)
	v.TimeoutMS = 600_000 + rng.Int64N(1000)
	return v
}

// TestContentKeyProperties: over random requests, execution policy
// (priority, deadline_ms, timeout_ms) never changes the content key; a
// changed seed, length, train seed, training length, engine, layout,
// width, instruction cap or line size always does; and requests that
// normalize equal hash equal.
func TestContentKeyProperties(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	key := func(r RunRequest) string {
		if err := r.validate(); err != nil {
			t.Fatalf("%+v: %v", r, err)
		}
		return r.contentKey()
	}
	for i := 0; i < 500; i++ {
		r := randomRunRequest(rng)
		k := key(r)

		p := r
		p.Priority = rng.IntN(7) - 3
		p.DeadlineMS = rng.Int64N(1 << 40)
		p.TimeoutMS = rng.Int64N(1 << 40)
		if key(p) != k {
			t.Fatalf("policy fields changed the key: %+v vs %+v", r, p)
		}
		if key(spelledVariant(rng, r)) != k {
			t.Fatalf("normalize-equal requests hash apart: %+v", r)
		}

		spec := r.contentSpec()
		mutants := map[string]RunRequest{}
		m := r
		m.Seed = spec.seed + 1 + rng.Uint64N(100)
		mutants["seed"] = m
		m = r
		m.Insts = spec.insts + 1 + rng.Uint64N(100)
		mutants["insts"] = m
		m = r
		m.TrainSeed = spec.trainSeed + 1 + rng.Uint64N(100)
		mutants["train_seed"] = m
		m = r
		m.TrainInsts = r.TrainInsts + 1 + rng.Uint64N(100)
		mutants["train_insts"] = m
		m = r
		m.Engine = "ev8"
		if cmp.Or(r.Engine, defaultEngine) == "ev8" {
			m.Engine = "ftb"
		}
		mutants["engine"] = m
		m = r
		m.Layout = "optimized"
		if r.Layout == "optimized" {
			m.Layout = "base"
		}
		mutants["layout"] = m
		m = r
		m.Width = cmp.Or(r.Width, defaultWidth) + 1
		mutants["width"] = m
		m = r
		m.MaxInsts = r.MaxInsts + 1 + rng.Uint64N(100)
		mutants["max_insts"] = m
		m = r
		m.ICacheLineBytes = r.ICacheLineBytes + 32
		mutants["icache_line_bytes"] = m
		for field, m := range mutants {
			if key(m) == k {
				t.Fatalf("changing %s kept the key: %+v vs %+v", field, r, m)
			}
		}
	}
}

// TestContentKeyModeFields: over random requests in each mode, the shard,
// warmup, cold-shard and sampling fields change the content key exactly
// when that mode uses them. A single-shot run ignores warmup, cold_shards
// and sample_insts; a sharded run is shaped by shards, warmup and
// cold_shards but not sample_insts; a sampled run is shaped by samples,
// sample_insts, warmup and cold_shards but not shards.
func TestContentKeyModeFields(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	key := func(r RunRequest) string {
		if err := r.validate(); err != nil {
			t.Fatalf("%+v: %v", r, err)
		}
		return r.contentKey()
	}
	// Each mutation keeps the request in its mode.
	mutate := map[string]func(*RunRequest){
		"shards": func(r *RunRequest) {
			if r.Samples > 0 {
				r.Shards = (r.Shards + 1 + rng.IntN(4)) % 6
			} else {
				r.Shards = r.Shards%4 + 2 // 2..5, never r.Shards
			}
		},
		"warmup":       func(r *RunRequest) { r.Warmup += 1 + rng.Uint64N(1000) },
		"cold_shards":  func(r *RunRequest) { r.ColdShards = !r.ColdShards },
		"samples":      func(r *RunRequest) { r.Samples += 1 + rng.IntN(3) },
		"sample_insts": func(r *RunRequest) { r.SampleInsts += 1 + rng.Uint64N(1000) },
	}
	modes := []struct {
		name  string
		shape func(*RunRequest)
		// changes maps each field tried in this mode to whether it must
		// change the key.
		changes map[string]bool
	}{
		{"single-shot", func(r *RunRequest) {
			r.Samples, r.Shards = 0, rng.IntN(2)
		}, map[string]bool{"warmup": false, "cold_shards": false, "sample_insts": false}},
		{"sharded", func(r *RunRequest) {
			r.Samples, r.Shards = 0, 2+rng.IntN(4)
		}, map[string]bool{"shards": true, "warmup": true, "cold_shards": true, "sample_insts": false}},
		{"sampled", func(r *RunRequest) {
			r.Samples, r.SampleInsts, r.Shards = 1+rng.IntN(3), 1+rng.Uint64N(10_000), rng.IntN(6)
		}, map[string]bool{"samples": true, "sample_insts": true, "warmup": true, "cold_shards": true, "shards": false}},
	}
	for _, mode := range modes {
		for i := 0; i < 300; i++ {
			r := randomRunRequest(rng)
			r.Warmup = rng.Uint64N(3) * 1_000
			r.SampleInsts = rng.Uint64N(2) * 4_000
			mode.shape(&r)
			k := key(r)
			for field, changes := range mode.changes {
				m := r
				mutate[field](&m)
				if got := key(m) != k; got != changes {
					t.Fatalf("%s run: changing %s changed the key = %v, want %v:\n%+v\n%+v",
						mode.name, field, got, changes, r, m)
				}
			}
		}
	}
}

// TestContentKeyEqualReports: requests that normalize equal get
// byte-identical reports, each computed by its own server.
func TestContentKeyEqualReports(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	n := 6
	if testing.Short() {
		n = 2
	}
	for i := 0; i < n; i++ {
		r := randomRunRequest(rng)
		v := spelledVariant(rng, r)
		var reps [2][]byte
		for j, req := range []RunRequest{r, v} {
			srv, err := NewServer(WithWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			reps[j] = serveRun(t, srv, req)
			shutdownServer(t, srv)
		}
		if !bytes.Equal(reps[0], reps[1]) {
			t.Errorf("normalize-equal requests reported differently:\n%+v\n%+v\n%s\n%s", r, v, reps[0], reps[1])
		}
	}
}

// randomSweepRequest draws a valid sweep: a random subset of each axis
// in random order (an empty axis stands for the full one), and random
// seeds, lengths, shards, warmup and cold-shard mode.
func randomSweepRequest(rng *rand.Rand) SweepRequest {
	subset := func(all []string) []string {
		if rng.IntN(3) == 0 {
			return nil
		}
		s := slices.Clone(all)
		rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		return s[:1+rng.IntN(len(s))]
	}
	pick := func(vals ...uint64) uint64 { return vals[rng.IntN(len(vals))] }
	r := SweepRequest{
		Benchmarks: subset(Benchmarks()),
		Layouts:    subset(Layouts()),
		Engines:    subset(Engines()),
		Seed:       pick(0, 99, 1+rng.Uint64N(1000)),
		TrainSeed:  pick(0, 7, 1+rng.Uint64N(1000)),
		Insts:      pick(0, 20_000, 1+rng.Uint64N(1<<30)),
		TrainInsts: pick(0, 3_000),
		MaxInsts:   pick(0, 0, 15_000),
		Shards:     rng.IntN(4),
		Warmup:     pick(0, 2_000),
		ColdShards: rng.IntN(4) == 0,
	}
	if rng.IntN(3) > 0 {
		r.Widths = []int{8, 4, 2, 1 + rng.IntN(16)}[:1+rng.IntN(4)]
	}
	return r
}

// orFull spells out an empty sweep axis as the full one.
func orFull[T any](axis, full []T) []T {
	if len(axis) == 0 {
		return full
	}
	return axis
}

// TestSweepKeyProperties: over random sweeps, the content key is the same
// for empty and spelled-out axes, for seed 0 and 99, and for shards 0 and
// 1; warmup and cold-shard mode never move an unsharded sweep's key; axis
// order is part of the identity, since cells return in enumeration order;
// and each cell is keyed as the run built by hand from its fields.
func TestSweepKeyProperties(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	key := func(r SweepRequest) string {
		if err := r.normalize(); err != nil {
			t.Fatalf("%+v: %v", r, err)
		}
		return r.contentKey()
	}
	for i := 0; i < 500; i++ {
		r := randomSweepRequest(rng)
		k := key(r)

		v := r
		v.Benchmarks = orFull(v.Benchmarks, Benchmarks())
		v.Layouts = orFull(v.Layouts, Layouts())
		v.Engines = orFull(v.Engines, Engines())
		v.Widths = orFull(v.Widths, []int{defaultWidth})
		if key(v) != k {
			t.Fatalf("spelled-out axes moved the key: %+v", r)
		}

		v = r
		switch v.Seed {
		case 0:
			v.Seed = defaultSeed
		case defaultSeed:
			v.Seed = 0
		}
		if key(v) != k {
			t.Fatalf("seed %d and %d hash apart: %+v", r.Seed, v.Seed, r)
		}

		if r.Shards <= 1 {
			v = r
			v.Shards = 1 - r.Shards
			v.Warmup = 3_000 - r.Warmup
			v.ColdShards = !r.ColdShards
			if key(v) != k {
				t.Fatalf("shards, warmup or cold shards moved an unsharded sweep's key: %+v vs %+v", r, v)
			}
		}

		v = r
		v.Benchmarks = slices.Clone(orFull(r.Benchmarks, Benchmarks()))
		if len(v.Benchmarks) > 1 {
			slices.Reverse(v.Benchmarks)
			if key(v) == k {
				t.Fatalf("reversed benchmark axis kept the key: %+v", r)
			}
		}

		// Each cell is the run a client would submit for it, keyed as
		// that run, in enumeration order.
		n := r
		if err := n.normalize(); err != nil {
			t.Fatal(err)
		}
		cells := n.cells()
		c := 0
		for _, b := range n.Benchmarks {
			for _, l := range n.Layouts {
				for _, e := range n.Engines {
					for _, w := range n.Widths {
						want := RunRequest{Benchmark: b, Engine: e, Layout: l, Width: w,
							Seed: r.Seed, TrainSeed: r.TrainSeed, Insts: r.Insts, TrainInsts: r.TrainInsts,
							MaxInsts: r.MaxInsts, Shards: r.Shards, Warmup: r.Warmup, ColdShards: r.ColdShards}
						if c >= len(cells) || cells[c].contentKey() != want.contentKey() {
							t.Fatalf("sweep %+v: cell %d is not the run %+v", r, c, want)
						}
						c++
					}
				}
			}
		}
		if c != len(cells) {
			t.Fatalf("sweep %+v has %d cells, want %d", r, len(cells), c)
		}
	}
}

// FuzzRunRequestKey drives arbitrary bytes through what POST /v1/runs
// does to its body: the strict decode (unknown fields rejected), validate
// and contentKey. A request is either rejected or yields a key that
// survives a JSON round trip: marshalled, decoded and validated again it
// is the same request with the same key.
func FuzzRunRequestKey(f *testing.F) {
	for _, body := range []string{
		`{"benchmark":"164.gzip"}`,
		`{"benchmark":"176.gcc","engine":"ev8","layout":"optimized","width":4,"insts":100000,"max_insts":50000}`,
		`{"benchmark":"164.gzip","shards":4,"warmup":20000,"cold_shards":true,"icache_line_bytes":64}`,
		`{"benchmark":"300.twolf","samples":8,"sample_insts":50000,"warmup":1000,"seed":3,"train_seed":4,"train_insts":9}`,
		`{"benchmark":"164.gzip","timeout_ms":5,"priority":-1,"deadline_ms":100}`,
		`{"benchmark":"164.gzip","unknown":1}`,
		`{"benchmark":"nope"}`,
		`{"benchmark":"164.gzip","samples":2}`,
		`{"benchmark":"164.gzip","width":-1}`,
		`[]`,
		``,
	} {
		f.Add([]byte(body))
	}
	decode := func(body []byte) (RunRequest, bool) {
		var req RunRequest
		r := httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body))
		return req, decodeBody(httptest.NewRecorder(), r, &req)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, ok := decode(body)
		if !ok || req.validate() != nil {
			return
		}
		key := req.contentKey()
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("marshalling %+v: %v", req, err)
		}
		back, ok := decode(again)
		if !ok {
			t.Fatalf("the decode rejects its own request %s", again)
		}
		if err := back.validate(); err != nil {
			t.Fatalf("round-tripped request %s fails validation: %v", again, err)
		}
		if back != req {
			t.Fatalf("round trip changed the request: %+v, then %+v", req, back)
		}
		if k := back.contentKey(); k != key {
			t.Fatalf("round trip changed the key of %s: %s, then %s", again, key, k)
		}
	})
}
