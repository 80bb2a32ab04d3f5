package streamfetch

import (
	"bytes"
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"
)

// contentKeyShapes are request shapes whose content keys are pinned in
// TestContentKeyPinned. The want hashes were computed by the code before
// preparation identity was split from content identity; a changed hash
// means cached results would stop being found (or, worse, a different
// request would collide with them).
var contentKeyShapes = []struct {
	name  string
	run   *RunRequest
	sweep *SweepRequest
	want  string
}{
	{name: "run defaults omitted", run: &RunRequest{Benchmark: "164.gzip"},
		want: "2d8a2a2944ae2fe6766f92db847b3ed25abbb48d2ad5bc11405d19a44a7e7144"},
	{name: "run defaults spelled out", run: &RunRequest{Benchmark: "164.gzip", Engine: "streams", Layout: "base",
		Width: 8, Seed: 99, TrainSeed: 7, Insts: 2_000_000},
		want: "2d8a2a2944ae2fe6766f92db847b3ed25abbb48d2ad5bc11405d19a44a7e7144"},
	{name: "run fresh seed", run: &RunRequest{Benchmark: "164.gzip", Seed: 12345},
		want: "b7228d98bb90308da1199511c3a2af0387c1b44835572d8df28088247b7f9c94"},
	{name: "run train fields", run: &RunRequest{Benchmark: "176.gcc", Layout: "optimized", TrainSeed: 11,
		TrainInsts: 300_000},
		want: "2dce269fe2caf362fbc46a9003f3c34c63ea0467e37f4bc5214f0e24da4686dc"},
	{name: "run train insts spelled as the derived default", run: &RunRequest{Benchmark: "164.gzip",
		Insts: 1_000_000, TrainInsts: 250_000},
		want: "1df9d36e2611ff109f295c1f485ec185cb410f0c65e0d062d357df77f8b31ae0"},
	{name: "run sharded warm", run: &RunRequest{Benchmark: "176.gcc", Engine: "ev8", Insts: 8_000_000,
		Shards: 4, Warmup: 20_000},
		want: "7353a83917f46c3ab203e79d69c093489b624160c11eca2fb2fe73b61bba6701"},
	{name: "run sharded cold", run: &RunRequest{Benchmark: "176.gcc", Shards: 4, Warmup: 5_000, ColdShards: true},
		want: "afba6a593a5c9abbae51fe7f785760af2482a0629a804d7e295dde87e5539e2f"},
	{name: "run sharded warmup 0", run: &RunRequest{Benchmark: "164.gzip", Insts: 300_000, Shards: 3},
		want: "3c461836982a1d0e69bfe6dc7875c28a7cddc8d7fd8f79d049c5347792b1871a"},
	{name: "run sampled", run: &RunRequest{Benchmark: "164.gzip", Insts: 1_000_000, Samples: 8,
		SampleInsts: 25_000, Warmup: 5_000},
		want: "c8534ba3c8af35605991685580febc1052a472712311bbf50aaf28a628ceafc2"},
	{name: "run sampled warmup 0 ignores shards", run: &RunRequest{Benchmark: "164.gzip", Shards: 7,
		Samples: 4, SampleInsts: 10_000},
		want: "03169831761403391780a1a4e9324228ab2807a55c57a673c30157a7c9202334"},
	{name: "run cap, line size and width", run: &RunRequest{Benchmark: "300.twolf", Engine: "tcache", Width: 4,
		MaxInsts: 100_000, ICacheLineBytes: 64},
		want: "eafc54584662b16de764ac0d357543c7416d4a503d4616f050f02a5d1c770875"},
	{name: "sweep defaults", sweep: &SweepRequest{},
		want: "a3b13c9ca5aa20d65cfd238833b1aac186362d0222eacc015bb248e67c4a69cd"},
	{name: "sweep axes and seed", sweep: &SweepRequest{Benchmarks: []string{"176.gcc"},
		Layouts: []string{"optimized"}, Engines: []string{"ev8", "streams"}, Widths: []int{4, 8},
		Seed: 5, Insts: 1_000_000},
		want: "b986c442b0054c577558dafcbd02568824548112fb7b72866b67c105be6d996a"},
	{name: "sweep sharded warmup 0", sweep: &SweepRequest{Benchmarks: []string{"164.gzip"}, Shards: 2},
		want: "84fac8311c2ab4bfb2dd611d0f369d937e07bff235305be05798e267bf8f4d6a"},
	{name: "sweep sharded warm with train fields", sweep: &SweepRequest{Benchmarks: []string{"164.gzip"},
		Shards: 2, Warmup: 10_000, TrainSeed: 3, TrainInsts: 100_000},
		want: "9d5e29b8f8bad45d0a72c72b8b011b9b5f1b2eb7c0338eadafa20408bc9c83f3"},
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

// TestContentKeyPinned: every pinned request shape hashes to the content
// key recorded before the split.
func TestContentKeyPinned(t *testing.T) {
	for _, c := range contentKeyShapes {
		if got := shapeKey(t, c.run, c.sweep); got != c.want {
			t.Errorf("%s: content key %s, want %s", c.name, got, c.want)
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
