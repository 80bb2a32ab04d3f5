package streamfetch_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"streamfetch"
)

// goldenCases pins the 2M-instruction golden configurations shared by the
// plain-run and sharded-run byte-identity tests.
var goldenCases = []struct {
	engine, layout, golden string
}{
	{"streams", "optimized", "golden_report_gzip_w8_streams_opt.json"},
	{"ev8", "base", "golden_report_gzip_w8_ev8_base.json"},
	{"tcache", "optimized", "golden_report_gzip_w8_tcache_opt.json"},
}

// goldenSession builds the session for one golden case.
func goldenSession(engine, layout string) *streamfetch.Session {
	return streamfetch.New("164.gzip",
		streamfetch.WithWidth(8),
		streamfetch.WithEngine(engine),
		streamfetch.WithLayout(layout),
	)
}

// assertReportGolden compares a report's JSON byte-for-byte against a
// golden file.
func assertReportGolden(t *testing.T, rep *streamfetch.Report, golden string) {
	t.Helper()
	var got bytes.Buffer
	if err := rep.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", golden))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("report JSON diverged from %s\ngot:\n%s\nwant:\n%s",
			golden, got.Bytes(), want)
	}
}

// TestReportGolden pins the full 2M-instruction Report JSON for fixed seeds
// against goldens captured before the O(1)-decode-table/ring-buffer
// refactor: the hot-path rework must be invisible in every simulated
// metric, byte for byte. Regenerate the goldens ONLY for a deliberate
// model change, never to absorb an accidental one.
func TestReportGolden(t *testing.T) {
	for _, tc := range goldenCases {
		tc := tc
		t.Run(tc.engine+"/"+tc.layout, func(t *testing.T) {
			t.Parallel()
			rep, err := goldenSession(tc.engine, tc.layout).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			assertReportGolden(t, rep, tc.golden)
		})
	}
}

// warmGoldenShapes are the mid-trace interval shapes pinned by
// TestWarmGolden, each run without a checkpoint store so every interval
// boundary is warmed functionally: the sharded shape of the checkpoint
// differentials and a sampled shape. Their goldens were captured from the
// per-interval prefix replay that preceded the single warming pass, so
// they check the walker against an oracle that does not share its code.
var warmGoldenShapes = []struct {
	name    string
	session func(engine string) *streamfetch.Session
}{
	{"sharded", ckptSession},
	{"sampled", func(engine string) *streamfetch.Session {
		return streamfetch.New("164.gzip",
			streamfetch.WithEngine(engine),
			streamfetch.WithInstructions(1_000_000),
			streamfetch.WithSampling(8, 25_000),
			streamfetch.WithWarmup(5_000),
		)
	}},
}

// TestWarmGolden pins the sharded and sampled reports of every engine,
// byte for byte, against goldens recorded before functional warming moved
// into one pass per run.
func TestWarmGolden(t *testing.T) {
	for _, shape := range warmGoldenShapes {
		for _, engine := range benchEngines() {
			shape, engine := shape, engine
			t.Run(shape.name+"/"+engine, func(t *testing.T) {
				t.Parallel()
				rep, err := shape.session(engine).Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				assertReportGolden(t, rep, "golden_warm_"+shape.name+"_"+engine+".json")
			})
		}
	}
}

// TestCappedRunPinned pins the full report of a WithMaxInstructions run
// over each trace source: a generated trace, an indexed trace file and an
// in-memory trace. An unsharded run caps retired instructions and reports
// the source's own instruction total, which differs by source (the
// generator's read-ahead, the file's indexed total); the goldens hold
// those figures as they were before single-shot runs became one interval
// of the interval executor.
func TestCappedRunPinned(t *testing.T) {
	ctx := context.Background()
	newSession := func(opts ...streamfetch.Option) *streamfetch.Session {
		return streamfetch.New("164.gzip", append([]streamfetch.Option{
			streamfetch.WithInstructions(200_000),
			streamfetch.WithMaxInstructions(50_000),
		}, opts...)...)
	}
	path := filepath.Join(t.TempDir(), "gzip.trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newSession().WriteTrace(ctx, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := newSession().Trace()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts []streamfetch.Option
	}{
		{"gen", nil},
		{"file", []streamfetch.Option{streamfetch.WithTraceFile(path)}},
		{"mem", []streamfetch.Option{streamfetch.WithTrace(tr)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := newSession(tc.opts...).Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			assertReportGolden(t, rep, "golden_capped_"+tc.name+".json")
		})
	}
}
