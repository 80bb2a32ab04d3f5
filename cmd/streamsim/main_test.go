package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"streamfetch"
)

// TestRunJSONGolden pins the -json output byte-for-byte against the
// repository's golden Report files: the CLI flag plumbing (engine, layout,
// width selection, default insts/seed) must keep producing exactly the
// session-API result, so flag regressions surface without spawning the
// binary.
func TestRunJSONGolden(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		golden string
	}{
		{
			name:   "streams_opt",
			args:   []string{"-bench", "164.gzip", "-engine", "streams", "-width", "8", "-layout", "optimized", "-json"},
			golden: "golden_report_gzip_w8_streams_opt.json",
		},
		{
			name:   "ev8_base",
			args:   []string{"-bench", "164.gzip", "-engine", "ev8", "-width", "8", "-layout", "base", "-json"},
			golden: "golden_report_gzip_w8_ev8_base.json",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var stdout, stderr bytes.Buffer
			if code := run(context.Background(), tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, stderr.String())
			}
			want, err := os.ReadFile(filepath.Join("..", "..", "testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Fatalf("-json output diverged from %s\ngot:\n%s\nwant:\n%s",
					tc.golden, stdout.Bytes(), want)
			}
		})
	}
}

// TestRunList: -list enumerates the suite and engines and exits cleanly.
func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"164.gzip", "streams", "ev8", "tcache", "ftb"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list output missing %q:\n%s", want, out)
		}
	}
}

// TestRunBadFlags: unknown flags and unknown benchmarks fail with the
// documented exit codes instead of panicking or succeeding silently.
func TestRunBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
	if code := run(context.Background(), []string{"-h"}, &stdout, &stderr); code != 0 {
		t.Errorf("-h: exit %d, want 0 (usage is not an error)", code)
	}
	stderr.Reset()
	if code := run(context.Background(), []string{"-bench", "999.nope", "-insts", "1000"}, &stdout, &stderr); code != 1 {
		t.Errorf("unknown benchmark: exit %d, want 1 (stderr %q)", code, stderr.String())
	}
	if stderr.Len() == 0 {
		t.Error("unknown benchmark produced no error output")
	}
}

// TestRunForeignTrace: replaying another benchmark's trace is an input
// error — exit 1 naming both benchmarks (or a foreign block) on stderr —
// whether the run is single-shot or sharded, never a crash.
func TestRunForeignTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gcc.trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	gcc := streamfetch.New("176.gcc", streamfetch.WithInstructions(200_000))
	if _, err := gcc.WriteTrace(context.Background(), f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	foreign := regexp.MustCompile(`recorded for 176\.gcc, not 164\.gzip|block \d+ outside the (bound )?program`)
	for _, extra := range [][]string{nil, {"-shards", "2"}} {
		args := append([]string{"-bench", "164.gzip", "-trace", path}, extra...)
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code != 1 {
			t.Errorf("%v: exit %d, want 1 (stderr %q)", args, code, stderr.String())
		}
		if !foreign.MatchString(stderr.String()) {
			t.Errorf("%v: stderr %q does not name the foreign block", args, stderr.String())
		}
	}
}
