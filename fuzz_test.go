package streamfetch_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"streamfetch"
)

// FuzzReplay hands arbitrary bytes to a run as its trace file: a
// single-shot run and a two-shard run of 164.gzip must each return a
// report or an error. A panic (even one the interval executor recovers
// into an error) or a run that does not finish fails. Seeds are valid
// traces of 164.gzip and of 176.gcc (which the gzip session refuses by
// name), and a truncated copy of the first.
func FuzzReplay(f *testing.F) {
	for _, bench := range []string{"164.gzip", "176.gcc"} {
		var buf bytes.Buffer
		s := streamfetch.New(bench, streamfetch.WithInstructions(5_000))
		if _, err := s.WriteTrace(context.Background(), &buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		if bench == "164.gzip" {
			f.Add(buf.Bytes()[:buf.Len()/2])
		}
	}
	gzip := streamfetch.New("164.gzip")
	if err := gzip.Prepare(context.Background()); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.trc")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		for _, shards := range []int{1, 2} {
			rep, err := gzip.RunWith(ctx, streamfetch.WithTraceFile(path), streamfetch.WithShards(shards))
			switch {
			case errors.Is(err, context.DeadlineExceeded):
				t.Fatalf("%d shards: run did not finish", shards)
			case err != nil && strings.Contains(err.Error(), "panicked"):
				t.Fatalf("%d shards: %v", shards, err)
			case err == nil && rep == nil:
				t.Fatalf("%d shards: no report and no error", shards)
			}
		}
	})
}
