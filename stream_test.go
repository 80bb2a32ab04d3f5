package streamfetch

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"streamfetch/internal/trace"
)

// TestStreamingSourceEquivalence: the same benchmark and seed must produce
// byte-identical Report JSON whether the trace is generated on the fly or
// replayed incrementally from a file. (Seed attribution differs by
// construction — replays aren't attributed to a seed — so it is
// normalized before comparing.)
func TestStreamingSourceEquivalence(t *testing.T) {
	ctx := context.Background()
	const insts = 80_000
	newSession := func(opts ...Option) *Session {
		return New("164.gzip", append([]Option{
			WithInstructions(insts),
			WithSeed(99),
			WithOptimizedLayout(),
		}, opts...)...)
	}

	// Generator-backed: blocks produced on the fly from the seeded walk.
	gen := newSession()

	// File-backed: stream the same source to disk, then replay it.
	path := filepath.Join(t.TempDir(), "equiv.trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	info, err := newSession().WriteTrace(ctx, f)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if info.Blocks == 0 || info.Insts < insts {
		t.Fatalf("implausible trace written: %+v", info)
	}
	file := newSession(WithTraceFile(path))

	marshal := func(name string, s *Session) []byte {
		rep, err := s.Run(ctx)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep.Seed = 0 // replays are not attributed to a seed
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return buf.Bytes()
	}

	if g, f := marshal("generator", gen), marshal("file", file); !bytes.Equal(f, g) {
		t.Errorf("file report differs from generator report:\n%s\nvs\n%s", f, g)
	}
}

// TestSourceDeterminism: repeated sources from one session must emit the
// identical sequence — that is what keeps run-to-run reports reproducible
// without a materialized reference trace.
func TestSourceDeterminism(t *testing.T) {
	s := New("175.vpr", WithInstructions(40_000))
	a, err := s.Source()
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := s.Source()
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	ba, bb := slices.Collect(trace.Blocks(a)), slices.Collect(trace.Blocks(b))
	if len(ba) == 0 || !slices.Equal(ba, bb) {
		t.Fatalf("sources diverge: %d blocks vs %d", len(ba), len(bb))
	}
	na, ea := a.TotalInsts()
	nb, eb := b.TotalInsts()
	if na != nb || !ea || !eb {
		t.Fatalf("exhausted sources disagree on totals: (%d,%v) vs (%d,%v)", na, ea, nb, eb)
	}
}

// TestWriteTraceCancellation: a cancelled context stops a streaming export.
func TestWriteTraceCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	if _, err := New("164.gzip", WithInstructions(1_000_000)).WriteTrace(ctx, &buf); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestWriteTraceRefusesForeignTrace: re-encoding a trace recorded for a
// different benchmark fails: the session's program has the wrong block
// lengths, and an index with wrong instruction offsets would corrupt
// sharded seeks silently.
func TestWriteTraceRefusesForeignTrace(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "gzip.trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New("164.gzip", WithInstructions(30_000)).WriteTrace(ctx, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// A 176.gcc session replaying the gzip file would re-encode a trace
	// named 164.gzip whose block IDs may be in range of gcc's program by
	// accident.
	var buf bytes.Buffer
	_, err = New("176.gcc", WithTraceFile(path)).WriteTrace(ctx, &buf)
	if err == nil || !strings.Contains(err.Error(), "recorded for 164.gzip, not 176.gcc") {
		t.Fatalf("foreign trace re-encoded: err = %v", err)
	}
}

// TestInspectTraceRejectsTruncation: a trace cut off mid-stream (no footer)
// must be reported as an error, not summarized as a short trace. Clipping
// only the trailing chunk index is harmless — the stream and footer are
// intact — so the cut has to land inside the block stream itself.
func TestInspectTraceRejectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := New("164.gzip", WithInstructions(50_000)).WriteTrace(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	if _, err := InspectTrace(bytes.NewReader(whole)); err != nil {
		t.Fatalf("intact trace rejected: %v", err)
	}
	if _, err := InspectTrace(bytes.NewReader(whole[:len(whole)/2])); err == nil {
		t.Fatal("truncated trace accepted")
	}
}
