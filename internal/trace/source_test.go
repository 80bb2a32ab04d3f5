package trace

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"streamfetch/internal/cfg"
)

// TestGenSourceMatchesGenerate: the streaming generator must emit exactly
// the sequence Generate materializes for the same config.
func TestGenSourceMatchesGenerate(t *testing.T) {
	prog := genProg(t, "175.vpr")
	gc := GenConfig{Seed: 5, MaxInsts: 50_000}
	tr := Generate(prog, gc)
	src := NewGenSource(prog, gc)
	if got := slices.Collect(Blocks(src)); !slices.Equal(got, tr.Blocks) {
		t.Fatalf("source emitted %d blocks, not the %d Generate materialized", len(got), len(tr.Blocks))
	}
	n, exact := src.TotalInsts()
	if !exact || n != tr.Insts {
		t.Fatalf("TotalInsts = (%d,%v), want (%d,true)", n, exact, tr.Insts)
	}
}

// TestGenSourceRunningCount: before exhaustion the instruction count is a
// running (inexact) figure.
func TestGenSourceRunningCount(t *testing.T) {
	prog := genProg(t, "164.gzip")
	src := NewGenSource(prog, GenConfig{Seed: 1, MaxInsts: 10_000})
	if src.NextBatch(make([]cfg.BlockID, 1)) != 1 {
		t.Fatal("empty source")
	}
	if n, exact := src.TotalInsts(); exact || n == 0 {
		t.Fatalf("mid-stream TotalInsts = (%d,%v), want a running inexact count", n, exact)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSliceSource: wrapping a materialized trace yields its sequence and
// exact totals; repeated Source calls restart from the beginning.
func TestSliceSource(t *testing.T) {
	tr := &Trace{Name: "x", Insts: 42, Blocks: []cfg.BlockID{3, 1, 4, 1, 5}}
	for round := 0; round < 2; round++ {
		src := tr.Source()
		if src.Name() != "x" {
			t.Fatalf("Name = %q", src.Name())
		}
		if n, exact := src.TotalInsts(); n != 42 || !exact {
			t.Fatalf("TotalInsts = (%d,%v), want (42,true)", n, exact)
		}
		if got := slices.Collect(Blocks(src)); !slices.Equal(got, tr.Blocks) {
			t.Fatalf("round %d: blocks %v, want %v", round, got, tr.Blocks)
		}
	}
}

// TestFileSourceStreams: a written trace replays block for block through
// the incremental decoder, with the footer totals exact at EOF.
func TestFileSourceStreams(t *testing.T) {
	prog := genProg(t, "164.gzip")
	tr := Generate(prog, GenConfig{Seed: 9, MaxInsts: 30_000})
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	src, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if src.Name() != tr.Name {
		t.Fatalf("Name = %q, want %q", src.Name(), tr.Name)
	}
	if _, exact := src.TotalInsts(); exact {
		t.Fatal("v2 stream claims an exact total before EOF")
	}
	if got := slices.Collect(Blocks(src)); !slices.Equal(got, tr.Blocks) {
		t.Fatalf("decoded %d blocks, not the %d written", len(got), len(tr.Blocks))
	}
	n, exact := src.TotalInsts()
	if !exact || n != tr.Insts {
		t.Fatalf("TotalInsts = (%d,%v), want (%d,true)", n, exact, tr.Insts)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFileSourceTruncation: cutting the stream anywhere after the header
// must surface an error from Err/Close, never a silently short trace.
func TestFileSourceTruncation(t *testing.T) {
	tr := &Trace{Name: "t", Insts: 10}
	for i := 0; i < 10_000; i++ {
		tr.Blocks = append(tr.Blocks, cfg.BlockID(i%7))
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for _, cut := range []int{len(whole) - 1, len(whole) - 2, len(whole) / 2} {
		src, err := NewReader(bytes.NewReader(whole[:cut]))
		if err != nil {
			continue // header itself truncated: also acceptable
		}
		for range Blocks(src) {
		}
		if src.Err() == nil {
			t.Errorf("cut at %d/%d: no decode error surfaced", cut, len(whole))
		}
		if src.Close() == nil {
			t.Errorf("cut at %d/%d: Close did not report the error", cut, len(whole))
		}
	}
}

// TestFileSourceRejectsV1: a file in the retired STRMTRC1 format fails
// to open with an error naming the format, instead of being read.
func TestFileSourceRejectsV1(t *testing.T) {
	_, err := NewReader(strings.NewReader("STRMTRC1\x06legacy"))
	if err == nil || !strings.Contains(err.Error(), "STRMTRC1") {
		t.Fatalf("STRMTRC1 file: err = %v, want a refusal naming the format", err)
	}
}

// TestDrain: draining a source materializes the identical trace.
func TestDrain(t *testing.T) {
	prog := genProg(t, "164.gzip")
	gc := GenConfig{Seed: 4, MaxInsts: 20_000}
	want := Generate(prog, gc)
	got, err := Drain(NewGenSource(prog, gc))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != want.Name || got.Insts != want.Insts || !slices.Equal(got.Blocks, want.Blocks) {
		t.Fatalf("drain mismatch: %v/%d/%d vs %v/%d/%d",
			got.Name, got.Insts, len(got.Blocks), want.Name, want.Insts, len(want.Blocks))
	}
}

// TestWriterMisuse: appending after Finish and double Finish are errors.
func TestWriterMisuse(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "x")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(0); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(1); err == nil {
		t.Error("Append after Finish succeeded")
	}
	if err := w.Finish(0); err == nil {
		t.Error("double Finish succeeded")
	}
}
