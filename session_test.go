package streamfetch

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// TestSessionDefaults: New without options must match the paper's
// methodology defaults (Table 2 / §4): 8-wide pipe, streams engine, base
// layout, reference seed 99, train seed 7, 2M-instruction traces.
func TestSessionDefaults(t *testing.T) {
	s := New("164.gzip")
	if s.width != 8 {
		t.Errorf("default width = %d, want 8", s.width)
	}
	if s.engine != "streams" {
		t.Errorf("default engine = %q, want streams", s.engine)
	}
	if s.layoutName != "base" {
		t.Errorf("default layout = %q, want base", s.layoutName)
	}
	if s.seed != 99 || s.trainSeed != 7 {
		t.Errorf("default seeds = (%d, %d), want (99, 7)", s.seed, s.trainSeed)
	}
	if s.insts != 2_000_000 {
		t.Errorf("default instructions = %d, want 2000000", s.insts)
	}
	if s.maxInsts != 0 || s.engineOpts != nil || s.traceFile != "" {
		t.Error("defaults must leave max insts, engine options and trace file unset")
	}
}

// TestOptionsApply: each functional option must land on the session.
func TestOptionsApply(t *testing.T) {
	s := New("176.gcc",
		WithWidth(4),
		WithEngine("ftb"),
		WithOptimizedLayout(),
		WithSeed(123),
		WithTrainSeed(5),
		WithInstructions(50_000),
		WithTrainInstructions(10_000),
		WithMaxInstructions(1_000),
		WithICacheLineBytes(64),
	)
	if s.width != 4 || s.engine != "ftb" || s.layoutName != "optimized" {
		t.Errorf("run options not applied: %+v", s)
	}
	if s.seed != 123 || s.trainSeed != 5 || s.insts != 50_000 || s.trainInsts != 10_000 {
		t.Errorf("preparation options not applied: %+v", s)
	}
	if s.maxInsts != 1_000 || s.lineBytes != 64 {
		t.Errorf("limit options not applied: %+v", s)
	}
}

// TestRunEndToEnd: a small session run must produce a consistent report.
func TestRunEndToEnd(t *testing.T) {
	rep, err := New("164.gzip",
		WithInstructions(60_000),
		WithOptimizedLayout(),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Benchmark != "164.gzip" || rep.Engine != "streams" || rep.Layout != "optimized" || rep.Width != 8 {
		t.Errorf("report identity wrong: %+v", rep)
	}
	if rep.Retired == 0 || rep.IPC <= 0 || rep.Cycles == 0 {
		t.Errorf("implausible report: %v", rep)
	}
	if rep.CodeBytes == 0 || rep.TraceInsts == 0 {
		t.Errorf("artifact metadata missing: %v", rep)
	}
}

// TestRunErrors: validation and registry failures must surface as errors,
// not panics.
func TestRunErrors(t *testing.T) {
	ctx := context.Background()
	for name, s := range map[string]*Session{
		"unknown benchmark": New("999.nope", WithInstructions(10_000)),
		"unknown engine":    New("164.gzip", WithInstructions(10_000), WithEngine("warp-drive")),
		"unknown layout":    New("164.gzip", WithInstructions(10_000), WithLayout("sideways")),
		"zero width":        New("164.gzip", WithInstructions(10_000), WithWidth(0)),
	} {
		if _, err := s.Run(ctx); err == nil {
			t.Errorf("%s: Run did not error", name)
		}
	}
}

// TestRejectsUnbuildableGeometry: a pipe width or I-cache line size the
// cache hierarchy cannot build (a line that is not a power of two, or
// too large for the cache) and a negative line size are refused at the
// input boundary, by Session validation and by RunRequest validation,
// which every sweep cell goes through; neither reaches a simulation.
func TestRejectsUnbuildableGeometry(t *testing.T) {
	ctx := context.Background()
	for _, g := range []struct{ width, lineBytes int }{
		{3, 0}, {5, 0}, {6, 0}, {4096, 0}, {8, 48}, {8, 1 << 20}, {8, -8},
	} {
		s := New("164.gzip", WithInstructions(10_000), WithWidth(g.width), WithICacheLineBytes(g.lineBytes))
		if err := s.Prepare(ctx); err == nil {
			t.Errorf("%+v: Prepare accepted the geometry", g)
		}
		if _, err := s.Run(ctx); err == nil || strings.Contains(err.Error(), "panic") {
			t.Errorf("%+v: Run = %v, want a validation error", g, err)
		}
		r := RunRequest{Benchmark: "164.gzip", Width: g.width, ICacheLineBytes: g.lineBytes}
		if err := r.validate(); err == nil {
			t.Errorf("%+v: RunRequest validated", g)
		}
		if g.lineBytes == 0 {
			sw := SweepRequest{Benchmarks: []string{"164.gzip"}, Widths: []int{8, g.width}}
			if err := sw.normalize(); err == nil {
				t.Errorf("%+v: sweep validated", g)
			}
		}
	}
	for _, g := range []struct{ width, lineBytes int }{{1, 0}, {16, 0}, {2048, 0}, {8, 32}, {8, 64}, {3, 64}} {
		r := RunRequest{Benchmark: "164.gzip", Width: g.width, ICacheLineBytes: g.lineBytes}
		if err := r.validate(); err != nil {
			t.Errorf("%+v: buildable geometry refused: %v", g, err)
		}
	}
}

// TestRunAlreadyCancelled: a cancelled context must stop Run even when the
// artifacts are already prepared and the run is too short to hit a progress
// checkpoint.
func TestRunAlreadyCancelled(t *testing.T) {
	s := New("164.gzip", WithInstructions(20_000))
	if err := s.Prepare(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Run(ctx); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunWithSharesPreparation: per-run overrides must reuse the prepared
// artifacts, and a training-input override must not leak into the parent.
func TestRunWithSharesPreparation(t *testing.T) {
	ctx := context.Background()
	s := New("164.gzip", WithInstructions(60_000))
	if err := s.Prepare(ctx); err != nil {
		t.Fatal(err)
	}
	prog := s.prog.prog
	rep, err := s.RunWith(ctx, WithEngine("ev8"), WithWidth(4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Engine != "ev8" || rep.Width != 4 {
		t.Errorf("overrides not applied: %v", rep)
	}
	if s.prog.prog != prog {
		t.Error("run-phase override re-prepared the session")
	}
	if s.engine != "streams" || s.width != 8 {
		t.Error("RunWith mutated the parent session")
	}
	// A preparation-phase override must not corrupt the shared artifacts.
	rep2, err := s.RunWith(ctx, WithInstructions(30_000))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.TraceInsts >= rep.TraceInsts {
		t.Errorf("prep override ignored: %d >= %d", rep2.TraceInsts, rep.TraceInsts)
	}
	if s.prog.prog != prog {
		t.Error("prep override leaked into the parent session")
	}
}

// TestDeterministicAcrossSessions: two identically configured sessions must
// produce identical metrics.
func TestDeterministicAcrossSessions(t *testing.T) {
	mk := func() *Report {
		rep, err := New("175.vpr", WithInstructions(50_000), WithWidth(4)).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := mk(), mk()
	if a.IPC != b.IPC || a.Cycles != b.Cycles || a.Retired != b.Retired {
		t.Fatalf("sessions disagree:\n%v\n%v", a, b)
	}
}

// TestProgressAndCancellation: the progress callback must fire, and
// cancelling the context mid-run must stop the simulation with ctx.Err and
// a partial, Aborted report.
func TestProgressAndCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls int
	s := New("164.gzip",
		WithInstructions(150_000),
		WithProgress(5_000, func(p Progress) {
			calls++
			if p.Benchmark != "164.gzip" || p.Engine != "streams" || p.Total == 0 {
				t.Errorf("bad progress snapshot: %+v", p)
			}
			if p.Shard != 0 || p.Shards != 0 {
				t.Errorf("unsharded run reported shard %d of %d", p.Shard, p.Shards)
			}
			if p.Retired >= 20_000 {
				cancel()
			}
		}),
	)
	rep, err := s.Run(ctx)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls == 0 {
		t.Fatal("progress callback never fired")
	}
	if rep == nil || !rep.Aborted {
		t.Fatalf("want partial aborted report, got %v", rep)
	}
	if rep.Retired >= 150_000 {
		t.Errorf("run was not cut short: retired %d", rep.Retired)
	}
	// A fresh context runs the same session to completion.
	full, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if full.Aborted || full.Retired <= rep.Retired {
		t.Errorf("rerun did not complete: %v", full)
	}
}

// TestReportJSON: reports must marshal to JSON and round-trip the headline
// metrics.
func TestReportJSON(t *testing.T) {
	rep, err := New("164.gzip", WithInstructions(40_000)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if back.Benchmark != rep.Benchmark || back.IPC != rep.IPC || back.Fetch.Delivered != rep.Fetch.Delivered {
		t.Errorf("round trip mismatch: %+v vs %+v", back, rep)
	}
}

// TestEnginesAndBenchmarks: the discovery helpers must cover the paper's
// sets.
func TestEnginesAndBenchmarks(t *testing.T) {
	engines := Engines()
	for i, want := range []string{"ev8", "ftb", "streams", "tcache"} {
		if i >= len(engines) || engines[i] != want {
			t.Fatalf("Engines() = %v, want the paper's four first", engines)
		}
	}
	if n := len(Benchmarks()); n != 11 {
		t.Errorf("Benchmarks() returned %d names, want 11", n)
	}
	if got := Layouts(); len(got) != 2 || got[0] != "base" || got[1] != "optimized" {
		t.Errorf("Layouts() = %v", got)
	}
}

// TestExperimentRendering: the generic table renderer must align columns
// and emit valid JSON.
func TestExperimentRendering(t *testing.T) {
	e := &Experiment{
		Name:      "demo",
		Title:     "Demo table",
		RowHeader: "engine",
		Columns:   []string{"IPC", "mispred", "paper"},
		Formats:   []string{"%.3f", "%.2f%%"},
	}
	e.Rows = append(e.Rows, ExperimentRow{
		Label:  "streams",
		Values: []float64{2.5, 3.25},
		Text:   []string{"20+"},
	})
	e.AddRow("ev8", 1.75, 4.5)
	var buf bytes.Buffer
	e.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"Demo table", "engine", "streams", "2.500", "3.25%", "20+", "1.750"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := e.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Experiment
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if back.Name != "demo" || len(back.Rows) != 2 || back.Rows[0].Values[0] != 2.5 {
		t.Errorf("round trip mismatch: %+v", back)
	}
}
