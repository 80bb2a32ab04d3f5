package sim

import (
	"testing"

	"streamfetch/internal/frontend"
	"streamfetch/internal/layout"
	"streamfetch/internal/trace"
	"streamfetch/internal/workload"
)

type bench struct {
	lay *layout.Layout
	opt *layout.Layout
	tr  *trace.Trace
}

func loadBench(t testing.TB, name string, insts uint64) bench {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	prog := workload.Generate(p)
	prof := trace.CollectProfile(prog, 7, insts/2)
	tr := trace.Generate(prog, trace.GenConfig{Seed: 99, MaxInsts: insts})
	return bench{
		lay: layout.Baseline(prog),
		opt: layout.Optimized(prog, prof),
		tr:  tr,
	}
}

// paperEngines lists the four built-in front-ends in presentation order.
func paperEngines() []string { return []string{"ev8", "ftb", "streams", "tcache"} }

func TestRunAllEnginesComplete(t *testing.T) {
	b := loadBench(t, "164.gzip", 200_000)
	for _, kind := range paperEngines() {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			r := Run(b.opt, b.tr.Source(), Config{Width: 8, Engine: kind})
			t.Logf("%v", r)
			if r.Retired == 0 {
				t.Fatal("retired no instructions")
			}
			if r.IPC() <= 0.2 || r.IPC() > 8 {
				t.Errorf("implausible IPC %.3f", r.IPC())
			}
			if r.Branches == 0 {
				t.Error("no branches committed")
			}
			if r.MispredRate() > 0.25 {
				t.Errorf("implausible misprediction rate %.3f", r.MispredRate())
			}
			if r.Cycles == 0 || r.Cycles > 100*r.Retired {
				t.Errorf("implausible cycle count %d for %d instructions", r.Cycles, r.Retired)
			}
		})
	}
}

func TestRunDeterministic(t *testing.T) {
	b := loadBench(t, "175.vpr", 100_000)
	r1 := Run(b.opt, b.tr.Source(), Config{Width: 4, Engine: "streams"})
	r2 := Run(b.opt, b.tr.Source(), Config{Width: 4, Engine: "streams"})
	if r1 != r2 {
		t.Fatalf("results differ between identical runs:\n%+v\n%+v", r1, r2)
	}
}

func TestWiderPipeFasterOrEqual(t *testing.T) {
	b := loadBench(t, "164.gzip", 150_000)
	r2 := Run(b.opt, b.tr.Source(), Config{Width: 2, Engine: "streams"})
	r8 := Run(b.opt, b.tr.Source(), Config{Width: 8, Engine: "streams"})
	t.Logf("2-wide IPC %.3f, 8-wide IPC %.3f", r2.IPC(), r8.IPC())
	if r8.IPC() < r2.IPC() {
		t.Errorf("8-wide IPC %.3f below 2-wide %.3f", r8.IPC(), r2.IPC())
	}
}

// TestNewUnknownEngine: the driver surfaces registry resolution failures as
// errors instead of engine-kind panics.
func TestNewUnknownEngine(t *testing.T) {
	b := loadBench(t, "164.gzip", 50_000)
	if _, err := New(b.opt, b.tr.Source(), Config{Width: 8, Engine: "bogus"}); err == nil {
		t.Fatal("New with unknown engine did not error")
	}
	if _, err := New(b.opt, b.tr.Source(), Config{Width: 8, Engine: "streams",
		EngineOptions: frontend.EV8Config{}}); err == nil {
		t.Fatal("New with mistyped engine options did not error")
	}
}

// TestOnProgressAborts: a progress callback returning false stops the run
// early and marks the result.
func TestOnProgressAborts(t *testing.T) {
	b := loadBench(t, "164.gzip", 150_000)
	var calls int
	r := Run(b.opt, b.tr.Source(), Config{
		Width:            8,
		Engine:           "streams",
		ProgressInterval: 10_000,
		OnProgress: func(retired, cycles uint64) bool {
			calls++
			return retired < 30_000
		},
	})
	if calls == 0 {
		t.Fatal("OnProgress never invoked")
	}
	if !r.Aborted {
		t.Error("Aborted not set after OnProgress returned false")
	}
	if r.Retired < 30_000 || r.Retired > 60_000 {
		t.Errorf("retired %d, want shortly after 30000", r.Retired)
	}
}
