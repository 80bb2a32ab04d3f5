package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"streamfetch/internal/trace"
)

// progressPin is the sha256 of every (retired, cycles) pair the
// OnProgress callbacks of TestProgressCadencePinned's runs see, in order,
// with each run's final counts.
const progressPin = "d618a878d6526c2b3df594e9f3cb4d4079a4fe2545e7b6fe8f3f1ebbeee36a1b"

// TestProgressCadencePinned pins the cycles at which OnProgress fires and
// the counts it is shown: a daemon's watchdog and stage reporting read
// them, so the driver may skip cycles only where no callback falls. The
// runs cover the retired-instruction cadence, the cycle-cadence backstop
// alone (an interval too long to reach on retirement), a warmup-bearing
// interval and a run its callback aborts.
func TestProgressCadencePinned(t *testing.T) {
	gzip := loadBench(t, "164.gzip", 150_000)
	gcc := loadBench(t, "176.gcc", 150_000)
	h := sha256.New()
	run := func(name string, b bench, src trace.Source, cfg Config, stopAfter int) {
		calls := 0
		cfg.OnProgress = func(retired, cycles uint64) bool {
			calls++
			fmt.Fprintf(h, "%s %d %d\n", name, retired, cycles)
			return stopAfter == 0 || calls < stopAfter
		}
		r := Run(b.opt, src, cfg)
		if calls == 0 {
			t.Fatalf("%s: OnProgress never invoked", name)
		}
		if r.Aborted != (stopAfter != 0) {
			t.Fatalf("%s: Aborted = %v", name, r.Aborted)
		}
		fmt.Fprintf(h, "%s end %d %d %d %t\n", name, r.Retired, r.Cycles, r.Warmup.Cycles, r.Aborted)
	}
	run("ftb-w8", gzip, gzip.tr.Source(), Config{Width: 8, Engine: "ftb", ProgressInterval: 1_000}, 0)
	run("streams-w4-cycles", gcc, gcc.tr.Source(), Config{Width: 4, Engine: "streams", ProgressInterval: 1 << 40}, 0)
	run("tcache-w2-abort", gcc, gcc.tr.Source(), Config{Width: 2, Engine: "tcache", ProgressInterval: 5_000}, 7)
	iv, err := trace.NewInterval(gzip.tr.Source(), 0, gzip.opt.Prog,
		trace.IntervalConfig{Start: 60_000, End: 120_000, Warmup: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	run("ev8-w8-warm", gzip, iv, Config{Width: 8, Engine: "ev8", ProgressInterval: 3_000}, 0)

	if got := hex.EncodeToString(h.Sum(nil)); got != progressPin {
		t.Fatalf("progress callbacks hash to %s, pinned %s: the driver moved a callback's cycle or counts", got, progressPin)
	}
}
