package sim

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"streamfetch/internal/ckpt"
	"streamfetch/internal/trace"
)

// warmSnapshot encodes p's warm state the way checkpoints do.
func warmSnapshot(p *Processor, boundary uint64) []byte {
	eng := p.Engine()
	return ckpt.Encode(nil, boundary, p.Hier(), p.Gen(), eng.Name(), eng.AppendWarmState(nil))
}

// walkBench walks b's optimized-layout trace once over bounds with engine
// and returns the snapshot and warmed count taken at each.
func walkBench(t *testing.T, b bench, engine string, bounds []uint64) ([][]byte, []uint64) {
	t.Helper()
	p, err := New(b.opt, b.tr.Source(), Config{Width: 8, Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	snaps := make([][]byte, 0, len(bounds))
	warmed := make([]uint64, 0, len(bounds))
	err = p.WarmPrefix(context.Background(), bounds, func(i int, n uint64) error {
		if i != len(snaps) {
			t.Fatalf("boundary %d reported out of order (want %d)", i, len(snaps))
		}
		snaps = append(snaps, warmSnapshot(p, bounds[i]))
		warmed = append(warmed, n)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return snaps, warmed
}

// TestWarmPrefixChainedMatchesSingle: one chained walk over ascending
// boundaries leaves, at every boundary, state byte-identical to a fresh
// walk to that boundary alone, for every engine. The boundaries include
// the trace head, one falling mid-block, a batch-sized stretch apart and
// one past the trace's end; the walker's warmed count is the interval
// skip rule's, trace.NewInterval(...).SkippedInsts().
func TestWarmPrefixChainedMatchesSingle(t *testing.T) {
	b := loadBench(t, "164.gzip", 300_000)
	prog := b.opt.Prog

	// A boundary one instruction into a multi-instruction block.
	var pos, midBlock uint64
	for _, id := range b.tr.Blocks {
		n := uint64(prog.Blocks[id].NInsts)
		if pos > 100_000 && n > 1 {
			midBlock = pos + 1
			break
		}
		pos += n
	}
	if midBlock == 0 {
		t.Fatal("no multi-instruction block past 100k")
	}
	bounds := []uint64{0, 1, 40_000, midBlock, midBlock + 3_000, 250_000, b.tr.Insts, 10 * b.tr.Insts}

	for _, engine := range paperEngines() {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			t.Parallel()
			chained, warmed := walkBench(t, b, engine, bounds)
			for i, bound := range bounds {
				iv, err := trace.NewInterval(b.tr.Source(), 0, prog, trace.IntervalConfig{Start: bound})
				if err != nil {
					t.Fatal(err)
				}
				if want := iv.SkippedInsts(); warmed[i] != want {
					t.Errorf("boundary %d: warmed %d insts, interval skips %d", bound, warmed[i], want)
				}
				iv.Close()
				single, _ := walkBench(t, b, engine, []uint64{bound})
				if !bytes.Equal(chained[i], single[0]) {
					t.Errorf("boundary %d: chained walk state differs from a single walk", bound)
				}
			}
			if warmed[3] >= midBlock {
				t.Errorf("mid-block boundary %d warmed %d insts: block not left out", midBlock, warmed[3])
			}
			if warmed[len(bounds)-1] != b.tr.Insts {
				t.Errorf("past-the-end boundary warmed %d of %d insts", warmed[len(bounds)-1], b.tr.Insts)
			}
			if bytes.Equal(chained[2], chained[5]) {
				t.Error("state did not change between boundaries 40k and 250k")
			}
		})
	}
}

// TestWarmPrefixAllocFree pins the walker's perf contract: it replays
// through the processor's reused block and dyn windows, so a walk over
// the whole trace allocates no more than a walk over its first few
// blocks — no per-block allocation, for any engine.
func TestWarmPrefixAllocFree(t *testing.T) {
	b := loadBench(t, "164.gzip", 1_000_000)
	for _, engine := range paperEngines() {
		walk := func(bound uint64) float64 {
			return testing.AllocsPerRun(2, func() {
				p, err := New(b.opt, b.tr.Source(), Config{Width: 8, Engine: engine})
				if err != nil {
					t.Fatal(err)
				}
				if err := p.WarmPrefix(context.Background(), []uint64{bound},
					func(int, uint64) error { return nil }); err != nil {
					t.Fatal(err)
				}
			})
		}
		if short, long := walk(2_000), walk(b.tr.Insts); long > short {
			t.Errorf("%s: walking %d insts allocates %.0f objects, 2k insts %.0f",
				engine, b.tr.Insts, long, short)
		}
	}
}

// TestWarmPrefixStops: an error from the boundary callback ends the walk
// and is returned, and a cancelled context stops it before any boundary.
func TestWarmPrefixStops(t *testing.T) {
	b := loadBench(t, "164.gzip", 100_000)
	stop := errors.New("stop")
	p, err := New(b.opt, b.tr.Source(), Config{Engine: "streams"})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	err = p.WarmPrefix(context.Background(), []uint64{10_000, 20_000}, func(int, uint64) error {
		calls++
		return stop
	})
	if err != stop || calls != 1 {
		t.Fatalf("callback error: got %v after %d calls, want stop after 1", err, calls)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, err = New(b.opt, b.tr.Source(), Config{Engine: "streams"})
	if err != nil {
		t.Fatal(err)
	}
	err = p.WarmPrefix(ctx, []uint64{10_000}, func(int, uint64) error {
		t.Fatal("boundary reached under a cancelled context")
		return nil
	})
	if err != context.Canceled {
		t.Fatalf("cancelled walk returned %v", err)
	}
}

// TestRestoreReencodes: for every engine, a fresh processor restored from
// a snapshot the walk took encodes back to that snapshot's bytes, so a
// restore keeps every tag, stamp, counter and table entry it was given.
func TestRestoreReencodes(t *testing.T) {
	b := loadBench(t, "164.gzip", 300_000)
	const boundary = 150_000
	for _, engine := range paperEngines() {
		t.Run(engine, func(t *testing.T) {
			t.Parallel()
			snaps, _ := walkBench(t, b, engine, []uint64{boundary})
			snap, err := ckpt.Decode(snaps[0])
			if err != nil {
				t.Fatal(err)
			}
			q, err := New(b.opt, b.tr.Source(), Config{Width: 8, Engine: engine})
			if err != nil {
				t.Fatal(err)
			}
			if err := snap.Apply(q.Hier(), q.Gen()); err != nil {
				t.Fatal(err)
			}
			if err := q.Engine().LoadWarmState(snap.Engine); err != nil {
				t.Fatal(err)
			}
			if got := warmSnapshot(q, boundary); !bytes.Equal(got, snaps[0]) {
				t.Fatalf("restored processor encodes to %d bytes, differing from the %d-byte snapshot", len(got), len(snaps[0]))
			}
		})
	}
}
