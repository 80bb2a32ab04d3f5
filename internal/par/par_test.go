package par

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// restoreBudget resets the pool to the default after a test resizes it.
func restoreBudget(t *testing.T) {
	t.Cleanup(func() { SetBudget(runtime.GOMAXPROCS(0) - 1) })
}

// TestDoRunsEverything: all indices run exactly once, serial (budget 0)
// and parallel.
func TestDoRunsEverything(t *testing.T) {
	restoreBudget(t)
	for _, budget := range []int{0, 3} {
		SetBudget(budget)
		seen := make([]atomic.Int32, 50)
		err := Do(context.Background(), len(seen), func(i int) error {
			seen[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range seen {
			if got := seen[i].Load(); got != 1 {
				t.Fatalf("budget %d: index %d ran %d times", budget, i, got)
			}
		}
	}
}

// TestDoSharedBudget: concurrency across nested Do calls never exceeds the
// budget plus the one caller — shards inside sweep workers must not
// oversubscribe.
func TestDoSharedBudget(t *testing.T) {
	restoreBudget(t)
	const budget = 2 // caller + 2 extras = 3 concurrent at most
	SetBudget(budget)
	var cur, max atomic.Int32
	enter := func() {
		c := cur.Add(1)
		for {
			m := max.Load()
			if c <= m || max.CompareAndSwap(m, c) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		cur.Add(-1)
	}
	err := Do(context.Background(), 4, func(i int) error {
		// Each outer worker opens an inner fan-out: the inner calls draw
		// from the same pool, not a fresh one.
		return Do(context.Background(), 4, func(j int) error {
			enter()
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := max.Load(); got > budget+1 {
		t.Fatalf("observed %d concurrent workers, budget allows %d", got, budget+1)
	}
}

// TestDoPicksUpFreedTokens: a fan-out that starts while the pool is
// drained must gain workers once another fan-out returns its tokens,
// instead of running serially for its whole duration.
func TestDoPicksUpFreedTokens(t *testing.T) {
	restoreBudget(t)
	SetBudget(1)
	hold := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Drain the pool: the caller runs one task, the single token
		// holds a worker in the other.
		Do(context.Background(), 2, func(i int) error {
			<-hold
			return nil
		})
	}()
	time.Sleep(10 * time.Millisecond) // let the first fan-out claim the token

	var cur, max atomic.Int32
	var release sync.Once
	err := Do(context.Background(), 30, func(i int) error {
		c := cur.Add(1)
		for {
			m := max.Load()
			if c <= m || max.CompareAndSwap(m, c) {
				break
			}
		}
		if i == 2 {
			// Free the other fan-out's token mid-run.
			release.Do(func() { close(hold) })
			<-done
		}
		time.Sleep(5 * time.Millisecond)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := max.Load(); got < 2 {
		t.Fatalf("fan-out never picked up the freed token (max concurrency %d)", got)
	}
}

// TestTryHoldInUse: TryHold/release drive the saturation metric, releases
// are idempotent, and a release outliving a SetBudget adjusts only the
// pool it came from — never the new pool's counter.
func TestTryHoldInUse(t *testing.T) {
	restoreBudget(t)
	SetBudget(2)
	if got := InUse(); got != 0 {
		t.Fatalf("InUse = %d on a fresh pool", got)
	}
	r1, ok := TryHold()
	if !ok || InUse() != 1 {
		t.Fatalf("first hold: ok=%v InUse=%d", ok, InUse())
	}
	r2, ok := TryHold()
	if !ok || InUse() != 2 {
		t.Fatalf("second hold: ok=%v InUse=%d", ok, InUse())
	}
	if _, ok := TryHold(); ok {
		t.Fatal("third hold succeeded beyond the budget")
	}
	r2()
	r2() // idempotent
	if InUse() != 1 {
		t.Fatalf("InUse = %d after one release", InUse())
	}

	// Swap pools while r1 is outstanding: the new pool starts clean, and
	// r1 firing later must not drive its counter negative.
	SetBudget(2)
	if InUse() != 0 {
		t.Fatalf("InUse = %d after SetBudget", InUse())
	}
	r1()
	if InUse() != 0 {
		t.Fatalf("InUse = %d after a stale release; old-pool releases must not corrupt the new pool", InUse())
	}
	if Budget() != 2 {
		t.Fatalf("Budget = %d", Budget())
	}
}

// TestDoFirstError: the first failure stops new work and is returned.
func TestDoFirstError(t *testing.T) {
	restoreBudget(t)
	SetBudget(0) // serial: deterministic claim order
	boom := errors.New("boom")
	var ran atomic.Int32
	err := Do(context.Background(), 100, func(i int) error {
		ran.Add(1)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if got := ran.Load(); got != 4 {
		t.Fatalf("ran %d tasks after failure at 3", got)
	}
}

// TestDoCancellation: a cancelled context surfaces and stops the fan-out.
func TestDoCancellation(t *testing.T) {
	restoreBudget(t)
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := Do(ctx, 1000, func(i int) error {
		if ran.Add(1) == 5 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() == 1000 {
		t.Fatal("cancellation did not stop the fan-out")
	}
}
