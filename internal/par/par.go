// Package par is the process-wide simulation worker budget. Every bounded
// fan-out in the module — sweep cells, sharded session runs — draws
// extra workers from one shared pool of GOMAXPROCS-1 tokens, so nested
// parallelism (a sharded run inside a sweep worker) composes instead of
// multiplying: total concurrency stays at GOMAXPROCS however the fan-outs
// stack.
//
// The calling goroutine always participates in its own work and never
// needs a token, which is what makes nesting deadlock-free: a worker that
// holds a token and opens an inner fan-out still makes progress even when
// the pool is empty.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// pool bundles the token channel with its own saturation counter, so a
// release that fires after SetBudget swapped pools adjusts the old pool's
// counter (and channel), never the new one's.
type pool struct {
	tokens chan struct{}
	inUse  atomic.Int64
}

var (
	mu  sync.Mutex
	cur *pool
)

func init() { SetBudget(runtime.GOMAXPROCS(0) - 1) }

// SetBudget resets the extra-worker pool to n tokens (total parallelism
// n+1 counting the caller). It exists for tests and unusual deployments;
// calling it while work is in flight loses outstanding tokens, so don't.
func SetBudget(n int) {
	if n < 0 {
		n = 0
	}
	p := &pool{tokens: make(chan struct{}, n)}
	for i := 0; i < n; i++ {
		p.tokens <- struct{}{}
	}
	mu.Lock()
	cur = p
	mu.Unlock()
}

func current() *pool {
	mu.Lock()
	defer mu.Unlock()
	return cur
}

// Budget returns the extra-worker pool capacity: the process runs at most
// Budget()+1 simulation goroutines (the extras plus the free caller).
func Budget() int { return cap(current().tokens) }

// InUse returns how many extra-worker tokens are claimed right now — the
// pool saturation metric. It never exceeds Budget, so total simulation
// concurrency (InUse()+1 counting the token-free caller) never exceeds
// GOMAXPROCS under the default budget.
func InUse() int { return int(current().inUse.Load()) }

// tryAcquire claims one extra-worker token without blocking; the returned
// release func (idempotent) returns it to the pool it came from, so a
// SetBudget between acquire and release never corrupts the new pool.
func tryAcquire() (func(), bool) {
	p := current()
	select {
	case <-p.tokens:
		p.inUse.Add(1)
		var once sync.Once
		return func() {
			once.Do(func() {
				p.inUse.Add(-1)
				p.tokens <- struct{}{}
			})
		}, true
	default:
		return nil, false
	}
}

// TryHold claims one extra-worker token without blocking, for callers that
// hold it across a unit of work longer than one Do fan-out (e.g. a service
// job runner that wants its job goroutine counted against the shared
// budget). The release func is idempotent. Holders must release promptly
// when their work ends; a held token is one fewer worker for every Do in
// the process.
func TryHold() (release func(), ok bool) { return tryAcquire() }

// Do runs f(0..n-1) on the calling goroutine plus however many extra
// workers the shared budget can spare (none under a zero budget, the
// default when GOMAXPROCS is 1).
// Tokens are re-polled as indices are claimed, so a fan-out that starts
// while the pool is momentarily drained still picks up workers freed by
// other fan-outs finishing mid-run. The first error — or context
// cancellation — stops new work from being claimed; in-flight calls
// finish, every worker joins before return (no goroutine leaks), and that
// first error is returned. A panic in f is contained the same way: it
// becomes that call's error (stack attached) instead of unwinding a
// worker goroutine and killing the process.
func Do(ctx context.Context, n int, f func(i int) error) error {
	if n <= 0 {
		return nil
	}
	var (
		next     atomic.Int64
		failed   atomic.Bool
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		failed.Store(true)
	}
	// call guards one f(i) behind a recover barrier: a worker goroutine
	// that panicked would otherwise take the whole process down, and the
	// calling goroutine's panic would leak the spawned workers mid-flight.
	call := func(i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("par: worker panicked: %v\n%s", r, debug.Stack())
			}
		}()
		return f(i)
	}
	var work func()
	// spawn adds one extra worker if the pool can spare a token right
	// now. Every worker (the new one included) re-attempts a spawn per
	// claimed index, so ramp-up is immediate when tokens are free and
	// late-freed tokens are still picked up.
	spawn := func() {
		release, ok := tryAcquire()
		if !ok {
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer release()
			work()
		}()
	}
	work = func() {
		for !failed.Load() {
			if err := ctx.Err(); err != nil {
				fail(err)
				return
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if i+1 < n {
				spawn()
			}
			if err := call(i); err != nil {
				fail(err)
				return
			}
		}
	}
	work()
	wg.Wait()
	return firstErr
}
