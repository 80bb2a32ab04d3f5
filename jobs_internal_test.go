package streamfetch

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestSessionCacheLRU: the cache reuses sessions for repeated
// preparation identities, bounds its size, and evicts least-recently-used
// first — so a client sweeping the training key space (fresh train seed
// per request) cannot grow a daemon's prepared-artifact memory without
// limit. Reference seeds do not split entries: they are per-run options.
func TestSessionCacheLRU(t *testing.T) {
	c := sessionCache{cap: 2}
	spec := func(seed, trainSeed uint64) contentSpec {
		return contentSpec{benchmark: "164.gzip", seed: seed, trainSeed: trainSeed}.normalized()
	}
	a := c.get(spec(1, 1))
	if got := c.get(spec(1, 1)); got != a {
		t.Fatal("repeated spec did not reuse the cached session")
	}
	if got := c.get(spec(2, 1)); got != a {
		t.Fatal("a fresh reference seed split the cache")
	}
	b := c.get(spec(1, 2))
	if b == a {
		t.Fatal("a fresh train seed shared a session")
	}
	// Touch a so train seed 2 is now least recently used, then overflow.
	c.get(spec(1, 1))
	c.get(spec(1, 3))
	if got := c.size(); got != 2 {
		t.Fatalf("cache size %d, want 2", got)
	}
	if got := c.get(spec(1, 1)); got != a {
		t.Error("recently used session was evicted")
	}
	if got := c.get(spec(1, 2)); got == b {
		t.Error("least recently used session was not evicted")
	}
}

// TestEffTimeoutOverflow: timeout_ms near MaxInt64 used to overflow
// time.Duration(ms) * time.Millisecond into a negative duration, which
// read as "no timeout" in one branch and bypassed -max-job-time in the
// other. The conversion must saturate and the server cap must still win.
func TestEffTimeoutOverflow(t *testing.T) {
	if d := msToDuration(math.MaxInt64); d <= 0 {
		t.Fatalf("msToDuration(MaxInt64) = %d, want a positive saturated duration", d)
	}
	if d := msToDuration(math.MaxInt64/int64(time.Millisecond) + 1); d != time.Duration(math.MaxInt64) {
		t.Fatalf("just past the overflow threshold: got %d, want saturation", d)
	}
	if d := msToDuration(1500); d != 1500*time.Millisecond {
		t.Fatalf("ordinary value distorted: got %s", d)
	}
	m := &jobManager{maxJobTime: time.Minute}
	if d := m.effTimeout(math.MaxInt64); d != time.Minute {
		t.Fatalf("server cap bypassed by overflowing timeout_ms: got %s, want 1m", d)
	}
	m = &jobManager{} // no cap: saturated, but bounded and positive
	if d := m.effTimeout(math.MaxInt64); d != time.Duration(math.MaxInt64) {
		t.Fatalf("uncapped overflow: got %d, want MaxInt64", d)
	}
}

func queuedJob(id string, pri int, deadline time.Time, seq int) *job {
	return &job{id: id, state: JobQueued, priority: pri, deadline: deadline,
		seq: seq, done: make(chan struct{})}
}

// TestJobQueueOrdering: the admission queue pops by priority class first,
// earliest deadline within a class (no deadline sorts last), submission
// order as the tie-break.
func TestJobQueueOrdering(t *testing.T) {
	now := time.Now()
	q := newJobQueue()
	q.push(queuedJob("low", -1, time.Time{}, 1))
	q.push(queuedJob("fifo-b", 0, time.Time{}, 5))
	q.push(queuedJob("deadline-late", 0, now.Add(time.Hour), 4))
	q.push(queuedJob("high", 3, time.Time{}, 3))
	q.push(queuedJob("deadline-soon", 0, now.Add(time.Minute), 6))
	q.push(queuedJob("fifo-a", 0, time.Time{}, 2))
	var got []string
	for q.len() > 0 {
		j, ok := q.pop()
		if !ok {
			t.Fatal("pop failed with jobs queued")
		}
		got = append(got, j.id)
	}
	want := "high deadline-soon deadline-late fifo-a fifo-b low"
	if s := strings.Join(got, " "); s != want {
		t.Fatalf("pop order %q, want %q", s, want)
	}
}

// TestJobQueueSwap: a job the dispatcher holds while waiting for
// capacity is re-offered against the queue head, so a higher-priority
// arrival overtakes it instead of waiting behind it.
func TestJobQueueSwap(t *testing.T) {
	q := newJobQueue()
	held := queuedJob("held", 0, time.Time{}, 1)
	if got := q.swap(held); got != held {
		t.Fatal("swap against an empty queue must return the held job")
	}
	q.push(queuedJob("later-equal", 0, time.Time{}, 2))
	if got := q.swap(held); got != held {
		t.Fatal("an equal-priority later arrival must not displace the held job")
	}
	hi := queuedJob("hi", 5, time.Time{}, 3)
	q.push(hi)
	got := q.swap(held)
	if got != hi {
		t.Fatalf("swap returned %s, want the higher-priority arrival", got.id)
	}
	// The held job went back: it and later-equal drain in seq order.
	j1, _ := q.pop()
	j2, _ := q.pop()
	if j1 != held || j2 == nil || j2.id != "later-equal" {
		t.Fatalf("after swap, drained %v then %v", j1.id, j2.id)
	}
}

// TestJobQueueCloseDrains: close ends pop-blocking but queued jobs still
// drain (shutdown completes accepted work), and push stays usable for
// the dispatcher's internal re-offers.
func TestJobQueueCloseDrains(t *testing.T) {
	q := newJobQueue()
	q.push(queuedJob("a", 0, time.Time{}, 1))
	q.close()
	q.push(queuedJob("b", 0, time.Time{}, 2))
	if j, ok := q.pop(); !ok || j.id != "a" {
		t.Fatalf("first pop after close: %v %v", j, ok)
	}
	if j, ok := q.pop(); !ok || j.id != "b" {
		t.Fatalf("second pop after close: %v %v", j, ok)
	}
	if j, ok := q.pop(); ok || j != nil {
		t.Fatal("empty closed queue must report closed, not block")
	}
}

// newRunJob submits a run and returns its job, for tests that do not need
// the submission's envelope.
func (m *jobManager) newRunJob(req RunRequest) (*job, error) {
	j, _, err := m.submitRun(req)
	return j, err
}

// TestParseHitID: a hit id splits back into its kind and content key, and
// an id whose key does not have a content key's form is refused.
func TestParseHitID(t *testing.T) {
	key := (&RunRequest{Benchmark: "164.gzip"}).contentKey()
	for _, kind := range []string{"run", "sweep"} {
		if k, got, ok := parseHitID(hitID(kind, key)); !ok || k != kind || got != key {
			t.Errorf("parseHitID(hitID(%q, key)) = %q, %q, %v", kind, k, got, ok)
		}
	}
	for _, id := range []string{
		"run-hit-" + key[:63], "run-hit-" + key + "0", "run-hit-" + strings.ToUpper(key),
		"run-hit-../../" + key[:58], "job-hit-" + key, "run-000001", "run-hit-",
	} {
		if _, _, ok := parseHitID(id); ok {
			t.Errorf("parseHitID(%q) accepted a malformed id", id)
		}
	}
}
