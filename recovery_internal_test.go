package streamfetch

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"streamfetch/internal/store"
)

// journalAt appends recs to the journal of the filesystem store at dir, as
// an earlier daemon on that directory would have left them.
func journalAt(t *testing.T, dir string, recs ...store.JournalRecord) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := st.Journal(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// recoveredAt returns the latest journaled record of id in the store at
// dir.
func recoveredAt(t *testing.T, dir, id string) store.JournalRecord {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	recs, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.ID == id {
			return rec
		}
	}
	t.Fatalf("no journal record for %s", id)
	return store.JournalRecord{}
}

// awaitJob waits (bounded) for a registered job to reach a terminal state
// and returns its envelope.
func awaitJob(t *testing.T, m *jobManager, id string) *JobEnvelope {
	t.Helper()
	j := m.get(id)
	if j == nil {
		t.Fatalf("job %s is not registered", id)
	}
	select {
	case <-j.done:
	case <-time.After(2 * time.Minute):
		t.Fatalf("job %s did not finish", id)
	}
	return j.envelope()
}

// TestRecoveredSweepReenqueued: a sweep journaled as accepted, with no
// terminal record, is re-enqueued by the next daemon on the directory
// under its old id and keyed by its journaled request (not the key
// journaled beside it), and its cells come out byte-identical to direct
// runs of each cell.
func TestRecoveredSweepReenqueued(t *testing.T) {
	sweep := SweepRequest{Benchmarks: []string{"164.gzip"}, Layouts: []string{"base"},
		Engines: []string{"streams", "ev8"}, Widths: []int{4}, Insts: 20_000, Seed: 91}
	reqJSON, err := json.Marshal(sweep)
	if err != nil {
		t.Fatal(err)
	}
	norm := sweep
	if err := norm.normalize(); err != nil {
		t.Fatal(err)
	}
	const id = "sweep-000004"
	dir := t.TempDir()
	journalAt(t, dir, store.JournalRecord{ID: id, Kind: "sweep", Key: "journaled-under-another-model",
		State: string(JobQueued), Time: time.Now(), Request: reqJSON})

	srv, err := NewServer(WithStoreDir(dir), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdownServer(t, srv) })
	env := awaitJob(t, srv.mgr, id)
	if env.ID != id || env.Kind != "sweep" || env.Key != norm.contentKey() {
		t.Errorf("recovered sweep is %s %s under key %s, want %s sweep under its request's key %s",
			env.Kind, env.ID, env.Key, id, norm.contentKey())
	}
	if env.State != JobDone || env.Cached {
		t.Fatalf("recovered sweep finished %s (cached %v, error %q), want a done simulation",
			env.State, env.Cached, env.Error)
	}
	cells := norm.cells()
	if len(env.Cells) != len(cells) {
		t.Fatalf("recovered sweep has %d cells, want %d", len(env.Cells), len(cells))
	}
	for i, c := range cells {
		if got, want := renderReport(t, env.Cells[i].Report), directOracle(t, c); string(got) != string(want) {
			t.Errorf("cell %s/%s/%s w=%d differs from a direct run\ngot:\n%s\nwant:\n%s",
				c.Benchmark, c.Layout, c.Engine, c.Width, got, want)
		}
	}
}

// TestUnrecoverableJournaledRequest: an accepted job whose journaled
// request no longer parses (a run) or no longer validates (a sweep) is
// not dropped: it becomes a failed job naming why, journaled terminal, so
// it still serves after another restart and never runs.
func TestUnrecoverableJournaledRequest(t *testing.T) {
	dir := t.TempDir()
	now := time.Now()
	journalAt(t, dir,
		store.JournalRecord{ID: "run-000002", Kind: "run", State: string(JobQueued), Time: now,
			Request: json.RawMessage(`{"benchmark":42}`)},
		store.JournalRecord{ID: "sweep-000003", Kind: "sweep", State: string(JobQueued), Time: now,
			Request: json.RawMessage(`{"widths":[-1]}`)})
	ids := []string{"run-000002", "sweep-000003"}

	for restart := 1; restart <= 2; restart++ {
		srv, err := NewServer(WithStoreDir(dir), WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			j := srv.mgr.get(id)
			if j == nil {
				t.Fatalf("restart %d: %s was dropped", restart, id)
			}
			env := j.envelope()
			if env.ID != id || env.State != JobFailed ||
				!strings.Contains(env.Error, "journaled request is not recoverable") {
				t.Errorf("restart %d: %s is %s %s (error %q), want failed as not recoverable",
					restart, id, env.ID, env.State, env.Error)
			}
		}
		// New jobs number past the recovered ids.
		j, _, err := srv.mgr.submitRun(RunRequest{Benchmark: "164.gzip", Insts: 20_000, Seed: 90 + uint64(restart)})
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := jobSeq(j.id); n <= 3 {
			t.Errorf("restart %d: a new job took id %s, reusing a recovered sequence number", restart, j.id)
		}
		shutdownServer(t, srv)
	}
}

// heldJournalStore journals the first queued record it is given, then
// holds that Journal call open until release is closed, announcing it on
// entered.
type heldJournalStore struct {
	store.Store
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (s *heldJournalStore) Journal(rec store.JournalRecord) error {
	err := s.Store.Journal(rec)
	if rec.State == string(JobQueued) {
		s.once.Do(func() {
			close(s.entered)
			<-s.release
		})
	}
	return err
}

// TestDrainRetractsOnOwnedStore: a submission still journaling when
// Shutdown begins is refused with ErrDraining, and its queued record is
// retracted by a terminal one, so a restart does not run a job whose
// client was told no. The server owns its store here, so Shutdown must
// wait for the admission before it closes the store under the retraction.
func TestDrainRetractsOnOwnedStore(t *testing.T) {
	dir := t.TempDir()
	fs, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := &heldJournalStore{Store: fs, entered: make(chan struct{}), release: make(chan struct{})}
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(st.release) }) }
	t.Cleanup(release)
	m, err := newJobManager(serverConfig{queueDepth: 4, workers: 1, retainJobs: 16,
		sessionCap: 4, probeEvery: time.Second}, st, true)
	if err != nil {
		t.Fatal(err)
	}

	submitted := make(chan error, 1)
	go func() {
		_, _, err := m.submitRun(RunRequest{Benchmark: "164.gzip", Insts: 20_000, Seed: 93})
		submitted <- err
	}()
	<-st.entered

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	shut := make(chan error, 1)
	go func() { shut <- m.shutdown(ctx) }()
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
		m.mu.Lock()
		draining := m.draining
		m.mu.Unlock()
		if draining {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shutdown never began draining")
		}
	}
	// Give a shutdown that does not wait for the admission time to finish
	// and close the store.
	select {
	case err := <-shut:
		t.Errorf("shutdown returned (%v) while a submission was still journaling", err)
		shut <- err
	case <-time.After(200 * time.Millisecond):
	}
	release()

	if err := <-submitted; !errors.Is(err, ErrDraining) {
		t.Fatalf("submission during drain: %v, want ErrDraining", err)
	}
	if err := <-shut; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if n := m.storeErrs.Load(); n != 0 {
		t.Errorf("store errors = %d, want 0: the retraction was not journaled", n)
	}
	if rec := recoveredAt(t, dir, "run-000001"); rec.State != string(JobCancelled) {
		t.Errorf("refused submission recovers as %s, want cancelled", rec.State)
	}
}
