package store

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"
)

// backends builds one of each Store implementation for conformance runs.
func backends(t *testing.T) map[string]Store {
	t.Helper()
	fss, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fss.Close() })
	return map[string]Store{"mem": NewMem(), "fs": fss}
}

func rec(id, state, key string) JournalRecord {
	return JournalRecord{
		ID: id, Kind: "run", Key: key, State: state,
		Time:    time.Unix(1700000000, 0).UTC(),
		Request: json.RawMessage(`{"benchmark":"164.gzip"}`),
	}
}

// TestJournalReplay: Recover returns the latest record per job in
// first-seen order, and journal depth tracks jobs without a terminal
// record.
func TestJournalReplay(t *testing.T) {
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			for _, r := range []JournalRecord{
				rec("run-000001", "queued", "k1"),
				rec("run-000002", "queued", "k2"),
				rec("run-000001", "done", "k1"),
				rec("sweep-000003", "queued", "k3"),
			} {
				if err := s.Journal(r); err != nil {
					t.Fatal(err)
				}
			}
			recs, err := s.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 3 {
				t.Fatalf("recovered %d jobs, want 3: %+v", len(recs), recs)
			}
			wantOrder := []string{"run-000001", "run-000002", "sweep-000003"}
			wantState := []string{"done", "queued", "queued"}
			for i, r := range recs {
				if r.ID != wantOrder[i] || r.State != wantState[i] {
					t.Errorf("rec[%d] = %s/%s, want %s/%s", i, r.ID, r.State, wantOrder[i], wantState[i])
				}
			}
			st, err := s.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st.JournalRecords != 4 || st.JournalDepth != 2 {
				t.Errorf("stats = %+v, want 4 records, depth 2", st)
			}
			if st.Bytes <= 0 {
				t.Errorf("stats bytes = %d, want > 0", st.Bytes)
			}
		})
	}
}

// TestBlobRoundTrip: put/get round-trips, missing keys report ok=false,
// and re-putting an existing key is a no-op.
func TestBlobRoundTrip(t *testing.T) {
	key := Key(struct{ A string }{"x"})
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if _, ok, err := s.GetBlob(key); err != nil || ok {
				t.Fatalf("GetBlob on empty store = ok=%v err=%v", ok, err)
			}
			data := []byte(`{"ipc": 3.14}`)
			if err := s.PutBlob(key, data); err != nil {
				t.Fatal(err)
			}
			if err := s.PutBlob(key, data); err != nil {
				t.Fatalf("re-put of existing key: %v", err)
			}
			got, ok, err := s.GetBlob(key)
			if err != nil || !ok {
				t.Fatalf("GetBlob = ok=%v err=%v", ok, err)
			}
			if string(got) != string(data) {
				t.Errorf("blob = %q, want %q", got, data)
			}
			st, err := s.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st.Blobs != 1 {
				t.Errorf("stats blobs = %d, want 1", st.Blobs)
			}
		})
	}
}

// TestKeyDeterminism: equal specs hash equal, different specs differ.
func TestKeyDeterminism(t *testing.T) {
	type spec struct {
		Benchmark string
		Seed      uint64
	}
	a := Key(spec{"164.gzip", 99})
	if b := Key(spec{"164.gzip", 99}); b != a {
		t.Errorf("same spec hashed differently: %s vs %s", a, b)
	}
	if b := Key(spec{"164.gzip", 100}); b == a {
		t.Error("different specs collided")
	}
	if len(a) != 64 {
		t.Errorf("key length %d, want 64 hex chars", len(a))
	}
}

func TestTerminal(t *testing.T) {
	for state, want := range map[string]bool{
		"queued": false, "running": false,
		"done": true, "failed": true, "cancelled": true,
	} {
		if got := Terminal(state); got != want {
			t.Errorf("Terminal(%q) = %v, want %v", state, got, want)
		}
	}
}

// pendingCount tallies journaled jobs with no terminal record: the
// journal depth a store must report for recs.
func pendingCount(recs []JournalRecord) int {
	n := 0
	for _, rec := range replay(recs) {
		if !Terminal(rec.State) {
			n++
		}
	}
	return n
}

// TestMemJournalDifferential checks Mem, which keeps only the latest
// record per job, against replay and pendingCount over the full record
// list: after every record of random journal sequences, Recover and Stats
// must match. Stats must not allocate.
func TestMemJournalDifferential(t *testing.T) {
	states := []string{"queued", "running", "done", "failed", "cancelled"}
	rng := rand.New(rand.NewPCG(27, 1))
	for seq := range 50 {
		s := NewMem()
		var all []JournalRecord
		jobs := 1 + rng.IntN(12)
		for i := range 1 + rng.IntN(80) {
			r := JournalRecord{
				ID:    fmt.Sprintf("run-%06d", rng.IntN(jobs)),
				Kind:  "run",
				State: states[rng.IntN(len(states))],
				Time:  time.Unix(1700000000+int64(i), 0).UTC(),
			}
			if Terminal(r.State) {
				r.Envelope = json.RawMessage(fmt.Sprintf(`{"seq":%d}`, i))
			} else {
				r.Request = json.RawMessage(fmt.Sprintf(`{"insts":%d}`, i))
			}
			if err := s.Journal(r); err != nil {
				t.Fatal(err)
			}
			all = append(all, r)
			got, err := s.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if want := replay(all); !reflect.DeepEqual(got, want) {
				t.Fatalf("sequence %d, record %d: Recover = %+v, want %+v", seq, i, got, want)
			}
			st, err := s.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st.JournalRecords != len(all) || st.JournalDepth != pendingCount(all) {
				t.Fatalf("sequence %d, record %d: stats %+v, want %d records, depth %d",
					seq, i, st, len(all), pendingCount(all))
			}
		}
		if n := testing.AllocsPerRun(100, func() { s.Stats() }); n != 0 {
			t.Fatalf("Mem.Stats allocates %v times a call, want 0", n)
		}
	}
}
