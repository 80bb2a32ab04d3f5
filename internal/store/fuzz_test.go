package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzBlobFrame checks the FS store's blob framing. Any payload
// round-trips through frameBlob and unframeBlob; unframeBlob never panics
// and accepts exactly the frames frameBlob writes; and GetBlob over a
// blob file holding arbitrary bytes returns its exact payload or else
// misses and removes the file, so the next PutBlob can rewrite it.
func FuzzBlobFrame(f *testing.F) {
	frame := frameBlob([]byte("payload"))
	f.Add([]byte{})
	f.Add([]byte("payload"))
	f.Add(frame)
	f.Add(frameBlob(nil))
	f.Add(frame[:len(frame)-1])
	f.Add(append(append([]byte(nil), frame...), 0))
	f.Add([]byte(blobMagic))

	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	key := Key("fuzzed")
	path, err := s.blobPath(key)
	if err != nil {
		f.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		if data, ok := unframeBlob(frameBlob(b)); !ok || !bytes.Equal(data, b) {
			t.Fatalf("payload of %d bytes did not round-trip: ok=%v", len(b), ok)
		}
		data, ok := unframeBlob(b)
		if ok && !bytes.Equal(frameBlob(data), b) {
			t.Fatalf("accepted %d bytes that are not the frame of their payload", len(b))
		}

		if err := os.WriteFile(path, b, 0o666); err != nil {
			t.Fatal(err)
		}
		got, hit, err := s.GetBlob(key)
		if err != nil {
			t.Fatal(err)
		}
		if hit != ok || !bytes.Equal(got, data) {
			t.Fatalf("GetBlob = (%d bytes, %v), want (%d bytes, %v)", len(got), hit, len(data), ok)
		}
		if _, err := os.Stat(path); hit == os.IsNotExist(err) {
			t.Fatalf("after GetBlob hit=%v the file exists=%v", hit, !os.IsNotExist(err))
		}
	})
}

// FuzzJournalRecover opens an FS store whose journal holds arbitrary
// bytes. Open and Recover never panic or fail; every recovered record has
// a non-empty ID and no ID is recovered twice; the journal depth Stats
// reports counts the recovered records that are not terminal; and a
// record journaled after the reopen is recovered by the next Open, since
// Open seals a torn tail off from later appends.
func FuzzJournalRecover(f *testing.F) {
	line := func(r JournalRecord) []byte {
		b, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		return append(b, '\n')
	}
	queued, done := line(rec("run-000001", "queued", "k1")), line(rec("run-000001", "done", "k1"))
	f.Add([]byte{})
	f.Add(queued)
	f.Add(append(append([]byte(nil), queued...), done...))
	f.Add(queued[:len(queued)-1])
	f.Add(queued[:len(queued)/2])
	f.Add(append(append([]byte(nil), queued...), queued[:7]...))
	f.Add([]byte(`{"id":"","state":"queued"}` + "\n"))
	f.Add([]byte(`{"id":"x"}` + "\r\n\n\x00{\n"))
	f.Add([]byte("\n\n\n"))

	probe := rec("run-probe", "queued", "probe-key")
	f.Fuzz(func(t *testing.T, journal []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalName), journal, 0o666); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		recs, err := s.Recover()
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		seen := map[string]bool{}
		pending := 0
		for _, r := range recs {
			if r.ID == "" {
				t.Fatalf("recovered a record with no ID: %+v", r)
			}
			if seen[r.ID] {
				t.Fatalf("recovered ID %q twice", r.ID)
			}
			seen[r.ID] = true
			if !Terminal(r.State) {
				pending++
			}
		}
		st, err := s.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.JournalDepth != pending {
			t.Fatalf("journal depth %d, %d recovered records are pending", st.JournalDepth, pending)
		}

		if err := s.Journal(probe); err != nil {
			t.Fatalf("Journal after reopen: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, err = Open(dir)
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		defer s.Close()
		recs, err = s.Recover()
		if err != nil {
			t.Fatalf("second Recover: %v", err)
		}
		for _, r := range recs {
			if r.ID == probe.ID {
				if r.State != probe.State || r.Key != probe.Key || !r.Time.Equal(probe.Time) {
					t.Fatalf("recovered the probe as %+v, journaled %+v", r, probe)
				}
				return
			}
		}
		t.Fatalf("the record journaled after reopening was not recovered (%d records)", len(recs))
	})
}
