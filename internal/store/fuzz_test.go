package store

import (
	"bytes"
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
