package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGenerateAndInspectGolden: generate a small trace, then pin the
// -inspect summary byte-for-byte against a golden. Generation is seeded,
// so block/instruction counts and seekability are deterministic; a change
// here means the generator, the codec or the inspect plumbing moved.
func TestGenerateAndInspectGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gzip_50k.trc")
	var stdout, stderr bytes.Buffer
	code := run(context.Background(),
		[]string{"-bench", "164.gzip", "-insts", "50000", "-seed", "99", "-o", path},
		&stdout, &stderr)
	if code != 0 {
		t.Fatalf("generate: exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "wrote "+path+": 164.gzip") {
		t.Fatalf("generate output: %q", stdout.String())
	}

	stdout.Reset()
	stderr.Reset()
	if code := run(context.Background(), []string{"-inspect", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("inspect: exit %d, stderr: %s", code, stderr.String())
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden_inspect_gzip_50k.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Fatalf("-inspect output diverged from golden\ngot:\n%s\nwant:\n%s",
			stdout.Bytes(), want)
	}
}

// TestRunErrors: the documented failure exits — missing -o, unreadable
// -inspect target, an -inspect target without a chunk index, unknown
// flag.
func TestRunErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-bench", "164.gzip"}, &stdout, &stderr); code != 2 {
		t.Errorf("missing -o: exit %d, want 2", code)
	}
	stderr.Reset()
	if code := run(context.Background(), []string{"-inspect", filepath.Join(t.TempDir(), "absent.trc")}, &stdout, &stderr); code != 1 {
		t.Errorf("absent -inspect file: exit %d, want 1", code)
	}
	if stderr.Len() == 0 {
		t.Error("absent -inspect file produced no error output")
	}
	stderr.Reset()
	if code := run(context.Background(), []string{"-inspect", indexlessTrace(t)}, &stdout, &stderr); code != 1 {
		t.Errorf("index-less -inspect file: exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "cmd/tracegen") {
		t.Errorf("index-less -inspect file: stderr %q does not say to re-record it", stderr.String())
	}
	if code := run(context.Background(), []string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
	if code := run(context.Background(), []string{"-h"}, &stdout, &stderr); code != 0 {
		t.Errorf("-h: exit %d, want 0 (usage is not an error)", code)
	}
}

// indexlessTrace writes a trace and cuts its trailing chunk index off (the
// section's length precedes the final 8-byte magic), as an index-less
// file from an older writer would end.
func indexlessTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "plain.trc")
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-insts", "20000", "-o", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("generate: exit %d, stderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	secLen := binary.LittleEndian.Uint64(data[len(data)-16:])
	if err := os.WriteFile(path, data[:len(data)-16-int(secLen)], 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}
