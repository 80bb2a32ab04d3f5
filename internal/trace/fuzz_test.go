// Fuzz coverage for the trace codecs: the service and the CLIs hand
// untrusted bytes to Open/NewReader and untrusted block sequences to the
// Writer, so the decoders must round-trip what the writer produces, reject
// truncation inside the stream, tolerate truncation that only clips the
// trailing chunk index, and never panic or spin on corrupt input —
// including corrupt chunk indexes, which seeks consult before the stream.
package trace

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"streamfetch/internal/cfg"
)

// encodePayload packs a block sequence as uvarints — the fuzz payload
// alphabet for FuzzTraceRoundTrip.
func encodePayload(blocks []cfg.BlockID) []byte {
	var buf []byte
	var tmp [binary.MaxVarintLen64]byte
	for _, id := range blocks {
		buf = append(buf, tmp[:binary.PutUvarint(tmp[:], uint64(id))]...)
	}
	return buf
}

// payloadBlocks decodes a fuzz payload into an in-program block sequence
// (ids reduced mod the program size, count bounded) plus its CFG
// instruction total.
func payloadBlocks(payload []byte, prog *cfg.Program) ([]cfg.BlockID, uint64) {
	const maxBlocks = 1 << 15
	var blocks []cfg.BlockID
	var insts uint64
	r := bytes.NewReader(payload)
	for len(blocks) < maxBlocks {
		v, err := binary.ReadUvarint(r)
		if err != nil {
			break
		}
		id := cfg.BlockID(v % uint64(len(prog.Blocks)))
		blocks = append(blocks, id)
		insts += uint64(prog.Blocks[id].NInsts)
	}
	return blocks, insts
}

// encodeTrace serializes blocks in the current format; withIndex binds the
// program so the writer appends the seek index.
func encodeTrace(t testing.TB, prog *cfg.Program, blocks []cfg.BlockID, insts uint64, withIndex bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, prog.Name)
	if err != nil {
		t.Fatal(err)
	}
	if withIndex {
		w.BindProgram(prog)
	}
	for _, id := range blocks {
		if err := w.Append(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(insts); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// drainSource reads a source to exhaustion, batch blocks per NextBatch.
func drainSource(t *testing.T, src Source, batch int) []cfg.BlockID {
	t.Helper()
	var out []cfg.BlockID
	dst := make([]cfg.BlockID, batch)
	for {
		n := src.NextBatch(dst)
		if n == 0 {
			break
		}
		if n < 0 || n > batch {
			t.Fatalf("NextBatch(len %d) = %d", batch, n)
		}
		out = append(out, dst[:n]...)
	}
	return out
}

// fuzzBatch derives a NextBatch size of 1 to 64 blocks from a fuzz input,
// so the fuzzer drives short batches across Skip's peeked block and chunk
// boundaries without a new input field (which would orphan the committed
// corpus).
func fuzzBatch(v uint64) int { return int(v%64) + 1 }

func writeTempTrace(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fuzz.trc")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// addTestdataSeeds seeds a fuzz target with every committed trace file.
func addTestdataSeeds(f *testing.F, add func(data []byte)) {
	f.Helper()
	entries, err := os.ReadDir("testdata")
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		// Only the committed trace files; testdata/fuzz is the corpus dir
		// the fuzzing engine itself manages.
		if e.IsDir() || filepath.Ext(e.Name()) != ".trc" {
			continue
		}
		data, err := os.ReadFile(filepath.Join("testdata", e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		add(data)
	}
}

// FuzzTraceRoundTrip drives writer→reader round trips from an arbitrary
// block sequence and an arbitrary truncation point: both formats must
// reproduce the sequence exactly; seek-based Skip must agree with the
// prefix-summed slice oracle; truncation inside the stream or footer must
// surface a decode error; truncation that only clips the trailing index
// must decode cleanly (the index is an optimization, never a dependency).
func FuzzTraceRoundTrip(f *testing.F) {
	prog := genProg(f, "164.gzip")
	for _, n := range []uint64{0, 1_500, 30_000} {
		tr := Generate(prog, GenConfig{Seed: 99, MaxInsts: n})
		f.Add(encodePayload(tr.Blocks), uint32(0))
		f.Add(encodePayload(tr.Blocks), uint32(12345))
	}
	f.Fuzz(func(t *testing.T, payload []byte, cut uint32) {
		batch := fuzzBatch(uint64(cut))
		blocks, insts := payloadBlocks(payload, prog)
		plain := encodeTrace(t, prog, blocks, insts, false)
		indexed := encodeTrace(t, prog, blocks, insts, true)
		if !bytes.Equal(plain, indexed[:len(plain)]) {
			t.Fatal("index-less encoding is not a prefix of the indexed one")
		}

		// Round trip through the current format, streamed.
		src, err := NewReader(bytes.NewReader(plain))
		if err != nil {
			t.Fatal(err)
		}
		assertSequence(t, src, batch, blocks, insts, "v2 plain")

		// Round trip through the indexed file, with a seek: Skip on the
		// indexed FileSource must agree with the SliceSource oracle.
		fsrc, err := Open(writeTempTrace(t, indexed))
		if err != nil {
			t.Fatal(err)
		}
		defer fsrc.Close()
		if !fsrc.Seekable() {
			t.Fatal("indexed file not seekable")
		}
		fsrc.Bind(prog)
		skip := uint64(cut) % (insts + 1)
		got, err := fsrc.Skip(skip)
		if err != nil {
			t.Fatalf("indexed Skip(%d): %v", skip, err)
		}
		oracle := NewSliceSource(prog.Name, blocks, insts)
		oracle.Bind(prog)
		want, err := oracle.Skip(skip)
		if err != nil {
			t.Fatalf("oracle Skip(%d): %v", skip, err)
		}
		if got != want {
			t.Fatalf("Skip(%d): file skipped %d, slice oracle %d", skip, got, want)
		}
		rest := drainSource(t, fsrc, batch)
		wantRest := drainSource(t, oracle, batch)
		if err := fsrc.Err(); err != nil {
			t.Fatalf("indexed drain after skip: %v", err)
		}
		if len(rest) != len(wantRest) {
			t.Fatalf("after Skip(%d): %d blocks remain, oracle has %d", skip, len(rest), len(wantRest))
		}
		for i := range rest {
			if rest[i] != wantRest[i] {
				t.Fatalf("after Skip(%d): block %d = %d, oracle %d", skip, i, rest[i], wantRest[i])
			}
		}

		// Truncation semantics.
		cutAt := int(cut) % (len(indexed) + 1)
		tsrc, err := Open(writeTempTrace(t, indexed[:cutAt]))
		if cutAt >= len(plain) {
			// Only index bytes are missing: stream and footer are intact,
			// so the file must still decode fully and cleanly.
			if err != nil {
				t.Fatalf("index-only truncation at %d/%d failed Open: %v", cutAt, len(indexed), err)
			}
			trunc := drainSource(t, tsrc, batch)
			if err := tsrc.Close(); err != nil {
				t.Fatalf("index-only truncation at %d/%d failed decode: %v", cutAt, len(indexed), err)
			}
			if len(trunc) != len(blocks) {
				t.Fatalf("index-only truncation decoded %d blocks, want %d", len(trunc), len(blocks))
			}
			for i := range trunc {
				if trunc[i] != blocks[i] {
					t.Fatalf("index-only truncation: block %d = %d, want %d", i, trunc[i], blocks[i])
				}
			}
		} else {
			// Bytes missing from the stream or footer: a decode error is
			// mandatory — a truncated trace must never read as a shorter
			// valid trace.
			if err == nil {
				drainSource(t, tsrc, batch)
				if tsrc.Err() == nil {
					t.Fatalf("truncation inside the stream at %d/%d decoded without error", cutAt, len(plain))
				}
				tsrc.Close()
			}
		}
	})
}

// assertSequence drains src, batch blocks at a time, and requires the
// exact block sequence, a clean stream and exact totals.
func assertSequence(t *testing.T, src Source, batch int, blocks []cfg.BlockID, insts uint64, label string) {
	t.Helper()
	got := drainSource(t, src, batch)
	if err := src.Close(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if len(got) != len(blocks) {
		t.Fatalf("%s: decoded %d blocks, want %d", label, len(got), len(blocks))
	}
	for i := range got {
		if got[i] != blocks[i] {
			t.Fatalf("%s: block %d = %d, want %d", label, i, got[i], blocks[i])
		}
	}
	if n, exact := src.TotalInsts(); !exact || n != insts {
		t.Fatalf("%s: totals %d exact=%v, want %d", label, n, exact, insts)
	}
}

// FuzzOpen feeds arbitrary bytes to the file decoder — header, chunk
// stream, footer and chunk index all attacker-controlled — and requires
// that Open either fails cleanly or yields a source that can Skip (seeking
// through whatever index survived validation) and drain without panicking
// or running away. Seeds are the committed testdata traces, a current
// encoding under the retired STRMTRC1 magic, and an indexed file with its
// index region corrupted.
func FuzzOpen(f *testing.F) {
	prog := genProg(f, "164.gzip")
	addTestdataSeeds(f, func(data []byte) {
		f.Add(data, uint64(0))
		f.Add(data, uint64(10_000))
	})
	tr := Generate(prog, GenConfig{Seed: 5, MaxInsts: 2_000})
	indexed := encodeTrace(f, prog, tr.Blocks, tr.Insts, true)
	f.Add(append([]byte("STRMTRC1"), indexed[len(magicV2):]...), uint64(500))
	for _, flip := range []int{20, len(indexed) - 10, len(indexed) - 20} {
		if flip < 0 || flip >= len(indexed) {
			continue
		}
		corrupt := bytes.Clone(indexed)
		corrupt[flip] ^= 0xff
		f.Add(corrupt, uint64(1_000))
	}
	f.Fuzz(func(t *testing.T, data []byte, skip uint64) {
		src, err := Open(writeTempTrace(t, data))
		if err != nil {
			return
		}
		defer src.Close()
		src.Bind(prog)
		if _, err := src.Skip(skip); err != nil {
			return
		}
		limit := 4*len(data) + 1024 // every decoded block consumes stream bytes
		dst := make([]cfg.BlockID, fuzzBatch(skip))
		for n := 0; ; {
			k := src.NextBatch(dst)
			if k == 0 {
				break
			}
			if k < 0 || k > len(dst) {
				t.Fatalf("NextBatch(len %d) = %d", len(dst), k)
			}
			if n += k; n > limit {
				t.Fatalf("decoder emitted %d blocks from %d input bytes", n, len(data))
			}
		}
	})
}
