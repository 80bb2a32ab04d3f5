package trace

import (
	"bytes"
	"encoding/binary"
	"slices"
	"strings"
	"testing"

	"streamfetch/internal/cfg"
)

// skipOracle computes Skip's contract by hand on a materialized trace: the
// maximal whole-block prefix, starting at block i0, whose cumulative
// instruction count does not exceed n. It returns the instructions skipped
// and the index of the first remaining block.
func skipOracle(prog *cfg.Program, tr *Trace, i0 int, n uint64) (uint64, int) {
	skipped := uint64(0)
	i := i0
	for i < len(tr.Blocks) {
		ni := uint64(prog.Blocks[tr.Blocks[i]].NInsts)
		if skipped+ni > n {
			break
		}
		skipped += ni
		i++
	}
	return skipped, i
}

// skipTrace builds the reference trace every backing is checked against.
// 120k instructions is ~25k blocks: several chunks, so file skips cross
// chunk boundaries.
func skipTrace(t testing.TB) (*cfg.Program, *Trace) {
	t.Helper()
	prog := genProg(t, "164.gzip")
	return prog, Generate(prog, GenConfig{Seed: 11, MaxInsts: 120_000})
}

// sources returns fresh, program-bound sources over the identical
// sequence, one per backing (generator, slice, plain stream reader,
// indexed file).
func sources(t *testing.T, prog *cfg.Program, tr *Trace) map[string]Source {
	t.Helper()

	var v2 bytes.Buffer
	if err := tr.Write(&v2, prog); err != nil {
		t.Fatal(err)
	}
	plain, err := NewReader(bytes.NewReader(v2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	plain.Bind(prog)

	indexed := openIndexed(t, prog, tr)

	slice := tr.Source()
	slice.Bind(prog)

	return map[string]Source{
		"gen":     NewGenSource(prog, GenConfig{Seed: 11, MaxInsts: 120_000}),
		"slice":   slice,
		"plain":   plain,
		"indexed": indexed,
	}
}

// openIndexed writes tr with the chunk index to a temp file and opens it.
func openIndexed(t *testing.T, prog *cfg.Program, tr *Trace) *FileSource {
	t.Helper()
	src, err := Open(writeIndexed(t, prog, tr))
	if err != nil {
		t.Fatal(err)
	}
	src.Bind(prog)
	t.Cleanup(func() { src.Close() })
	return src
}

// writeIndexed writes tr with the chunk index to a temp file and returns
// its path.
func writeIndexed(t *testing.T, prog *cfg.Program, tr *Trace) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Write(&buf, prog); err != nil {
		t.Fatal(err)
	}
	return writeTempTrace(t, buf.Bytes())
}

// TestSkipDifferential: on every backing, skipping then reading delivers
// the suffix reading-and-discarding would — for skips of zero, within a block run, across chunk
// boundaries, to the exact end, and past EOF.
func TestSkipDifferential(t *testing.T) {
	prog, tr := skipTrace(t)
	chunk1 := uint64(0)
	for _, id := range tr.Blocks[:chunkBlocks] {
		chunk1 += uint64(prog.Blocks[id].NInsts)
	}
	skips := []uint64{0, 1, 7, 5_000, chunk1 - 1, chunk1, chunk1 + 1,
		3 * chunk1, tr.Insts - 1, tr.Insts, tr.Insts + 99_999, ^uint64(0)}
	for _, n := range skips {
		wantSkipped, wantIdx := skipOracle(prog, tr, 0, n)
		for name, src := range sources(t, prog, tr) {
			skipped, err := src.Skip(n)
			if err != nil {
				t.Fatalf("%s: Skip(%d): %v", name, n, err)
			}
			if skipped != wantSkipped {
				t.Fatalf("%s: Skip(%d) = %d, want %d", name, n, skipped, wantSkipped)
			}
			// The remainder must be the oracle's suffix, block for block.
			if rest := slices.Collect(Blocks(src)); !slices.Equal(rest, tr.Blocks[wantIdx:]) {
				t.Fatalf("%s: Skip(%d): the %d remaining blocks are not the oracle's %d-block suffix",
					name, n, len(rest), len(tr.Blocks)-wantIdx)
			}
			if err := src.Close(); err != nil {
				t.Fatalf("%s: Close: %v", name, err)
			}
		}
	}
}

// TestSkipRepeated: consecutive skips compose — each one applies the
// maximal-prefix rule from the current position.
func TestSkipRepeated(t *testing.T) {
	prog, tr := skipTrace(t)
	steps := []uint64{13, 40_000, 0, 25_000, 999}
	for name, src := range sources(t, prog, tr) {
		idx, pos := 0, uint64(0)
		for _, n := range steps {
			wantSkipped, wantIdx := skipOracle(prog, tr, idx, n)
			skipped, err := src.Skip(n)
			if err != nil {
				t.Fatalf("%s: Skip(%d) at %d: %v", name, n, pos, err)
			}
			if skipped != wantSkipped {
				t.Fatalf("%s: Skip(%d) at %d = %d, want %d", name, n, pos, skipped, wantSkipped)
			}
			idx, pos = wantIdx, pos+skipped
			// Interleave a read so skips compose with delivery.
			if idx < len(tr.Blocks) {
				var one [1]cfg.BlockID
				if n := src.NextBatch(one[:]); n != 1 || one[0] != tr.Blocks[idx] {
					t.Fatalf("%s: read after Skip at block %d = (%d,%d), want %d",
						name, idx, one[0], n, tr.Blocks[idx])
				}
				idx++
			}
		}
		if err := src.Close(); err != nil {
			t.Fatalf("%s: Close: %v", name, err)
		}
	}
}

// TestSkipNeedsProgram: slice- and file-backed sources refuse to skip
// without a bound program rather than miscounting.
func TestSkipNeedsProgram(t *testing.T) {
	prog, tr := skipTrace(t)
	if _, err := tr.Source().Skip(10); err == nil {
		t.Error("SliceSource.Skip without Bind succeeded")
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf, prog); err != nil {
		t.Fatal(err)
	}
	src, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Skip(10); err == nil {
		t.Error("FileSource.Skip without Bind succeeded")
	}
}

// TestIndexRoundTrip: a written file's index reports the exact totals up
// front, and Open refuses a file whose index is missing, clipped or
// corrupt, naming cmd/tracegen, while a plain stream reader still decodes
// the index-less bytes.
func TestIndexRoundTrip(t *testing.T) {
	prog, tr := skipTrace(t)
	src := openIndexed(t, prog, tr)
	if n, exact := src.TotalInsts(); !exact || n != tr.Insts {
		t.Fatalf("indexed TotalInsts = (%d,%v), want (%d,true)", n, exact, tr.Insts)
	}
	if n, exact := src.TotalBlocks(); !exact || n != uint64(len(tr.Blocks)) {
		t.Fatalf("indexed TotalBlocks = (%d,%v), want (%d,true)", n, exact, len(tr.Blocks))
	}
	got, err := Drain(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Blocks) != len(tr.Blocks) || got.Insts != tr.Insts {
		t.Fatalf("indexed drain: %d blocks/%d insts, want %d/%d",
			len(got.Blocks), got.Insts, len(tr.Blocks), tr.Insts)
	}
	for i := range tr.Blocks {
		if got.Blocks[i] != tr.Blocks[i] {
			t.Fatalf("indexed drain: block %d mismatch", i)
		}
	}

	var buf bytes.Buffer
	if err := tr.Write(&buf, prog); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	stream := stripIndex(t, whole)
	corrupt := bytes.Clone(whole)
	// An unterminated varint where the index's totals begin fails its
	// parse.
	for i := len(stream); i < len(stream)+10; i++ {
		corrupt[i] = 0xff
	}
	for name, data := range map[string][]byte{
		"index-less": stream,
		"clipped":    whole[:len(whole)-1],
		"corrupt":    corrupt,
	} {
		src, err := Open(writeTempTrace(t, data))
		if err == nil {
			src.Close()
			t.Fatalf("%s index: Open accepted the file", name)
		}
		if !strings.Contains(err.Error(), "cmd/tracegen") {
			t.Fatalf("%s index: error %q does not say to re-record with cmd/tracegen", name, err)
		}
	}
	plain, err := NewReader(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if got := slices.Collect(Blocks(plain)); !slices.Equal(got, tr.Blocks) {
		t.Fatalf("index-less stream decoded %d blocks, want %d", len(got), len(tr.Blocks))
	}
	if err := plain.Close(); err != nil {
		t.Fatal(err)
	}
}

// stripIndex returns a written trace without its trailing chunk index:
// the header, block stream and footer.
func stripIndex(t testing.TB, data []byte) []byte {
	t.Helper()
	if len(data) < 16 || string(data[len(data)-8:]) != indexMagic {
		t.Fatal("trace carries no chunk index")
	}
	secLen := binary.LittleEndian.Uint64(data[len(data)-16:])
	return data[:len(data)-16-int(secLen)]
}

// TestFooterIndexMismatch: a file whose index totals disagree with its
// footer opens (the index parses) but fails at the end of its stream,
// since the index alone sizes a replay's plan.
func TestFooterIndexMismatch(t *testing.T) {
	prog := genProg(t, "164.gzip")
	tr := Generate(prog, GenConfig{Seed: 3, MaxInsts: 30_000})
	var buf bytes.Buffer
	if err := tr.Write(&buf, prog); err != nil {
		t.Fatal(err)
	}
	for _, d := range []struct{ insts, blocks uint64 }{{1, 0}, {0, 1}, {1000, 0}} {
		src, err := Open(writeTempTrace(t, patchIndexTotals(t, buf.Bytes(), d.insts, d.blocks)))
		if err != nil {
			t.Fatalf("%+v: patched index refused at Open: %v", d, err)
		}
		if n, _ := src.TotalInsts(); n != tr.Insts+d.insts {
			t.Fatalf("%+v: TotalInsts = %d, want the patched %d", d, n, tr.Insts+d.insts)
		}
		for range Blocks(src) {
		}
		if err := src.Close(); err == nil || !strings.Contains(err.Error(), "index") {
			t.Fatalf("%+v: footer/index mismatch not reported: %v", d, err)
		}
	}
}

// patchIndexTotals returns a written trace whose chunk index claims
// dInsts more instructions and dBlocks more blocks than its footer,
// otherwise intact.
func patchIndexTotals(t testing.TB, data []byte, dInsts, dBlocks uint64) []byte {
	t.Helper()
	stream := stripIndex(t, data)
	sec := bytes.NewReader(data[len(stream) : len(data)-16])
	insts, err := binary.ReadUvarint(sec)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := binary.ReadUvarint(sec)
	if err != nil {
		t.Fatal(err)
	}
	var patched []byte
	patched = binary.AppendUvarint(patched, insts+dInsts)
	patched = binary.AppendUvarint(patched, blocks+dBlocks)
	patched = append(patched, data[len(data)-16-sec.Len():len(data)-16]...)
	out := append(bytes.Clone(stream), patched...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(patched)))
	return append(out, indexMagic...)
}

// TestIntervalTiling: for any shard count, the measured windows of
// consecutive intervals cover the trace exactly once, warmup lead-ins
// re-deliver blocks from the preceding interval, and the per-interval
// accounting sums to the trace totals.
func TestIntervalTiling(t *testing.T) {
	prog, tr := skipTrace(t)
	total := tr.Insts
	// Both warmup edges snap to whole blocks, so the lead-in may overshoot
	// the requested warmup by strictly less than one block.
	maxBlock := uint64(0)
	for _, b := range prog.Blocks {
		if n := uint64(b.NInsts); n > maxBlock {
			maxBlock = n
		}
	}
	for _, shards := range []int{1, 2, 3, 4, 7} {
		for _, warmup := range []uint64{0, 10_000} {
			var merged []cfg.BlockID
			var measured uint64
			for i := 0; i < shards; i++ {
				start := total * uint64(i) / uint64(shards)
				end := total * uint64(i+1) / uint64(shards)
				if i == shards-1 {
					end = 0
				}
				src := tr.Source()
				iv, err := NewInterval(src, 0, prog, IntervalConfig{
					Start: start, End: end, Warmup: warmup,
				})
				if err != nil {
					t.Fatal(err)
				}
				if warmup == 0 && iv.WarmupPending() && start == 0 {
					t.Fatalf("shards=%d: interval 0 claims pending warmup without any", shards)
				}
				warmSeen := uint64(0)
				// A batch never spans a region, so LastRegion classifies
				// every block Blocks yields from it.
				for id := range Blocks(iv) {
					switch iv.LastRegion() {
					case RegionWarm:
						warmSeen += uint64(prog.Blocks[id].NInsts)
						if warmSeen >= warmup+maxBlock {
							t.Fatalf("shards=%d interval %d: warm lead-in %d exceeds warmup %d + block slack %d",
								shards, i, warmSeen, warmup, maxBlock)
						}
					default:
						merged = append(merged, id)
					}
				}
				if iv.WarmupInsts() != warmSeen {
					t.Fatalf("WarmupInsts = %d, saw %d", iv.WarmupInsts(), warmSeen)
				}
				measured += iv.MeasuredInsts()
				if err := iv.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if measured != total {
				t.Fatalf("shards=%d warmup=%d: measured %d insts, want %d",
					shards, warmup, measured, total)
			}
			if len(merged) != len(tr.Blocks) {
				t.Fatalf("shards=%d warmup=%d: merged %d blocks, want %d",
					shards, warmup, len(merged), len(tr.Blocks))
			}
			for j := range merged {
				if merged[j] != tr.Blocks[j] {
					t.Fatalf("shards=%d warmup=%d: block %d = %d, want %d",
						shards, warmup, j, merged[j], tr.Blocks[j])
				}
			}
		}
	}
}

// TestIntervalOverGenSource: intervals tile a generated (never
// materialized) source identically to the materialized reference.
func TestIntervalOverGenSource(t *testing.T) {
	prog, tr := skipTrace(t)
	gc := GenConfig{Seed: 11, MaxInsts: 120_000}
	total := gc.MaxInsts // partition basis: the budget, not the exact total
	const shards = 4
	var merged []cfg.BlockID
	for i := 0; i < shards; i++ {
		start := total * uint64(i) / uint64(shards)
		end := total * uint64(i+1) / uint64(shards)
		if i == shards-1 {
			end = 0 // the crossing block may overshoot the budget
		}
		iv, err := NewInterval(NewGenSource(prog, gc), 0, prog,
			IntervalConfig{Start: start, End: end, Warmup: 5_000})
		if err != nil {
			t.Fatal(err)
		}
		for id := range Blocks(iv) {
			if iv.LastRegion() != RegionWarm {
				merged = append(merged, id)
			}
		}
		if err := iv.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if len(merged) != len(tr.Blocks) {
		t.Fatalf("merged %d blocks, want %d", len(merged), len(tr.Blocks))
	}
	for j := range merged {
		if merged[j] != tr.Blocks[j] {
			t.Fatalf("block %d = %d, want %d", j, merged[j], tr.Blocks[j])
		}
	}
}
