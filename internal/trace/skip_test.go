package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
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
// sequence, one per backing (generator, slice, plain reader, indexed
// file).
func sources(t *testing.T, prog *cfg.Program, tr *Trace) map[string]Source {
	t.Helper()

	var v2 bytes.Buffer
	if err := tr.Write(&v2); err != nil {
		t.Fatal(err)
	}
	plain, err := NewReader(bytes.NewReader(v2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	plain.Bind(prog)

	indexed := openIndexed(t, prog, tr)
	if !indexed.Seekable() {
		t.Fatal("indexed file source is not seekable")
	}

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
	path := filepath.Join(t.TempDir(), "t.trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(f, tr.Name)
	if err != nil {
		t.Fatal(err)
	}
	w.BindProgram(prog)
	for _, id := range tr.Blocks {
		if err := w.Append(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(tr.Insts); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
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
	_, tr := skipTrace(t)
	if _, err := tr.Source().Skip(10); err == nil {
		t.Error("SliceSource.Skip without Bind succeeded")
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
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

// TestIndexRoundTrip: an index-bound writer produces a file whose index
// reports the exact totals up front, while index-less writes and legacy
// files stay non-seekable but fully readable.
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

	// The same bytes through a plain reader (no seeking) still replay.
	path := filepath.Join(t.TempDir(), "plain.trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	unindexed, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer unindexed.Close()
	if unindexed.Seekable() {
		t.Error("index-less file claims to be seekable")
	}
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
