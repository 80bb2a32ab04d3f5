package trace

import (
	"math/rand/v2"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"testing"

	"streamfetch/internal/cfg"
)

// forkingSources returns, per backing that forks (generator, slice,
// indexed file, index-less file), a constructor of fresh program-bound
// sources over skipTrace's sequence.
func forkingSources(t *testing.T, prog *cfg.Program, tr *Trace) map[string]func() Source {
	t.Helper()
	indexed := writeIndexed(t, prog, tr)
	plain := filepath.Join(t.TempDir(), "plain.trc")
	f, err := os.Create(plain)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	file := func(path string) func() Source {
		return func() Source {
			src, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			src.Bind(prog)
			return src
		}
	}
	return map[string]func() Source{
		"gen": func() Source { return NewGenSource(prog, GenConfig{Seed: 11, MaxInsts: 120_000}) },
		"slice": func() Source {
			src := tr.Source()
			src.Bind(prog)
			return src
		},
		"indexed":   file(indexed),
		"unindexed": file(plain),
	}
}

// readBlocks pulls up to n blocks (all of them for n < 0) from src in
// batches of 64.
func readBlocks(src Source, n int) []cfg.BlockID {
	var out []cfg.BlockID
	buf := make([]cfg.BlockID, 64)
	for n < 0 || len(out) < n {
		k := len(buf)
		if n >= 0 {
			k = min(k, n-len(out))
		}
		got := src.NextBatch(buf[:k])
		if got == 0 {
			break
		}
		out = append(out, buf[:got]...)
	}
	return out
}

// forkPositions picks ascending cursor positions over tr: the head,
// block-aligned and mid-block offsets, the exact end, past the end, and
// repeats.
func forkPositions(prog *cfg.Program, tr *Trace, rng *rand.Rand) []uint64 {
	starts := make([]uint64, len(tr.Blocks)) // starts[i]: insts before block i
	var pos uint64
	for i, id := range tr.Blocks {
		starts[i] = pos
		pos += uint64(prog.Blocks[id].NInsts)
	}
	at := []uint64{0, tr.Insts, tr.Insts + 500}
	for i := 0; i < 8; i++ {
		j := rng.IntN(len(tr.Blocks))
		at = append(at, starts[j])
		if n := uint64(prog.Blocks[tr.Blocks[j]].NInsts); n > 1 {
			at = append(at, starts[j]+1+uint64(rng.IntN(int(n-1))))
		}
	}
	slices.Sort(at)
	for i := 0; i < 4; i++ {
		at = append(at, at[rng.IntN(len(at))])
	}
	slices.Sort(at)
	return at
}

// TestForkMatchesSkip: a cursor walked over ascending positions hands out
// forks that report exactly the instructions, and deliver exactly the
// blocks, of a fresh source skipped to the same position, for every
// forking source. Forks are taken in random order and partly read before
// the cursor moves on, then drained in another order, so reading a fork
// must move neither the cursor nor any other fork.
func TestForkMatchesSkip(t *testing.T) {
	prog, tr := skipTrace(t)
	for seed := uint64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		at := forkPositions(prog, tr, rng)
		for name, fresh := range forkingSources(t, prog, tr) {
			cur, err := NewCursor(fresh(), prog, at)
			if err != nil {
				t.Fatal(err)
			}
			forks := make([]Source, len(at))
			read := make([][]cfg.BlockID, len(at))
			for _, i := range rng.Perm(len(at)) {
				src, skipped, err := cur.Fork(i)
				if err != nil {
					t.Fatalf("%s: Fork(%d) at %d: %v", name, i, at[i], err)
				}
				ref := fresh()
				want, err := ref.Skip(at[i])
				ref.Close()
				if err != nil {
					t.Fatal(err)
				}
				if skipped != want {
					t.Fatalf("%s seed %d: fork at %d skipped %d, a fresh Skip %d", name, seed, at[i], skipped, want)
				}
				forks[i], read[i] = src, readBlocks(src, rng.IntN(50))
			}
			if _, _, err := cur.Fork(0); err == nil {
				t.Fatalf("%s: a position was taken twice", name)
			}
			for _, i := range rng.Perm(len(at)) {
				got := append(read[i], readBlocks(forks[i], -1)...)
				ref := fresh()
				if _, err := ref.Skip(at[i]); err != nil {
					t.Fatal(err)
				}
				want := readBlocks(ref, -1)
				if err := ref.Close(); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s seed %d: fork at %d delivered %d blocks, a fresh Skip %d (or different ones)",
						name, seed, at[i], len(got), len(want))
				}
				if err := forks[i].Close(); err != nil {
					t.Fatalf("%s: closing fork at %d: %v", name, at[i], err)
				}
			}
			if err := cur.Close(); err != nil {
				t.Fatalf("%s: closing cursor: %v", name, err)
			}
		}
	}
}

// TestCursorNeedsForker: a source that cannot fork, or positions that do
// not ascend, make no cursor; a plain reader is a FileSource without a
// path, and refuses to fork.
func TestCursorNeedsForker(t *testing.T) {
	prog, tr := skipTrace(t)
	iv, err := NewInterval(tr.Source(), 0, prog, IntervalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCursor(iv, prog, []uint64{0}); err == nil {
		t.Error("a cursor over an interval source was made")
	}
	if _, err := NewCursor(tr.Source(), prog, []uint64{10, 5}); err == nil {
		t.Error("a cursor over descending positions was made")
	}
	plain := sources(t, prog, tr)["plain"]
	cur, err := NewCursor(plain, prog, []uint64{100, 200})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if _, _, err := cur.Fork(0); err == nil {
		t.Error("a reader without a path forked")
	}
}

// TestCursorForeignBlock: a cursor skipping over a block the program does
// not have fails naming the block, for the position it could not reach
// and every later one, while positions it reached still fork.
func TestCursorForeignBlock(t *testing.T) {
	prog, tr := skipTrace(t)
	blocks := slices.Clone(tr.Blocks)
	foreign := cfg.BlockID(len(prog.Blocks) + 7)
	blocks[len(blocks)/2] = foreign
	named := regexp.MustCompile(`block (\d+) outside the bound program \((\d+) blocks\)`)
	cur, err := NewCursor(NewSliceSource(tr.Name, blocks, tr.Insts), prog, []uint64{100, tr.Insts - 100, tr.Insts})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for _, i := range []int{2, 1} {
		_, _, err := cur.Fork(i)
		if err == nil {
			t.Fatalf("Fork(%d) skipped over block %d", i, foreign)
		}
		if m := named.FindStringSubmatch(err.Error()); m == nil || m[1] != strconv.Itoa(int(foreign)) {
			t.Fatalf("Fork(%d) = %v, want an error naming block %d", i, err, foreign)
		}
	}
	src, at, err := cur.Fork(0)
	if err != nil {
		t.Fatalf("Fork(0) before the foreign block: %v", err)
	}
	defer src.Close()
	if at > 100 {
		t.Fatalf("Fork(0) stands at %d, past 100", at)
	}
}

// TestGeneratorClone: a clone emits exactly what its original emits next,
// and advancing one never moves the other.
func TestGeneratorClone(t *testing.T) {
	prog := genProg(t, "176.gcc")
	g := NewGenerator(prog, 5, nil)
	walk := func(g *Generator, n int) []cfg.BlockID {
		out := make([]cfg.BlockID, 0, n)
		for len(out) < n {
			id, ok := g.Next()
			if !ok {
				break
			}
			out = append(out, id)
		}
		return out
	}
	walk(g, 20_000)
	c := g.Clone()
	ahead := walk(c, 30_000)    // the clone runs ahead first
	second := c.Clone()         // a clone of the clone, mid-walk
	original := walk(g, 30_000) // then the original, from where it stood
	if !slices.Equal(ahead, original) {
		t.Fatal("the clone and its original diverge")
	}
	if c.Insts() != g.Insts() {
		t.Fatalf("clone at %d insts, original at %d", c.Insts(), g.Insts())
	}
	if a, b := walk(second, 10_000), walk(c, 10_000); !slices.Equal(a, b) {
		t.Fatal("a clone of a clone diverges")
	}
}
