package sim

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"streamfetch/internal/cfg"
	"streamfetch/internal/frontend"
	"streamfetch/internal/isa"
)

// commitHasher folds one committed instruction's architectural identity
// (Addr, Branch, Taken, Target) into h.
func commitHasher(h hash.Hash64) func(addr isa.Addr, br isa.BranchType, taken bool, target isa.Addr) {
	var buf [18]byte
	return func(addr isa.Addr, br isa.BranchType, taken bool, target isa.Addr) {
		binary.LittleEndian.PutUint64(buf[0:], uint64(addr))
		buf[8] = byte(br)
		buf[9] = 0
		if taken {
			buf[9] = 1
		}
		binary.LittleEndian.PutUint64(buf[10:], uint64(target))
		h.Write(buf[:])
	}
}

// TestCommitStreamInvariant: whatever the engine and width, a completed run
// commits exactly the architectural instruction stream — the trace expanded
// under the layout, in order, each instruction once. Summary counters can
// hide a window bug that reorders or drops a commit; an FNV-64 hash of the
// OnCommit sequence cannot.
func TestCommitStreamInvariant(t *testing.T) {
	for _, name := range []string{"164.gzip", "176.gcc"} {
		b := loadBench(t, name, 100_000)

		want := fnv.New64a()
		add := commitHasher(want)
		dyn := b.opt.AppendDynRun(nil, b.tr.Blocks, cfg.NoBlock)
		for _, di := range dyn {
			target := isa.Addr(0)
			if di.Taken {
				target = di.NextAddr
			}
			add(di.Addr, di.Branch, di.Taken, target)
		}

		for _, width := range []int{4, 8} {
			for _, eng := range paperEngines() {
				t.Run(fmt.Sprintf("%s/w%d/%s", name, width, eng), func(t *testing.T) {
					got := fnv.New64a()
					add := commitHasher(got)
					var commits uint64
					r := Run(b.opt, b.tr.Source(), Config{
						Width:  width,
						Engine: eng,
						OnCommit: func(c frontend.Committed) {
							commits++
							add(c.Addr, c.Branch, c.Taken, c.Target)
						},
					})
					if r.Retired != uint64(len(dyn)) || commits != r.Retired {
						t.Fatalf("retired %d (%d commits), trace holds %d instructions",
							r.Retired, commits, len(dyn))
					}
					if got.Sum64() != want.Sum64() {
						t.Fatalf("commit stream hash %x, architectural stream %x", got.Sum64(), want.Sum64())
					}
				})
			}
		}
	}
}
