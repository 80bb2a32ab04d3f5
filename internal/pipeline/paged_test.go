package pipeline

import (
	"bytes"
	"math/rand/v2"
	"sort"
	"testing"

	"streamfetch/internal/ckpt/wire"
	"streamfetch/internal/isa"
)

// denseGen is the reference the paged LoadAddrGen must match: one counter
// per code slot in a flat array, the overflow map for PCs outside the
// segment, and the same address formula and state encoding.
type denseGen struct {
	workingSet uint64
	codeBase   isa.Addr
	counts     []uint64
	overflow   map[isa.Addr]uint64
}

func newDenseGen(workingSet int, codeBase isa.Addr, codeSlots int) *denseGen {
	return &denseGen{
		workingSet: max(uint64(workingSet), 1<<15),
		codeBase:   codeBase,
		counts:     make([]uint64, codeSlots),
		overflow:   map[isa.Addr]uint64{},
	}
}

func (g *denseGen) next(pc isa.Addr) uint64 {
	var n uint64
	if s := uint64(pc-g.codeBase) / isa.InstBytes; pc >= g.codeBase && s < uint64(len(g.counts)) {
		n = g.counts[s]
		g.counts[s] = n + 1
	} else {
		n = g.overflow[pc]
		g.overflow[pc] = n + 1
	}
	h := mix64(uint64(pc))
	if n%32 == 31 {
		return DataBase + (mix64(h^(n*0x9e3779b9))%g.workingSet)&^7
	}
	const region = 4096
	return DataBase + (h%(g.workingSet-region))&^63 + (n*8)%region
}

func (g *denseGen) appendState(dst []byte) []byte {
	dst = wire.AppendU64(dst, uint64(len(g.counts)))
	var pairs []uint64
	for s, c := range g.counts {
		if c != 0 {
			pairs = append(pairs, uint64(s), c)
		}
	}
	dst = wire.AppendU64(dst, uint64(len(pairs)/2))
	for _, v := range pairs {
		dst = wire.AppendU64(dst, v)
	}
	keys := make([]isa.Addr, 0, len(g.overflow))
	for k := range g.overflow {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	dst = wire.AppendU64(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = wire.AppendU64(dst, uint64(k))
		dst = wire.AppendU64(dst, g.overflow[k])
	}
	return dst
}

// entries counts the pairs appendState writes.
func (g *denseGen) entries() int {
	n := len(g.overflow)
	for _, c := range g.counts {
		if c != 0 {
			n++
		}
	}
	return n
}

// randomPC draws a PC for a segment of slots slots at base: mostly a hot
// set of slots (so counters repeat and pages fill unevenly), sometimes any
// slot, and sometimes a PC before or past the segment.
func randomPC(rng *rand.Rand, base isa.Addr, slots int, hot []int) isa.Addr {
	switch r := rng.IntN(20); {
	case r == 0:
		return base - isa.Addr(1+rng.IntN(64))*isa.InstBytes
	case r == 1:
		return base + isa.Addr(slots+rng.IntN(64))*isa.InstBytes
	case r < 5 && slots > 0:
		return base + isa.Addr(rng.IntN(slots))*isa.InstBytes
	case slots > 0:
		return base + isa.Addr(hot[rng.IntN(len(hot))])*isa.InstBytes
	}
	return base + isa.Addr(rng.IntN(8))*isa.InstBytes
}

// TestLoadAddrGenPagedMatchesDense: over random PC streams, for segments
// of no slots, part of a page, page edges, and more pages than the slab
// holds, the paged generator returns the dense reference's addresses and
// encodes to its bytes, StateLen of them; its state restores into a fresh generator that
// then continues identically; and a corrupted or truncated encoding
// either restores or leaves the generator as it was.
func TestLoadAddrGenPagedMatchesDense(t *testing.T) {
	const base, ws = 0x40_0000, 1 << 20
	for _, slots := range []int{0, 1, 300, genPageSlots, genPageSlots + 1, 40 * genPageSlots} {
		rng := rand.New(rand.NewPCG(uint64(slots), 7))
		hot := make([]int, 64)
		for i := range hot {
			hot[i] = rng.IntN(max(slots, 1))
		}
		g, ref := NewLoadAddrGen(ws, base, slots), newDenseGen(ws, base, slots)
		for step := 0; step < 40_000; step++ {
			pc := randomPC(rng, base, slots, hot)
			if got, want := g.Next(pc), ref.next(pc); got != want {
				t.Fatalf("%d slots, step %d, pc %#x: address %#x, dense %#x", slots, step, pc, got, want)
			}
			if step%10_000 != 9_999 {
				continue
			}
			enc := g.AppendState(nil)
			if !bytes.Equal(enc, ref.appendState(nil)) {
				t.Fatalf("%d slots, step %d: state differs from the dense encoding", slots, step)
			}
			if g.StateLen() != len(enc) || g.StateEntries() != ref.entries() {
				t.Fatalf("%d slots: StateLen %d, StateEntries %d for a %d-byte state of %d pairs",
					slots, g.StateLen(), g.StateEntries(), len(enc), ref.entries())
			}
			restored := NewLoadAddrGen(ws, base, slots)
			if err := restored.LoadState(wire.NewReader(enc)); err != nil {
				t.Fatalf("%d slots: restoring: %v", slots, err)
			}
			if !bytes.Equal(restored.AppendState(nil), enc) {
				t.Fatalf("%d slots: restored state encodes differently", slots)
			}
			for i := 0; i < 2_000; i++ {
				pc := randomPC(rng, base, slots, hot)
				if a, b := restored.Next(pc), g.Next(pc); a != b {
					t.Fatalf("%d slots: restored generator gives %#x at %#x, original %#x", slots, a, pc, b)
				}
				ref.next(pc)
			}
			for i := 0; i < 200; i++ {
				bad := append([]byte(nil), enc...)
				if i%4 == 0 {
					bad = bad[:rng.IntN(len(bad))]
				} else {
					bad[rng.IntN(len(bad))] ^= byte(1 + rng.IntN(255))
				}
				before := g.AppendState(nil)
				if err := g.LoadState(wire.NewReader(bad)); err != nil {
					if !bytes.Equal(g.AppendState(nil), before) {
						t.Fatalf("%d slots: rejected state %d modified the generator", slots, i)
					}
					continue
				}
				// A corruption that still decodes: restore the true state.
				if err := g.LoadState(wire.NewReader(before)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}
