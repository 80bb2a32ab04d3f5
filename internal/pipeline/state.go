package pipeline

import (
	"sort"

	"streamfetch/internal/ckpt/wire"
	"streamfetch/internal/isa"
)

// Warm-state serialization for the deterministic load address generator.
// The per-PC occurrence counts are the whole of its behavioral state: a
// restored generator replays the exact address sequence a functionally
// warmed one would continue with.
//
// The encoding is sparse, because a run executes few of its code slots
// (4M instructions of 176.gcc reach 812 memory instructions of its
// 281,640 slots): the slot count, then the
// non-zero counters as (slot, count) pairs in ascending slot order, then
// the overflow entries as (pc, count) pairs in ascending pc order, each
// pair list prefixed by its length, every number a varint. A pair takes
// two bytes at least; 176.gcc's 812 executed slots take 2.9 KB.

// nonZero counts the generator's non-zero counters and the bytes their
// pairs encode to. Counters live in pages, and a page that never
// executed holds none.
func (g *LoadAddrGen) nonZero() (nz, size int) {
	for i, p := range g.pages {
		if p != nil {
			for j, c := range p {
				if c != 0 {
					nz++
					size += wire.SizeU64(uint64(i*genPageSlots+j)) + wire.SizeU64(c)
				}
			}
		}
	}
	return nz, size
}

// StateLen returns the length of the state AppendState would append.
func (g *LoadAddrGen) StateLen() int {
	nz, n := g.nonZero()
	n += wire.SizeU64(g.slots) + wire.SizeU64(uint64(nz)) + wire.SizeU64(uint64(len(g.overflow)))
	for pc, c := range g.overflow {
		n += wire.SizeU64(uint64(pc)) + wire.SizeU64(c)
	}
	return n
}

// AppendState appends the generator's state to dst. Equal states encode
// to equal bytes.
func (g *LoadAddrGen) AppendState(dst []byte) []byte {
	nz, _ := g.nonZero()
	dst = wire.AppendU64(dst, g.slots)
	dst = wire.AppendU64(dst, uint64(nz))
	for i, p := range g.pages {
		if p == nil {
			continue
		}
		for j, c := range p {
			if c != 0 {
				dst = wire.AppendU64(dst, uint64(i*genPageSlots+j))
				dst = wire.AppendU64(dst, c)
			}
		}
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

// countPair is one decoded (slot or pc, count) pair.
type countPair struct{ key, count uint64 }

// readPairs decodes a length-prefixed pair list of at most max pairs whose
// keys ascend strictly up to maxKey and whose counts are non-zero: the
// only lists AppendState writes. Anything else is wire.ErrMalformed.
func readPairs(r *wire.Reader, max int, maxKey uint64) ([]countPair, error) {
	n := r.Count(max, 2)
	pairs := make([]countPair, n)
	for i := range pairs {
		p := countPair{r.U64(), r.U64()}
		if err := r.Err(); err != nil {
			return nil, err
		}
		if p.key > maxKey || p.count == 0 || (i > 0 && p.key <= pairs[i-1].key) {
			return nil, wire.ErrMalformed
		}
		pairs[i] = p
	}
	return pairs, r.Err()
}

// LoadState restores state appended by AppendState into a generator built
// for the same layout. The generator is unmodified on error.
func (g *LoadAddrGen) LoadState(r *wire.Reader) error {
	n := r.U64()
	if r.Err() != nil {
		return r.Err()
	}
	if n != g.slots {
		return wire.ErrMalformed
	}
	// With no slots, no pair is allowed and maxKey is never consulted.
	counts, err := readPairs(r, int(g.slots), n-1)
	if err != nil {
		return err
	}
	ov, err := readPairs(r, 1<<24, ^uint64(0))
	if err != nil {
		return err
	}
	for _, p := range g.pages {
		if p != nil {
			clear(p[:])
		}
	}
	for _, p := range counts {
		*g.counter(p.key) = p.count
	}
	g.overflow = nil
	if len(ov) > 0 {
		g.overflow = make(map[isa.Addr]uint64, len(ov))
		for _, p := range ov {
			g.overflow[isa.Addr(p.key)] = p.count
		}
	}
	return nil
}
