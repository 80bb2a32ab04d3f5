package cache

import (
	"math/bits"

	"streamfetch/internal/ckpt/wire"
)

// Warm-state serialization for checkpoints. Only behavioral state is
// captured: tags, LRU stamps (a way is valid when its stamp is nonzero)
// and the LRU clock. Statistics counters are deliberately excluded — a
// restored run starts with zeroed stats and the warm-region
// snapshot/delta in the simulator cancels the baseline exactly as it does
// for a functionally warmed run.
//
// The encoding is the clock and the geometry, then per way two varints:
// its tag above the set-index bits, which the way's position implies, and
// its LRU distance clock − stamp, small for the recently used lines. An
// invalid way (stamp 0, tag 0) is the tag 0 at distance clock.

// setBits is the number of set-index bits a tag carries.
func (c *Cache) setBits() uint { return uint(bits.Len64(c.setMask)) }

// wayFields returns the two encoded fields of way w.
func (c *Cache) wayFields(w way) (tag, dist uint64) {
	return w.tag >> c.setBits(), c.clock - w.stamp
}

// StateLen returns the length of the state AppendState would append.
func (c *Cache) StateLen() int {
	n := wire.SizeU64(c.clock) + wire.SizeU64(uint64(len(c.ways)/c.nways)) + wire.SizeU64(uint64(c.nways))
	for _, w := range c.ways {
		tag, dist := c.wayFields(w)
		n += wire.SizeU64(tag) + wire.SizeU64(dist)
	}
	return n
}

// AppendState appends the cache's behavioral state to dst.
func (c *Cache) AppendState(dst []byte) []byte {
	dst = wire.AppendU64(dst, c.clock)
	dst = wire.AppendU64(dst, uint64(len(c.ways)/c.nways))
	dst = wire.AppendU64(dst, uint64(c.nways))
	for _, w := range c.ways {
		tag, dist := c.wayFields(w)
		dst = wire.AppendU64(dst, tag)
		dst = wire.AppendU64(dst, dist)
	}
	return dst
}

// LoadState restores state appended by AppendState into a cache of
// identical geometry. On a geometry mismatch, a decode error, a distance
// past the restored clock (a stamp it has not reached), a tag on an
// invalid way or a tag too wide for its set bits, the cache is left
// unmodified and an error is returned; statistics are never touched.
func (c *Cache) LoadState(r *wire.Reader) error { return r.TwoPass(c.decodeState) }

// decodeState reads a cache's state, storing it only when apply is set.
func (c *Cache) decodeState(r *wire.Reader, apply bool) error {
	clock := r.U64()
	nsets := r.U64()
	nways := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if nsets != uint64(len(c.ways)/c.nways) || nways != uint64(c.nways) {
		return wire.ErrMalformed
	}
	setBits := c.setBits()
	for s := range nsets {
		set := c.ways[s*nways : (s+1)*nways]
		for i := range set {
			tag, dist := r.U64(), r.U64()
			if dist > clock || tag>>(64-setBits) != 0 {
				return wire.ErrMalformed
			}
			w := way{stamp: clock - dist}
			if w.stamp == 0 {
				if tag != 0 {
					return wire.ErrMalformed
				}
			} else {
				w.tag = tag<<setBits | s
			}
			if apply {
				set[i] = w
			}
		}
	}
	if err := r.Err(); err != nil {
		return err
	}
	if apply {
		c.clock = clock
	}
	return nil
}

// StateLen returns the length of the state AppendState would append.
func (h *Hierarchy) StateLen() int {
	return h.ICache.StateLen() + h.DCache.StateLen() + h.L2.StateLen()
}

// AppendState appends all three caches of the hierarchy.
func (h *Hierarchy) AppendState(dst []byte) []byte {
	dst = h.ICache.AppendState(dst)
	dst = h.DCache.AppendState(dst)
	return h.L2.AppendState(dst)
}

// LoadState restores all three caches of the hierarchy.
func (h *Hierarchy) LoadState(r *wire.Reader) error {
	if err := h.ICache.LoadState(r); err != nil {
		return err
	}
	if err := h.DCache.LoadState(r); err != nil {
		return err
	}
	return h.L2.LoadState(r)
}
