package cache

import "streamfetch/internal/ckpt/wire"

// Warm-state serialization for checkpoints. Only behavioral state is
// captured: tags, LRU stamps (a way is valid when its stamp is nonzero)
// and the LRU clock. Statistics counters are deliberately excluded — a
// restored run starts with zeroed stats and the warm-region
// snapshot/delta in the simulator cancels the baseline exactly as it does
// for a functionally warmed run.

// StateLen returns the length of the state AppendState would append:
// fixed by the geometry.
func (c *Cache) StateLen() int { return 24 + 16*len(c.ways) }

// AppendState appends the cache's behavioral state to dst.
func (c *Cache) AppendState(dst []byte) []byte {
	dst = wire.AppendU64(dst, c.clock)
	dst = wire.AppendU64(dst, uint64(len(c.ways)/c.nways))
	dst = wire.AppendU64(dst, uint64(c.nways))
	for _, w := range c.ways {
		dst = wire.AppendU64(dst, w.tag)
		dst = wire.AppendU64(dst, w.stamp)
	}
	return dst
}

// LoadState restores state appended by AppendState into a cache of
// identical geometry. On a geometry mismatch, a decode error or a stamp
// the restored clock has not reached, the cache is left unmodified and an
// error is returned; statistics are never touched.
func (c *Cache) LoadState(r *wire.Reader) error {
	clock := r.U64()
	nsets := r.U64()
	nways := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if nsets != uint64(len(c.ways)/c.nways) || nways != uint64(c.nways) {
		return wire.ErrMalformed
	}
	// Decode into scratch first so a truncated or inconsistent payload
	// cannot leave the cache half-restored.
	scratch := make([]way, len(c.ways))
	for i := range scratch {
		scratch[i].tag = r.U64()
		scratch[i].stamp = r.U64()
		if scratch[i].stamp > clock {
			return wire.ErrMalformed
		}
	}
	if err := r.Err(); err != nil {
		return err
	}
	c.clock = clock
	copy(c.ways, scratch)
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
