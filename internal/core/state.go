package core

import (
	"streamfetch/internal/bpred"
	"streamfetch/internal/ckpt/wire"
	"streamfetch/internal/isa"
)

// Warm-state serialization for checkpoints: stream table contents, path
// histories and the in-flight stream builder. Lookup/hit statistics are
// excluded.

func (t *streamTable) appendState(dst []byte) []byte {
	dst = wire.AppendU64(dst, t.clock)
	dst = wire.AppendU64(dst, uint64(len(t.sets)))
	if len(t.sets) > 0 {
		dst = wire.AppendU64(dst, uint64(len(t.sets[0])))
	} else {
		dst = wire.AppendU64(dst, 0)
	}
	for _, set := range t.sets {
		for _, e := range set {
			dst = wire.AppendBool(dst, e.valid)
			dst = wire.AppendU64(dst, e.tag)
			dst = wire.AppendByte(dst, e.len)
			dst = wire.AppendByte(dst, byte(e.typ))
			dst = wire.AppendU64(dst, uint64(e.next))
			dst = wire.AppendByte(dst, byte(e.ctr))
			dst = wire.AppendU64(dst, e.stamp)
		}
	}
	return dst
}

// loadState restores a table of identical geometry; it is unmodified on
// error.
func (t *streamTable) loadState(r *wire.Reader) error { return r.TwoPass(t.decodeState) }

// decodeState reads a table's state, storing it only when apply is set.
func (t *streamTable) decodeState(r *wire.Reader, apply bool) error {
	clock := r.U64()
	nsets := r.U64()
	nways := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	wantWays := 0
	if len(t.sets) > 0 {
		wantWays = len(t.sets[0])
	}
	if nsets != uint64(len(t.sets)) || nways != uint64(wantWays) {
		return wire.ErrMalformed
	}
	for _, set := range t.sets {
		for i := range set {
			e := streamEntry{
				valid: r.Bool(),
				tag:   r.U64(),
				len:   r.Byte(),
				typ:   isa.BranchType(r.Byte()),
				next:  isa.Addr(r.U64()),
				ctr:   bpred.TwoBit(r.Byte()),
				stamp: r.U64(),
			}
			if err := r.Err(); err != nil {
				return err
			}
			// A stream of no instructions would hold fetch in place
			// forever; Update never stores one, nor a next address that
			// is not an instruction address, nor a counter out of its
			// two bits.
			if e.ctr > 3 || e.valid && (e.len < 1 || e.len > MaxStreamLen || !e.next.Valid()) {
				return wire.ErrMalformed
			}
			if apply {
				set[i] = e
			}
		}
	}
	if err := r.Err(); err != nil {
		return err
	}
	if apply {
		t.clock = clock
	}
	return nil
}

// AppendState appends both stream tables and both path histories.
func (p *Predictor) AppendState(dst []byte) []byte {
	dst = p.t1.appendState(dst)
	dst = p.t2.appendState(dst)
	dst = p.SpecPath.AppendState(dst)
	return p.RetPath.AppendState(dst)
}

// LoadState restores a predictor of identical geometry; stats untouched.
func (p *Predictor) LoadState(r *wire.Reader) error {
	if err := p.t1.loadState(r); err != nil {
		return err
	}
	if err := p.t2.loadState(r); err != nil {
		return err
	}
	if err := p.SpecPath.LoadState(r); err != nil {
		return err
	}
	return p.RetPath.LoadState(r)
}

// AppendState appends the builder's in-flight stream tracking.
func (b *Builder) AppendState(dst []byte) []byte {
	dst = wire.AppendU64(dst, uint64(b.start))
	dst = wire.AppendU64(dst, uint64(b.len))
	dst = wire.AppendBool(dst, b.started)
	dst = wire.AppendBool(dst, b.mispredictedStream)
	dst = wire.AppendU64(dst, uint64(b.partialStart))
	dst = wire.AppendU64(dst, uint64(b.partialLen))
	return wire.AppendBool(dst, b.hasPartial)
}

// LoadState restores the builder; it is unmodified on error.
func (b *Builder) LoadState(r *wire.Reader) error {
	var nb Builder
	nb.start = isa.Addr(r.U64())
	nb.len = int(r.U64())
	nb.started = r.Bool()
	nb.mispredictedStream = r.Bool()
	nb.partialStart = isa.Addr(r.U64())
	nb.partialLen = int(r.U64())
	nb.hasPartial = r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	// Commit never leaves a negative length, a partial stream longer
	// than its enclosing one, or a misaligned start.
	if nb.len < 0 || nb.partialLen < 0 || nb.partialLen > nb.len ||
		!nb.start.Valid() || !nb.partialStart.Valid() {
		return wire.ErrMalformed
	}
	*b = nb
	return nil
}
