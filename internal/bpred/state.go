package bpred

import (
	"math"

	"streamfetch/internal/ckpt/wire"
	"streamfetch/internal/isa"
)

// Warm-state serialization for checkpoints. Behavioral state only:
// prediction tables, history registers and LRU bookkeeping. Lookup/hit
// statistics stay out of the snapshot so restored runs start with clean
// counters.

// appendTwoBits appends a counter table as its length and then four
// counters a byte, the first in the low bits, so a restored counter is
// always in range. The last byte's unused bits are zero.
func appendTwoBits(dst []byte, t []TwoBit) []byte {
	dst = wire.AppendU64(dst, uint64(len(t)))
	for len(t) >= 4 {
		dst = append(dst, byte(t[0]&3|t[1]&3<<2|t[2]&3<<4|t[3]&3<<6))
		t = t[4:]
	}
	if len(t) > 0 {
		var b byte
		for j, v := range t {
			b |= byte(v&3) << (2 * j)
		}
		dst = append(dst, b)
	}
	return dst
}

// loadTwoBits restores a counter table of identical size; t is unmodified
// on error.
func loadTwoBits(r *wire.Reader, t []TwoBit) error {
	return r.TwoPass(func(r *wire.Reader, apply bool) error { return decodeTwoBits(r, t, apply) })
}

// decodeTwoBits reads a counter table, storing it only when apply is set.
// Set bits past the table's last counter are malformed.
func decodeTwoBits(r *wire.Reader, t []TwoBit, apply bool) error {
	n := r.U64()
	if r.Err() != nil {
		return r.Err()
	}
	if n != uint64(len(t)) {
		return wire.ErrMalformed
	}
	for i := 0; i < len(t); i += 4 {
		b := r.Byte()
		k := min(4, len(t)-i)
		if b>>(2*k) != 0 {
			return wire.ErrMalformed
		}
		if apply {
			for j := range k {
				t[i+j] = TwoBit(b >> (2 * j) & 3)
			}
		}
	}
	return r.Err()
}

// AppendState appends the HistPair to dst.
func (h *HistPair) AppendState(dst []byte) []byte {
	dst = wire.AppendU64(dst, h.Spec)
	return wire.AppendU64(dst, h.Ret)
}

// LoadState restores a HistPair.
func (h *HistPair) LoadState(r *wire.Reader) error {
	spec, ret := r.U64(), r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	h.Spec, h.Ret = spec, ret
	return nil
}

// AppendState appends the path history to dst.
func (p *PathHist) AppendState(dst []byte) []byte {
	dst = wire.AppendU64(dst, uint64(len(p.ring)))
	for _, v := range p.ring {
		dst = wire.AppendU64(dst, v)
	}
	return wire.AppendU64(dst, uint64(p.pos))
}

// LoadState restores a path history of identical depth; p is unmodified
// on error.
func (p *PathHist) LoadState(r *wire.Reader) error { return r.TwoPass(p.decodeState) }

// decodeState reads a path history, storing it only when apply is set.
func (p *PathHist) decodeState(r *wire.Reader, apply bool) error {
	n := r.U64()
	if r.Err() != nil {
		return r.Err()
	}
	if n != uint64(len(p.ring)) {
		return wire.ErrMalformed
	}
	for i := range p.ring {
		v := r.U64()
		if apply {
			p.ring[i], p.mix[i] = v, dolcMix(v>>2)
		}
	}
	pos := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if pos >= n && n > 0 {
		return wire.ErrMalformed
	}
	if apply {
		p.pos = int(pos)
	}
	return nil
}

// AppendState appends the return address stack to dst.
func (s *RAS) AppendState(dst []byte) []byte {
	dst = wire.AppendU64(dst, uint64(len(s.entries)))
	for _, a := range s.entries {
		dst = wire.AppendU64(dst, uint64(a))
	}
	return wire.AppendU64(dst, uint64(s.top))
}

// LoadState restores a RAS of identical depth.
func (s *RAS) LoadState(r *wire.Reader) error {
	n := r.U64()
	if r.Err() != nil {
		return r.Err()
	}
	if n != uint64(len(s.entries)) {
		return wire.ErrMalformed
	}
	scratch := make([]isa.Addr, n)
	for i := range scratch {
		if scratch[i] = isa.Addr(r.U64()); !scratch[i].Valid() {
			return wire.ErrMalformed
		}
	}
	top := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if top >= n && n > 0 {
		return wire.ErrMalformed
	}
	copy(s.entries, scratch)
	s.top = int(top)
	return nil
}

// AppendState appends the gskew predictor's tables and histories.
func (g *Gskew) AppendState(dst []byte) []byte {
	dst = appendTwoBits(dst, g.bim)
	dst = appendTwoBits(dst, g.g0)
	dst = appendTwoBits(dst, g.g1)
	dst = appendTwoBits(dst, g.meta)
	return g.Hist.AppendState(dst)
}

// LoadState restores a gskew predictor of identical geometry.
func (g *Gskew) LoadState(r *wire.Reader) error {
	if err := loadTwoBits(r, g.bim); err != nil {
		return err
	}
	if err := loadTwoBits(r, g.g0); err != nil {
		return err
	}
	if err := loadTwoBits(r, g.g1); err != nil {
		return err
	}
	if err := loadTwoBits(r, g.meta); err != nil {
		return err
	}
	return g.Hist.LoadState(r)
}

// AppendState appends the BTB's ways and LRU clock.
func (b *BTB) AppendState(dst []byte) []byte {
	dst = wire.AppendU64(dst, b.clock)
	dst = wire.AppendU64(dst, uint64(len(b.sets)))
	if len(b.sets) > 0 {
		dst = wire.AppendU64(dst, uint64(len(b.sets[0])))
	} else {
		dst = wire.AppendU64(dst, 0)
	}
	for _, set := range b.sets {
		for _, w := range set {
			dst = wire.AppendU64(dst, w.tag)
			dst = wire.AppendBool(dst, w.valid)
			dst = wire.AppendU64(dst, w.stamp)
			dst = wire.AppendU64(dst, uint64(w.e.Target))
			dst = wire.AppendByte(dst, byte(w.e.Type))
			dst = wire.AppendByte(dst, byte(w.e.Ctr))
		}
	}
	return dst
}

// LoadState restores a BTB of identical geometry; stats are untouched.
func (b *BTB) LoadState(r *wire.Reader) error {
	clock := r.U64()
	nsets := r.U64()
	nways := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	wantWays := 0
	if len(b.sets) > 0 {
		wantWays = len(b.sets[0])
	}
	if nsets != uint64(len(b.sets)) || nways != uint64(wantWays) {
		return wire.ErrMalformed
	}
	scratch := make([]btbWay, nsets*nways)
	for i := range scratch {
		scratch[i].tag = r.U64()
		scratch[i].valid = r.Bool()
		scratch[i].stamp = r.U64()
		scratch[i].e.Target = isa.Addr(r.U64())
		scratch[i].e.Type = isa.BranchType(r.Byte())
		scratch[i].e.Ctr = TwoBit(r.Byte())
		if err := r.Err(); err != nil {
			return err
		}
		// Training never stores a target that is not an instruction
		// address, nor a counter out of its two bits.
		if scratch[i].e.Ctr > 3 || scratch[i].valid && !scratch[i].e.Target.Valid() {
			return wire.ErrMalformed
		}
	}
	if err := r.Err(); err != nil {
		return err
	}
	b.clock = clock
	for si := range b.sets {
		copy(b.sets[si], scratch[si*int(nways):(si+1)*int(nways)])
	}
	return nil
}

// AppendState appends the FTB's ways and LRU clock.
func (f *FTB) AppendState(dst []byte) []byte {
	dst = wire.AppendU64(dst, f.clock)
	dst = wire.AppendU64(dst, uint64(len(f.sets)))
	if len(f.sets) > 0 {
		dst = wire.AppendU64(dst, uint64(len(f.sets[0])))
	} else {
		dst = wire.AppendU64(dst, 0)
	}
	for _, set := range f.sets {
		for _, w := range set {
			dst = wire.AppendU64(dst, w.tag)
			dst = wire.AppendBool(dst, w.valid)
			dst = wire.AppendU64(dst, w.stamp)
			dst = wire.AppendU64(dst, uint64(w.e.Len))
			dst = wire.AppendByte(dst, byte(w.e.Type))
			dst = wire.AppendU64(dst, uint64(w.e.Target))
		}
	}
	return dst
}

// LoadState restores an FTB of identical geometry; stats are untouched.
func (f *FTB) LoadState(r *wire.Reader) error {
	clock := r.U64()
	nsets := r.U64()
	nways := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	wantWays := 0
	if len(f.sets) > 0 {
		wantWays = len(f.sets[0])
	}
	if nsets != uint64(len(f.sets)) || nways != uint64(wantWays) {
		return wire.ErrMalformed
	}
	scratch := make([]ftbWay, nsets*nways)
	for i := range scratch {
		scratch[i].tag = r.U64()
		scratch[i].valid = r.Bool()
		scratch[i].stamp = r.U64()
		scratch[i].e.Len = int(r.U64())
		scratch[i].e.Type = isa.BranchType(r.Byte())
		scratch[i].e.Target = isa.Addr(r.U64())
		if err := r.Err(); err != nil {
			return err
		}
		// A valid block of no instructions would hold fetch in place
		// forever; Update never stores one, nor one longer than MaxLen,
		// nor a target that is not an instruction address.
		if e := scratch[i].e; scratch[i].valid && (e.Len < 1 || e.Len > f.MaxLen || !e.Target.Valid()) {
			return wire.ErrMalformed
		}
	}
	if err := r.Err(); err != nil {
		return err
	}
	f.clock = clock
	for si := range f.sets {
		copy(f.sets[si], scratch[si*int(nways):(si+1)*int(nways)])
	}
	return nil
}

// AppendState appends the perceptron weights plus global and local
// histories: the row and column counts, then every row's weights in the
// order weights gives them, each as its 16-bit two's complement.
func (p *Perceptron) AppendState(dst []byte) []byte {
	rows, cols := len(p.bias), p.cols()
	dst = wire.AppendU64(dst, uint64(rows))
	dst = wire.AppendU64(dst, uint64(cols))
	var buf [1 + 64 + 32]int16
	for ri := range rows {
		for _, w := range p.weights(buf[:0], ri) {
			dst = wire.AppendU64(dst, uint64(uint16(w)))
		}
	}
	dst = wire.AppendU64(dst, uint64(len(p.local.table)))
	for _, h := range p.local.table {
		dst = wire.AppendU64(dst, uint64(h))
	}
	return p.Hist.AppendState(dst)
}

// cols is the number of weights of a perceptron: its bias and one per
// history bit.
func (p *Perceptron) cols() int { return 1 + int(p.cfg.GlobalBits+p.cfg.LocalBits) }

// LoadState restores a perceptron predictor of identical geometry.
func (p *Perceptron) LoadState(r *wire.Reader) error {
	rows := r.U64()
	cols := r.U64()
	if r.Err() != nil {
		return r.Err()
	}
	if rows != uint64(len(p.bias)) || cols != uint64(p.cols()) {
		return wire.ErrMalformed
	}
	scratch := make([]int16, rows*cols)
	for i := range scratch {
		// Training clamps every weight to 8 bits.
		v := r.U64()
		w := int16(uint16(v))
		if v > math.MaxUint16 || w < -maxWeight || w > maxWeight {
			return wire.ErrMalformed
		}
		scratch[i] = w
	}
	nl := r.U64()
	if r.Err() != nil {
		return r.Err()
	}
	if nl != uint64(len(p.local.table)) {
		return wire.ErrMalformed
	}
	lscratch := make([]uint32, nl)
	for i := range lscratch {
		lscratch[i] = uint32(r.U64())
	}
	var hist HistPair
	if err := hist.LoadState(r); err != nil {
		return err
	}
	for ri := range int(rows) {
		p.setWeights(ri, scratch[ri*int(cols):(ri+1)*int(cols)])
	}
	copy(p.local.table, lscratch)
	p.Hist = hist
	return nil
}
