package bpred

import (
	"streamfetch/internal/ckpt/wire"
	"streamfetch/internal/isa"
)

// Warm-state serialization for checkpoints. Behavioral state only:
// prediction tables, history registers and LRU bookkeeping. Lookup/hit
// statistics stay out of the snapshot so restored runs start with clean
// counters.

func appendTwoBits(dst []byte, t []TwoBit) []byte {
	dst = wire.AppendU64(dst, uint64(len(t)))
	for _, v := range t {
		dst = wire.AppendByte(dst, byte(v))
	}
	return dst
}

func loadTwoBits(r *wire.Reader, t []TwoBit) error {
	n := r.U64()
	if r.Err() != nil {
		return r.Err()
	}
	if n != uint64(len(t)) {
		return wire.ErrMalformed
	}
	scratch := make([]TwoBit, n)
	for i := range scratch {
		scratch[i] = TwoBit(r.Byte())
	}
	if err := r.Err(); err != nil {
		return err
	}
	copy(t, scratch)
	return nil
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

// LoadState restores a path history of identical depth.
func (p *PathHist) LoadState(r *wire.Reader) error {
	n := r.U64()
	if r.Err() != nil {
		return r.Err()
	}
	if n != uint64(len(p.ring)) {
		return wire.ErrMalformed
	}
	scratch := make([]uint64, n)
	for i := range scratch {
		scratch[i] = r.U64()
	}
	pos := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if pos >= n && n > 0 {
		return wire.ErrMalformed
	}
	copy(p.ring, scratch)
	for i, v := range scratch {
		p.mix[i] = dolcMix(v >> 2)
	}
	p.pos = int(pos)
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
		scratch[i] = isa.Addr(r.U64())
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
// histories.
func (p *Perceptron) AppendState(dst []byte) []byte {
	dst = wire.AppendU64(dst, uint64(len(p.weights)))
	if len(p.weights) > 0 {
		dst = wire.AppendU64(dst, uint64(len(p.weights[0])))
	} else {
		dst = wire.AppendU64(dst, 0)
	}
	for _, row := range p.weights {
		for _, w := range row {
			dst = wire.AppendU64(dst, uint64(uint16(w)))
		}
	}
	dst = wire.AppendU64(dst, uint64(len(p.local.table)))
	for _, h := range p.local.table {
		dst = wire.AppendU64(dst, uint64(h))
	}
	return p.Hist.AppendState(dst)
}

// LoadState restores a perceptron predictor of identical geometry.
func (p *Perceptron) LoadState(r *wire.Reader) error {
	rows := r.U64()
	cols := r.U64()
	if r.Err() != nil {
		return r.Err()
	}
	wantCols := 0
	if len(p.weights) > 0 {
		wantCols = len(p.weights[0])
	}
	if rows != uint64(len(p.weights)) || cols != uint64(wantCols) {
		return wire.ErrMalformed
	}
	scratch := make([]int16, rows*cols)
	for i := range scratch {
		scratch[i] = int16(uint16(r.U64()))
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
	for ri := range p.weights {
		copy(p.weights[ri], scratch[ri*int(cols):(ri+1)*int(cols)])
	}
	copy(p.local.table, lscratch)
	p.Hist = hist
	return nil
}
