package tcache

import (
	"streamfetch/internal/bpred"
	"streamfetch/internal/ckpt/wire"
	"streamfetch/internal/isa"
)

// Warm-state serialization for checkpoints: stored traces (contents plus
// LRU bookkeeping), both predictor tables with their path histories, and
// the fill unit's in-flight trace. Lookup/hit statistics are excluded.
// The load paths re-establish the arena/buf aliasing invariants that make
// steady-state operation allocation-free.

func appendTraceInsts(dst []byte, insts []TraceInst) []byte {
	dst = wire.AppendU64(dst, uint64(len(insts)))
	for _, ti := range insts {
		dst = wire.AppendU64(dst, uint64(ti.Addr))
		dst = wire.AppendByte(dst, byte(ti.Inst.Class))
		dst = wire.AppendByte(dst, byte(ti.Inst.Branch))
	}
	return dst
}

func loadTraceInsts(r *wire.Reader, max int) ([]TraceInst, error) {
	n := r.Len(max)
	if r.Err() != nil {
		return nil, r.Err()
	}
	insts := make([]TraceInst, n)
	for i := range insts {
		insts[i].Addr = isa.Addr(r.U64())
		insts[i].Inst.Addr = insts[i].Addr
		insts[i].Inst.Class = isa.Class(r.Byte())
		insts[i].Inst.Branch = isa.BranchType(r.Byte())
	}
	return insts, r.Err()
}

// consistentTrace reports whether a restored trace is one the fill unit
// could have built: its instructions start at its start address, and
// every address is instruction-aligned.
func consistentTrace(tr *Trace, insts []TraceInst) bool {
	if !tr.ID.Start.Valid() || !tr.Next.Valid() || (len(insts) > 0 && insts[0].Addr != tr.ID.Start) {
		return false
	}
	for _, ti := range insts {
		if !ti.Addr.Valid() {
			return false
		}
	}
	return true
}

func appendTraceMeta(dst []byte, tr *Trace) []byte {
	dst = wire.AppendU64(dst, uint64(tr.ID.Start))
	dst = wire.AppendByte(dst, tr.ID.Dirs)
	dst = wire.AppendByte(dst, tr.ID.NCond)
	dst = wire.AppendU64(dst, uint64(tr.Next))
	dst = wire.AppendByte(dst, byte(tr.TermType))
	return wire.AppendBool(dst, tr.Red)
}

func loadTraceMeta(r *wire.Reader, tr *Trace) {
	tr.ID.Start = isa.Addr(r.U64())
	tr.ID.Dirs = r.Byte()
	tr.ID.NCond = r.Byte()
	tr.Next = isa.Addr(r.U64())
	tr.TermType = isa.BranchType(r.Byte())
	tr.Red = r.Bool()
}

// AppendState appends the trace cache contents and LRU clock.
func (s *Storage) AppendState(dst []byte) []byte {
	dst = wire.AppendU64(dst, s.clock)
	dst = wire.AppendU64(dst, uint64(len(s.slots)))
	dst = wire.AppendU64(dst, uint64(s.maxLen))
	for i := range s.slots {
		st := &s.slots[i]
		dst = wire.AppendBool(dst, st.valid)
		if !st.valid {
			continue
		}
		dst = wire.AppendU64(dst, st.stamp)
		dst = appendTraceMeta(dst, &st.tr)
		dst = appendTraceInsts(dst, st.tr.Inst)
	}
	return dst
}

// LoadState restores a trace cache of identical geometry, re-aliasing
// each slot's instruction slice into the dense arena. The storage is
// unmodified on error; stats are untouched.
func (s *Storage) LoadState(r *wire.Reader) error {
	clock := r.U64()
	nslots := r.U64()
	maxLen := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if nslots != uint64(len(s.slots)) || maxLen != uint64(s.maxLen) {
		return wire.ErrMalformed
	}
	type slotState struct {
		valid bool
		stamp uint64
		tr    Trace
		insts []TraceInst
	}
	scratch := make([]slotState, nslots)
	for i := range scratch {
		scratch[i].valid = r.Bool()
		if r.Err() != nil || !scratch[i].valid {
			continue
		}
		scratch[i].stamp = r.U64()
		loadTraceMeta(r, &scratch[i].tr)
		insts, err := loadTraceInsts(r, s.maxLen)
		if err != nil {
			return err
		}
		if len(insts) == 0 || !consistentTrace(&scratch[i].tr, insts) {
			return wire.ErrMalformed
		}
		scratch[i].insts = insts
	}
	if err := r.Err(); err != nil {
		return err
	}
	s.clock = clock
	for i := range s.slots {
		st := &s.slots[i]
		sc := &scratch[i]
		if !sc.valid {
			st.valid = false
			st.id = ID{}
			st.tr = Trace{}
			st.stamp = 0
			continue
		}
		region := s.arena[i*s.maxLen : i*s.maxLen+len(sc.insts)]
		copy(region, sc.insts)
		st.valid = true
		st.id = sc.tr.ID
		st.stamp = sc.stamp
		st.tr = sc.tr
		st.tr.Inst = region
	}
	return nil
}

func (t *predTable) appendState(dst []byte) []byte {
	dst = wire.AppendU64(dst, t.clock)
	dst = wire.AppendU64(dst, uint64(len(t.entries)))
	for i := range t.entries {
		e := &t.entries[i]
		dst = wire.AppendBool(dst, e.valid)
		dst = wire.AppendU64(dst, e.stamp)
		dst = wire.AppendU64(dst, e.tag)
		dst = wire.AppendByte(dst, e.dirs)
		dst = wire.AppendByte(dst, e.ncond)
		dst = wire.AppendByte(dst, e.len)
		dst = wire.AppendByte(dst, byte(e.term))
		dst = wire.AppendU64(dst, uint64(e.next))
		dst = wire.AppendByte(dst, byte(e.ctr))
	}
	return dst
}

// loadState restores the table; maxLen bounds a valid entry's trace
// length.
func (t *predTable) loadState(r *wire.Reader, maxLen int) error {
	clock := r.U64()
	n := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if n != uint64(len(t.entries)) {
		return wire.ErrMalformed
	}
	scratch := make([]predEntry, n)
	for i := range scratch {
		scratch[i].valid = r.Bool()
		scratch[i].stamp = r.U64()
		scratch[i].tag = r.U64()
		scratch[i].dirs = r.Byte()
		scratch[i].ncond = r.Byte()
		scratch[i].len = r.Byte()
		scratch[i].term = isa.BranchType(r.Byte())
		scratch[i].next = isa.Addr(r.U64())
		scratch[i].ctr = bpred.TwoBit(r.Byte())
		if err := r.Err(); err != nil {
			return err
		}
		// A predicted trace of no instructions would hold fetch in
		// place forever; update never stores one, nor a counter out of
		// its two bits.
		if e := &scratch[i]; e.ctr > 3 || e.valid && (e.len < 1 || int(e.len) > maxLen || !e.next.Valid()) {
			return wire.ErrMalformed
		}
	}
	if err := r.Err(); err != nil {
		return err
	}
	t.clock = clock
	copy(t.entries, scratch)
	return nil
}

// AppendState appends both predictor tables and path histories.
func (p *Predictor) AppendState(dst []byte) []byte {
	dst = p.t1.appendState(dst)
	dst = p.t2.appendState(dst)
	dst = p.SpecPath.AppendState(dst)
	return p.RetPath.AppendState(dst)
}

// LoadState restores a predictor of identical geometry; stats untouched.
func (p *Predictor) LoadState(r *wire.Reader) error {
	if err := p.t1.loadState(r, p.cfg.MaxLen); err != nil {
		return err
	}
	if err := p.t2.loadState(r, p.cfg.MaxLen); err != nil {
		return err
	}
	if err := p.SpecPath.LoadState(r); err != nil {
		return err
	}
	return p.RetPath.LoadState(r)
}

// AppendState appends the fill unit's in-flight trace.
func (f *FillUnit) AppendState(dst []byte) []byte {
	dst = appendTraceMeta(dst, &f.pending)
	dst = appendTraceInsts(dst, f.pending.Inst)
	return wire.AppendBool(dst, f.mispredicted)
}

// LoadState restores the fill unit, rebuilding the pending trace inside
// the fixed-capacity buffer. The unit is unmodified on error.
func (f *FillUnit) LoadState(r *wire.Reader) error {
	var tr Trace
	loadTraceMeta(r, &tr)
	insts, err := loadTraceInsts(r, cap(f.buf))
	if err != nil {
		return err
	}
	misp := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	if !consistentTrace(&tr, insts) {
		return wire.ErrMalformed
	}
	f.buf = f.buf[:0]
	f.buf = append(f.buf, insts...)
	tr.Inst = f.buf
	f.pending = tr
	f.mispredicted = misp
	return nil
}
