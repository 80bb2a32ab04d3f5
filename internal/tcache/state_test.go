package tcache

import (
	"bytes"
	"errors"
	"testing"

	"streamfetch/internal/ckpt/wire"
	"streamfetch/internal/isa"
)

// TestLoadStateRejectsUnrunnableState: restored predictions and traces
// the fill unit never builds, and that would stall or derail fetch (a
// predicted trace of no instructions, a trace whose first instruction is
// not at its start, a misaligned address, a counter out of its two bits),
// are malformed and leave the target unmodified.
func TestLoadStateRejectsUnrunnableState(t *testing.T) {
	type warmState interface {
		AppendState(dst []byte) []byte
		LoadState(r *wire.Reader) error
	}
	cfg := DefaultConfig()
	pred := func(e predEntry) warmState {
		p := NewPredictor(cfg)
		p.t1.entries[3] = e
		return p
	}
	inst := func(a isa.Addr) TraceInst { return TraceInst{Addr: a, Inst: isa.Inst{Addr: a}} }
	store := func(tr *Trace) warmState {
		s := NewStorage(cfg.SizeBytes, cfg.Ways, cfg.MaxLen)
		if tr != nil {
			s.Insert(*tr)
		}
		return s
	}
	fill := func(tr *Trace) warmState {
		f := NewFillUnit(cfg, 0x1000)
		if tr != nil {
			f.buf = append(f.buf[:0], tr.Inst...)
			f.pending = *tr
			f.pending.Inst = f.buf
		}
		return f
	}
	cases := []struct {
		name       string
		bad, fresh warmState
	}{
		{"predicted trace of no instructions", pred(predEntry{valid: true, stamp: 1, tag: 7, len: 0, next: 0x1000}), pred(predEntry{})},
		{"predicted trace over MaxLen", pred(predEntry{valid: true, stamp: 1, tag: 7, len: uint8(cfg.MaxLen + 1), next: 0x1000}), pred(predEntry{})},
		{"predicted misaligned next", pred(predEntry{valid: true, stamp: 1, tag: 7, len: 2, next: 0x1001}), pred(predEntry{})},
		{"predicted counter out of range", pred(predEntry{valid: true, stamp: 1, tag: 7, len: 2, next: 0x1000, ctr: 200}), pred(predEntry{})},
		{"invalid prediction's counter out of range", pred(predEntry{ctr: 4}), pred(predEntry{})},
		{"stored trace not at its start", store(&Trace{ID: ID{Start: 0x1000}, Inst: []TraceInst{inst(0x1004)}, Next: 0x1008}), store(nil)},
		{"stored trace at a misaligned address", store(&Trace{ID: ID{Start: 0x1000}, Inst: []TraceInst{inst(0x1000), inst(0x1006)}, Next: 0x1008}), store(nil)},
		{"pending trace not at its start", fill(&Trace{ID: ID{Start: 0x2000}, Inst: []TraceInst{inst(0x1000)}}), fill(nil)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := c.fresh.AppendState(nil)
			if err := c.fresh.LoadState(wire.NewReader(c.bad.AppendState(nil))); !errors.Is(err, wire.ErrMalformed) {
				t.Fatalf("LoadState = %v, want %v", err, wire.ErrMalformed)
			}
			if !bytes.Equal(c.fresh.AppendState(nil), before) {
				t.Fatal("rejected state was partially restored")
			}
		})
	}
}
