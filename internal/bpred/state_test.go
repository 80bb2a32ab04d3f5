package bpred

import (
	"bytes"
	"errors"
	"testing"

	"streamfetch/internal/ckpt/wire"
	"streamfetch/internal/isa"
)

// warmState is a structure with checkpointed state.
type warmState interface {
	AppendState(dst []byte) []byte
	LoadState(r *wire.Reader) error
}

// rejectsState requires that restoring bad's encoding into fresh fails as
// malformed and leaves fresh unmodified.
func rejectsState(t *testing.T, bad, fresh warmState) {
	t.Helper()
	before := fresh.AppendState(nil)
	if err := fresh.LoadState(wire.NewReader(bad.AppendState(nil))); !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("LoadState = %v, want %v", err, wire.ErrMalformed)
	}
	if !bytes.Equal(fresh.AppendState(nil), before) {
		t.Fatal("rejected state was partially restored")
	}
}

// TestLoadStateRejectsUnrunnableState: restored entries that training
// never builds, and that would stall fetch for good (a block of no
// instructions, a target between instructions or past the address space),
// are malformed.
func TestLoadStateRejectsUnrunnableState(t *testing.T) {
	ftb := func(e FTBEntry) warmState {
		f := NewFTB(32, 4, 16)
		if e != (FTBEntry{}) {
			f.sets[1][2] = ftbWay{tag: 7, valid: true, stamp: 1, e: e}
		}
		return f
	}
	btb := func(target isa.Addr) warmState {
		b := NewBTB(32, 4)
		if target != 0 {
			b.sets[1][2] = btbWay{tag: 7, valid: true, stamp: 1, e: BTBEntry{Target: target, Type: isa.BranchUncond}}
		}
		return b
	}
	ras := func(top isa.Addr) warmState {
		r := NewRAS(4)
		if top != 0 {
			r.Push(top)
		}
		return r
	}
	cases := []struct {
		name       string
		bad, fresh warmState
	}{
		{"ftb block of no instructions", ftb(FTBEntry{Len: 0, Type: isa.BranchCond, Target: 0x1000}), ftb(FTBEntry{})},
		{"ftb block over MaxLen", ftb(FTBEntry{Len: 17, Type: isa.BranchCond, Target: 0x1000}), ftb(FTBEntry{})},
		{"ftb misaligned target", ftb(FTBEntry{Len: 4, Type: isa.BranchCond, Target: 0x1002}), ftb(FTBEntry{})},
		{"ftb target past the address space", ftb(FTBEntry{Len: 4, Type: isa.BranchCond, Target: 1 << isa.AddrBits}), ftb(FTBEntry{})},
		{"btb misaligned target", btb(0x1001), btb(0)},
		{"ras misaligned return address", ras(0x1003), ras(0)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { rejectsState(t, c.bad, c.fresh) })
	}
}
