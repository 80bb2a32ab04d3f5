package bpred

import (
	"bytes"
	"errors"
	"slices"
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
// or that would mispredict long after training (a counter out of its two
// bits, a perceptron weight past the 8 bits training clamps it to), are
// malformed.
func TestLoadStateRejectsUnrunnableState(t *testing.T) {
	ftb := func(e FTBEntry) warmState {
		f := NewFTB(32, 4, 16)
		if e != (FTBEntry{}) {
			f.sets[1][2] = ftbWay{tag: 7, valid: true, stamp: 1, e: e}
		}
		return f
	}
	btb := func(valid bool, e BTBEntry) warmState {
		b := NewBTB(32, 4)
		b.sets[1][2] = btbWay{tag: 7, valid: valid, stamp: 1, e: e}
		return b
	}
	perc := func(w int16) warmState {
		p := NewPerceptron(DefaultPerceptronConfig())
		p.weights[3][1] = w
		return p
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
		{"btb misaligned target", btb(true, BTBEntry{Target: 0x1001, Type: isa.BranchUncond}), btb(false, BTBEntry{})},
		{"btb counter out of range", btb(true, BTBEntry{Target: 0x1000, Type: isa.BranchCond, Ctr: 200}), btb(false, BTBEntry{})},
		{"invalid btb way's counter out of range", btb(false, BTBEntry{Ctr: 4}), btb(false, BTBEntry{})},
		{"ras misaligned return address", ras(0x1003), ras(0)},
		{"perceptron weight past 8 bits", perc(maxWeight + 1), perc(5)},
		{"negative perceptron weight past 8 bits", perc(-maxWeight - 1), perc(5)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { rejectsState(t, c.bad, c.fresh) })
	}
}

// TestLoadStateFailsWhole: a counter table or path history whose payload
// is cut short, or whose position lies past its depth, fails and keeps
// every element it held, also those ahead of the failure.
func TestLoadStateFailsWhole(t *testing.T) {
	hist := func(vs ...uint64) *PathHist {
		p := NewPathHist(4)
		for _, v := range vs {
			p.Push(v)
		}
		return p
	}
	pastDepth := hist(0x100, 0x200)
	pastDepth.pos = len(pastDepth.ring)
	good := hist(0x100, 0x200, 0x300).AppendState(nil)
	cases := []struct {
		name    string
		payload []byte
		want    error
	}{
		{"path position past its depth", pastDepth.AppendState(nil), wire.ErrMalformed},
		{"path cut in its position", good[:len(good)-1], wire.ErrTruncated},
		{"path cut in its ring", good[:len(good)/2], wire.ErrTruncated},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dst := hist(0x1000, 0x2000)
			before := dst.AppendState(nil)
			if err := dst.LoadState(wire.NewReader(c.payload)); !errors.Is(err, c.want) {
				t.Fatalf("LoadState = %v, want %v", err, c.want)
			}
			if !bytes.Equal(dst.AppendState(nil), before) {
				t.Fatal("rejected state was partially restored")
			}
		})
	}

	t.Run("counters cut in the last counter", func(t *testing.T) {
		src := []TwoBit{3, 3, 3, 3}
		payload := appendTwoBits(nil, src)
		dst := []TwoBit{0, 1, 2, 1}
		before := append([]TwoBit(nil), dst...)
		if err := loadTwoBits(wire.NewReader(payload[:len(payload)-1]), dst); !errors.Is(err, wire.ErrTruncated) {
			t.Fatalf("loadTwoBits = %v, want %v", err, wire.ErrTruncated)
		}
		if !slices.Equal(dst, before) {
			t.Fatalf("rejected counters were partially restored: %v, want %v", dst, before)
		}
	})
}

// TestTwoBitsPacked: a counter table packs four counters a byte, so
// every byte decodes to counters in range and re-encodes to itself (a
// byte a counter could restore a counter of 200, which predicts taken for
// 197 not-taken updates); bits set past the table's last counter are
// malformed and leave the table unmodified.
func TestTwoBitsPacked(t *testing.T) {
	src := []TwoBit{1, 3, 2, 0, 3, 1, 2}
	if enc, want := appendTwoBits(nil, src), []byte{7, 1 | 3<<2 | 2<<4 | 0<<6, 3 | 1<<2 | 2<<4}; !bytes.Equal(enc, want) {
		t.Fatalf("table encodes to %x, want %x", enc, want)
	}
	for b := range 256 {
		enc := []byte{4, byte(b)}
		dst := make([]TwoBit, 4)
		r := wire.NewReader(enc)
		if err := loadTwoBits(r, dst); err != nil || r.Done() != nil {
			t.Fatalf("byte %#x: %v, %v", b, err, r.Done())
		}
		if slices.Max(dst) > 3 || !bytes.Equal(appendTwoBits(nil, dst), enc) {
			t.Fatalf("byte %#x restores %v", b, dst)
		}
	}
	for _, last := range []byte{1 << 6, 3 << 6} {
		dst := []TwoBit{0, 1, 2}
		if err := loadTwoBits(wire.NewReader([]byte{3, 2<<4 | last}), dst); !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("padding bits %#x: %v, want %v", last, err, wire.ErrMalformed)
		}
		if !slices.Equal(dst, []TwoBit{0, 1, 2}) {
			t.Fatalf("rejected counters were partially restored: %v", dst)
		}
	}
}
