package core

import (
	"bytes"
	"errors"
	"testing"

	"streamfetch/internal/ckpt/wire"
)

// TestLoadStateRejectsUnrunnableState: restored streams and builder state
// that training never produces, and that would stall or derail fetch (a
// stream of no instructions, a next address between instructions, a
// negative stream length), are malformed and leave the target unmodified.
func TestLoadStateRejectsUnrunnableState(t *testing.T) {
	type warmState interface {
		AppendState(dst []byte) []byte
		LoadState(r *wire.Reader) error
	}
	pred := func(e streamEntry) warmState {
		p := NewPredictor(DefaultPredictorConfig())
		p.t1.sets[1][0] = e
		return p
	}
	builder := func(b Builder) warmState { return &b }
	cases := []struct {
		name       string
		bad, fresh warmState
	}{
		{"stream of no instructions", pred(streamEntry{valid: true, tag: 7, len: 0, next: 0x1000, stamp: 1}), pred(streamEntry{})},
		{"stream over MaxStreamLen", pred(streamEntry{valid: true, tag: 7, len: MaxStreamLen + 1, next: 0x1000, stamp: 1}), pred(streamEntry{})},
		{"stream with a misaligned next", pred(streamEntry{valid: true, tag: 7, len: 4, next: 0x1002, stamp: 1}), pred(streamEntry{})},
		{"builder with a negative length", builder(Builder{start: 0x1000, len: -3, started: true}), builder(Builder{})},
		{"builder partial longer than its stream", builder(Builder{start: 0x1000, len: 2, partialStart: 0x1004, partialLen: 3, hasPartial: true}), builder(Builder{})},
		{"builder at a misaligned start", builder(Builder{start: 0x1001, len: 1, started: true}), builder(Builder{})},
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
