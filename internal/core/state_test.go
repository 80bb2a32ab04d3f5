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
// negative stream length, a counter out of its two bits), are malformed
// and leave the target unmodified.
// The targets hold state of their own, which a restore that stored
// entries ahead of the bad one would overwrite.
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
		{"stream of no instructions", pred(streamEntry{valid: true, tag: 7, len: 0, next: 0x1000, stamp: 1}), filledPredictor()},
		{"stream over MaxStreamLen", pred(streamEntry{valid: true, tag: 7, len: MaxStreamLen + 1, next: 0x1000, stamp: 1}), filledPredictor()},
		{"stream with a misaligned next", pred(streamEntry{valid: true, tag: 7, len: 4, next: 0x1002, stamp: 1}), filledPredictor()},
		{"stream counter out of range", pred(streamEntry{valid: true, tag: 7, len: 4, next: 0x1000, ctr: 200, stamp: 1}), filledPredictor()},
		{"invalid stream counter out of range", pred(streamEntry{ctr: 4}), filledPredictor()},
		{"builder with a negative length", builder(Builder{start: 0x1000, len: -3, started: true}), builder(Builder{start: 0x2000, len: 5, started: true})},
		{"builder partial longer than its stream", builder(Builder{start: 0x1000, len: 2, partialStart: 0x1004, partialLen: 3, hasPartial: true}), builder(Builder{start: 0x2000, len: 5, started: true})},
		{"builder at a misaligned start", builder(Builder{start: 0x1001, len: 1, started: true}), builder(Builder{start: 0x2000, len: 5, started: true})},
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

// TestTableLoadStateTruncated: a stream table payload cut anywhere fails
// as truncated and leaves the table as it was, entries ahead of the cut
// included.
func TestTableLoadStateTruncated(t *testing.T) {
	good := filledPredictor().t1.appendState(nil)
	for _, n := range []int{len(good) / 2, len(good) - 1} {
		dst := NewPredictor(DefaultPredictorConfig()).t1
		dst.sets[0][0] = streamEntry{valid: true, tag: 3, len: 2, next: 0x3000, stamp: 1}
		dst.clock = 1
		before := dst.appendState(nil)
		if err := dst.loadState(wire.NewReader(good[:n])); !errors.Is(err, wire.ErrTruncated) {
			t.Fatalf("load of %d of %d bytes = %v, want %v", n, len(good), err, wire.ErrTruncated)
		}
		if !bytes.Equal(dst.appendState(nil), before) {
			t.Fatalf("load of %d of %d bytes partially restored the table", n, len(good))
		}
	}
}

// filledPredictor returns a predictor holding a valid stream in every way
// of both tables, stamped by its own clock.
func filledPredictor() *Predictor {
	p := NewPredictor(DefaultPredictorConfig())
	for _, tab := range []*streamTable{p.t1, p.t2} {
		for si, set := range tab.sets {
			for wi := range set {
				tab.clock++
				set[wi] = streamEntry{valid: true, tag: uint64(si<<8 | wi), len: 4, next: 0x1000, ctr: 2, stamp: tab.clock}
			}
		}
	}
	return p
}
