package cache

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"streamfetch/internal/ckpt/wire"
	"streamfetch/internal/isa"
)

// Encoded cache state: clock, set count and way count, then per way its
// tag and stamp.
const (
	stateHeader = 3 * 8
	wayBytes    = 8 + 8
)

// TestLoadStateRoundTrip: a restored cache encodes to the same bytes and
// makes the same hit/miss and replacement decisions as the original.
func TestLoadStateRoundTrip(t *testing.T) {
	cfg := Config{SizeBytes: 1024, LineBytes: 64, Ways: 4}
	a := New(cfg)
	for i := 0; i < 40; i++ {
		a.Access(isa.Addr(i * 64 * (1 + i%3)))
	}
	b := New(cfg)
	if err := b.LoadState(wire.NewReader(a.AppendState(nil))); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.AppendState(nil), b.AppendState(nil)) {
		t.Fatal("restored cache encodes differently")
	}
	for i := 0; i < 200; i++ {
		addr := isa.Addr(i * 64 * (1 + i%5))
		if ha, hb := a.Access(addr), b.Access(addr); ha != hb {
			t.Fatalf("access %d at %#x: original hit %v, restored %v", i, addr, ha, hb)
		}
	}
}

// TestLoadStateRejectsInconsistentWays: a way whose stamp is ahead of the
// clock is malformed, a payload cut short is truncated, and either way the
// cache keeps its previous state, also in the ways ahead of the failure.
func TestLoadStateRejectsInconsistentWays(t *testing.T) {
	cfg := Config{SizeBytes: 512, LineBytes: 64, Ways: 2}
	src := New(cfg)
	src.Access(0x40) // set 1, way 0; every other way stays invalid
	good := src.AppendState(nil)
	valid := stateHeader + 2*wayBytes // set 1, way 0
	cases := map[string]struct {
		payload func(b []byte) []byte
		want    error
	}{
		"stamp ahead of the clock": {func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[valid+8:], 2)
			return b
		}, wire.ErrMalformed},
		"truncated in the last way": {func(b []byte) []byte { return b[:len(b)-1] }, wire.ErrTruncated},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			bad := c.payload(append([]byte(nil), good...))
			dst := New(cfg)
			dst.Access(0x1000) // set 0, ahead of every failure
			before := dst.AppendState(nil)
			if err := dst.LoadState(wire.NewReader(bad)); !errors.Is(err, c.want) {
				t.Fatalf("LoadState = %v, want %v", err, c.want)
			}
			if !bytes.Equal(dst.AppendState(nil), before) {
				t.Fatal("rejected state was partially restored")
			}
		})
	}
}
