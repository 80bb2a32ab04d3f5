package cache

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"streamfetch/internal/ckpt/wire"
	"streamfetch/internal/isa"
)

// encodeState writes a cache state field by field: clock, set count and
// way count, then per way its tag field and LRU distance.
func encodeState(fields ...uint64) []byte {
	var b []byte
	for _, f := range fields {
		b = wire.AppendU64(b, f)
	}
	return b
}

// TestLoadStateRoundTrip: a restored cache holds the captured tags and
// stamps bit for bit, also for lines far above the set bits and for ways
// never filled; it encodes to the same bytes, StateLen of them, and makes
// the same hit/miss and replacement decisions as the original.
func TestLoadStateRoundTrip(t *testing.T) {
	cfg := Config{SizeBytes: 4096, LineBytes: 64, Ways: 4} // 64 ways for 40 lines
	a := New(cfg)
	for i := 0; i < 40; i++ {
		a.Access(isa.Addr(i*64*(1+i%3)) | isa.Addr(i%7)<<40)
	}
	b := New(cfg)
	enc := a.AppendState(nil)
	if err := b.LoadState(wire.NewReader(enc)); err != nil {
		t.Fatal(err)
	}
	if b.clock != a.clock || !slices.Equal(b.ways, a.ways) {
		t.Fatal("restored ways differ from the captured ones")
	}
	if n := a.StateLen(); n != len(enc) {
		t.Fatalf("StateLen %d, state is %d bytes", n, len(enc))
	}
	if !bytes.Equal(enc, b.AppendState(nil)) {
		t.Fatal("restored cache encodes differently")
	}
	for i := 0; i < 200; i++ {
		addr := isa.Addr(i * 64 * (1 + i%5))
		if ha, hb := a.Access(addr), b.Access(addr); ha != hb {
			t.Fatalf("access %d at %#x: original hit %v, restored %v", i, addr, ha, hb)
		}
	}
}

// TestLoadStateRejectsInconsistentWays: a way at an LRU distance past the
// clock (a stamp the clock has not reached), an invalid way with a tag, or
// a tag too wide to shift above the set bits is malformed, a payload cut
// short is truncated, and either way the cache keeps its previous state,
// also in the ways ahead of the failure.
func TestLoadStateRejectsInconsistentWays(t *testing.T) {
	cfg := Config{SizeBytes: 512, LineBytes: 64, Ways: 2}
	src := New(cfg)
	src.Access(0x40) // set 1, way 0; every other way stays invalid
	good := src.AppendState(nil)
	// Clock 1, four sets of two ways: invalid ways are tag 0 at distance
	// 1, and the line in set 1 is tag 1>>2 at distance 0.
	if want := encodeState(1, 4, 2, 0, 1, 0, 1, 0, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1); !bytes.Equal(good, want) {
		t.Fatalf("state %x, want %x", good, want)
	}
	cases := map[string]struct {
		payload []byte
		want    error
	}{
		"stamp ahead of the clock":   {encodeState(1, 4, 2, 0, 1, 0, 1, 0, 2, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1), wire.ErrMalformed},
		"tag on an invalid way":      {encodeState(1, 4, 2, 0, 1, 0, 1, 0, 0, 5, 1, 0, 1, 0, 1, 0, 1, 0, 1), wire.ErrMalformed},
		"tag wider than 64 bits":     {encodeState(1, 4, 2, 0, 1, 0, 1, 1<<62, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1), wire.ErrMalformed},
		"truncated in the last way":  {good[:len(good)-1], wire.ErrTruncated},
		"truncated in the first way": {good[:4], wire.ErrTruncated},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			dst := New(cfg)
			dst.Access(0x1000) // set 0, ahead of every failure
			before := dst.AppendState(nil)
			if err := dst.LoadState(wire.NewReader(c.payload)); !errors.Is(err, c.want) {
				t.Fatalf("LoadState = %v, want %v", err, c.want)
			}
			if !bytes.Equal(dst.AppendState(nil), before) {
				t.Fatal("rejected state was partially restored")
			}
		})
	}
}

// TestLoadStateAllocFree: restoring a hierarchy allocates nothing beyond
// its reader, which a restore builds once for the whole snapshot. Every
// interval after the first of a sharded or sampled run restores one.
func TestLoadStateAllocFree(t *testing.T) {
	src := NewHierarchy(DefaultHierarchy(8))
	for i := range 20_000 {
		src.FetchLatency(isa.Addr(i * 4 * (1 + i%7)))
		src.LoadLatency(isa.Addr(1<<30 + i*8*(1+i%13)))
	}
	state := src.AppendState(nil)
	dst := NewHierarchy(DefaultHierarchy(8))
	r := wire.NewReader(state)
	allocs := testing.AllocsPerRun(20, func() {
		*r = *wire.NewReader(state)
		if err := dst.LoadState(r); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f allocations per Hierarchy.LoadState of %d bytes", allocs, len(state))
	if allocs != 0 {
		t.Fatalf("Hierarchy.LoadState allocates %.1f times, want 0", allocs)
	}
	if !bytes.Equal(dst.AppendState(nil), state) {
		t.Fatal("restored hierarchy encodes differently")
	}
}
