package pipeline

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"streamfetch/internal/ckpt/wire"
	"streamfetch/internal/isa"
)

// stateGen is a generator over 64 code slots at 0x1000 with five executed
// slots (1, 2, 7, 30 and 63, executed 1 to 40 times) and two PCs outside
// the segment, so its state has both pair lists.
func stateGen() *LoadAddrGen {
	g := NewLoadAddrGen(1<<16, 0x1000, 64)
	for i, slot := range []isa.Addr{7, 1, 63, 30, 2} {
		for n := 0; n <= 9*i; n++ {
			g.Next(0x1000 + slot*isa.InstBytes)
		}
	}
	g.Next(0x40)
	g.Next(0x9000)
	g.Next(0x9000)
	return g
}

// Offsets into stateGen's encoding: slot count, then the counter pairs
// (16 bytes each) after their length, then the overflow pairs after
// theirs.
const (
	genCounters = 16               // first counter pair
	genOverflow = genCounters + 88 // first overflow pair: five pairs, then the overflow length
)

// TestLoadAddrGenStateRoundTrip: the encoding holds 24 bytes plus 16 per
// executed slot or overflow PC, and a restored generator encodes to the
// same bytes and continues with the same addresses as the original.
func TestLoadAddrGenStateRoundTrip(t *testing.T) {
	a := stateGen()
	enc := a.AppendState(nil)
	if want := 24 + 16*(5+2); len(enc) != want {
		t.Fatalf("state is %d bytes, want %d", len(enc), want)
	}
	b := NewLoadAddrGen(1<<16, 0x1000, 64)
	b.Next(0x1000 + 5*isa.InstBytes) // state the restore must replace
	r := wire.NewReader(enc)
	if err := b.LoadState(r); err != nil {
		t.Fatal(err)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.AppendState(nil), enc) {
		t.Fatal("restored generator encodes differently")
	}
	for i := 0; i < 500; i++ {
		pc := 0x1000 + isa.Addr(i%70)*isa.InstBytes // includes PCs past the segment
		if x, y := a.Next(pc), b.Next(pc); x != y {
			t.Fatalf("step %d at %#x: original %#x, restored %#x", i, pc, x, y)
		}
	}
}

// TestLoadAddrGenStateRejectsMalformed: every pair list AppendState cannot
// have written is wire.ErrMalformed, and the generator keeps its state.
func TestLoadAddrGenStateRejectsMalformed(t *testing.T) {
	put := func(b []byte, off int, v uint64) { binary.LittleEndian.PutUint64(b[off:], v) }
	cases := map[string]func(b []byte) []byte{
		"slot count of another layout": func(b []byte) []byte { put(b, 0, 65); return b },
		"slot out of range":            func(b []byte) []byte { put(b, genCounters+4*16, 64); return b },
		"slots out of order":           func(b []byte) []byte { put(b, genCounters+16, 0); return b },
		"repeated slot":                func(b []byte) []byte { put(b, genCounters+16, 1); return b },
		"zero count":                   func(b []byte) []byte { put(b, genCounters+2*16+8, 0); return b },
		"pair count above slot count": func(b []byte) []byte {
			put(b, 8, 65)
			return append(b, make([]byte, 65*16)...) // bytes enough for 65 pairs
		},
		// Seven pairs and a length remain after the count: 120 bytes,
		// room for seven pairs but not eight.
		"pair count above bytes left": func(b []byte) []byte { put(b, 8, 8); return b },
		"overflow PCs out of order":   func(b []byte) []byte { put(b, genOverflow+16, 0x20); return b },
		"zero overflow count":         func(b []byte) []byte { put(b, genOverflow+8, 0); return b },
		"overflow count above bytes left": func(b []byte) []byte {
			return b[:len(b)-1]
		},
	}
	good := stateGen().AppendState(nil)
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			bad := mutate(append([]byte(nil), good...))
			g := NewLoadAddrGen(1<<16, 0x1000, 64)
			g.Next(0x1000 + 5*isa.InstBytes)
			g.Next(0x20)
			before := g.AppendState(nil)
			if err := g.LoadState(wire.NewReader(bad)); !errors.Is(err, wire.ErrMalformed) {
				t.Fatalf("LoadState = %v, want %v", err, wire.ErrMalformed)
			}
			if !bytes.Equal(g.AppendState(nil), before) {
				t.Fatal("rejected state was partially restored")
			}
		})
	}
}
