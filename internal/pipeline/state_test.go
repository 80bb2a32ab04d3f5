package pipeline

import (
	"bytes"
	"errors"
	"slices"
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

// fields encodes vs as consecutive varints.
func fields(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = wire.AppendU64(b, v)
	}
	return b
}

// encodeState writes a generator state: the slot count, then each pair
// list as its length and its pairs.
func encodeState(slots uint64, counters, overflow []uint64) []byte {
	b := fields(slots, uint64(len(counters)/2))
	b = append(b, fields(counters...)...)
	b = append(b, fields(uint64(len(overflow)/2))...)
	return append(b, fields(overflow...)...)
}

// stateGen's pairs: slots 7, 1, 63, 30 and 2 executed 1, 10, 19, 28 and
// 37 times, and PCs 0x40 and 0x9000 once and twice.
var (
	genCounters = []uint64{1, 10, 2, 37, 7, 1, 30, 28, 63, 19}
	genOverflow = []uint64{0x40, 1, 0x9000, 2}
)

// TestLoadAddrGenStateRoundTrip: the encoding is exactly StateLen bytes,
// and a restored generator encodes to the same bytes and continues with
// the same addresses as the original.
func TestLoadAddrGenStateRoundTrip(t *testing.T) {
	a := stateGen()
	enc := a.AppendState(nil)
	if want := encodeState(64, genCounters, genOverflow); !bytes.Equal(enc, want) {
		t.Fatalf("state %x, want %x", enc, want)
	}
	if n := a.StateLen(); len(enc) != n {
		t.Fatalf("state is %d bytes, StateLen %d", len(enc), n)
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
	with := func(list []uint64, i int, v uint64) []uint64 {
		list = slices.Clone(list)
		list[i] = v
		return list
	}
	good := encodeState(64, genCounters, genOverflow)
	cases := map[string][]byte{
		"slot count of another layout": encodeState(65, genCounters, genOverflow),
		"slot out of range":            encodeState(64, with(genCounters, 8, 64), genOverflow),
		"slots out of order":           encodeState(64, with(genCounters, 2, 0), genOverflow),
		"repeated slot":                encodeState(64, with(genCounters, 2, 1), genOverflow),
		"zero count":                   encodeState(64, with(genCounters, 5, 0), genOverflow),
		"pair count above slot count":  append(fields(64, 65), make([]byte, 2*65)...), // bytes enough for 65 pairs
		// 17 bytes follow the count: room for eight pairs of two bytes,
		// not nine.
		"pair count above bytes left": append(fields(64, 9), good[2:]...),
		"overflow PCs out of order":   encodeState(64, genCounters, with(genOverflow, 2, 0x20)),
		"zero overflow count":         encodeState(64, genCounters, with(genOverflow, 1, 0)),
		// 6 bytes follow the overflow count: room for three pairs, not
		// four.
		"overflow count above bytes left": append(fields(append([]uint64{64, 5}, genCounters...)...), fields(append([]uint64{4}, genOverflow...)...)...),
	}
	if n := len(good) - 2; n != 17 {
		t.Fatalf("%d bytes follow the counter list's length, want 17", n)
	}
	for name, bad := range cases {
		t.Run(name, func(t *testing.T) {
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
