package wire

import (
	"encoding/binary"
	"math/rand/v2"
	"testing"
)

// refU64 decodes the varint at b[pos:] the way U64 is specified: the value,
// the bytes it takes and its error.
func refU64(b []byte, pos int) (uint64, int, error) {
	v, n := binary.Uvarint(b[pos:])
	switch {
	case n == 0:
		return 0, 0, ErrTruncated
	case n < 0 || (n > 1 && b[pos+n-1] == 0):
		return 0, 0, ErrMalformed
	}
	return v, n, nil
}

// checkU64Seq reads b with U64 until it errs or b ends, and checks each
// read against refU64, and that the error sticks.
func checkU64Seq(t *testing.T, b []byte) {
	t.Helper()
	r := NewReader(b)
	for pos := 0; pos < len(b); {
		want, n, werr := refU64(b, pos)
		got := r.U64()
		if got != want || r.Err() != werr {
			t.Fatalf("% x at %d: U64 = %d, %v; want %d, %v", b, pos, got, r.Err(), want, werr)
		}
		if werr != nil {
			if r.U64() != 0 || r.Err() != werr {
				t.Fatalf("% x: error %v did not stick", b, werr)
			}
			return
		}
		pos += n
		if r.pos != pos {
			t.Fatalf("% x: U64 stopped at %d, want %d", b, r.pos, pos)
		}
	}
	if err := r.Done(); err != nil {
		t.Fatalf("% x: Done = %v", b, err)
	}
}

// TestU64MatchesUvarint: U64 decodes exactly as binary.Uvarint plus the
// shortest-encoding rule, on and off its eight-byte window: every value
// length with 0 to 9 bytes after it, non-shortest and overlong encodings,
// and random bytes.
func TestU64MatchesUvarint(t *testing.T) {
	for bits := 0; bits <= 64; bits++ {
		v := uint64(1)<<bits - 1
		if bits == 64 {
			v = ^uint64(0)
		}
		for tail := 0; tail <= 9; tail++ {
			checkU64Seq(t, append(AppendU64(nil, v), make([]byte, tail)...))
			// Padded with a continuation byte and a zero: not shortest.
			long := append(AppendU64(nil, v), 0)
			long[len(long)-2] |= 0x80
			checkU64Seq(t, append(long, make([]byte, tail)...))
		}
	}
	for n := 1; n <= 12; n++ {
		// n-1 continuation bytes then a terminal 1: overlong past ten.
		b := make([]byte, n, n+8)
		for i := range n - 1 {
			b[i] = 0xff
		}
		b[n-1] = 1
		checkU64Seq(t, b)
		checkU64Seq(t, b[:n-1])
		checkU64Seq(t, append(b, 1, 2, 3, 4, 5, 6, 7, 8))
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for range 20_000 {
		b := make([]byte, rng.IntN(40))
		cont := rng.Float64()
		for i := range b {
			b[i] = byte(rng.IntN(0x80))
			if rng.Float64() < cont {
				b[i] |= 0x80
			}
		}
		checkU64Seq(t, b)
	}
}
