package wire

import (
	"bytes"
	"testing"
)

// TestRoundTrip: every primitive encodes and decodes back to itself, in
// sequence, with Done confirming full consumption.
func TestRoundTrip(t *testing.T) {
	var b []byte
	b = AppendU64(b, 0)
	b = AppendU64(b, ^uint64(0))
	b = AppendU64(b, 0x0123_4567_89ab_cdef)
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = AppendByte(b, 0x7f)
	b = AppendBytes(b, nil)
	b = AppendBytes(b, []byte{1, 2, 3})
	b = AppendString(b, "streams")

	r := NewReader(b)
	for i, want := range []uint64{0, ^uint64(0), 0x0123_4567_89ab_cdef} {
		if got := r.U64(); got != want {
			t.Fatalf("u64 #%d = %#x, want %#x", i, got, want)
		}
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("bools did not round-trip")
	}
	if got := r.Byte(); got != 0x7f {
		t.Fatalf("byte = %#x, want 0x7f", got)
	}
	if got := r.Bytes(); len(got) != 0 {
		t.Fatalf("empty bytes decoded as %v", got)
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("bytes = %v", got)
	}
	if got := r.String(); got != "streams" {
		t.Fatalf("string = %q", got)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done after full read: %v", err)
	}
}

// TestTruncation: decoding any strict prefix of a valid encoding reports
// an error (from the failing read or from Done) and never panics.
func TestTruncation(t *testing.T) {
	var b []byte
	b = AppendU64(b, 42)
	b = AppendString(b, "engine")
	b = AppendBytes(b, []byte{9, 8, 7, 6})
	for n := 0; n < len(b); n++ {
		r := NewReader(b[:n])
		r.U64()
		_ = r.String()
		r.Bytes()
		if r.Err() == nil && r.Done() == nil {
			t.Fatalf("prefix of %d/%d bytes decoded cleanly", n, len(b))
		}
	}
}

// TestTrailingBytes: Done rejects an encoding with unread bytes left.
func TestTrailingBytes(t *testing.T) {
	b := AppendU64(nil, 1)
	b = append(b, 0xee)
	r := NewReader(b)
	r.U64()
	if err := r.Done(); err == nil {
		t.Fatal("Done accepted trailing bytes")
	}
}

// TestStickyError: after a failed read every further read returns zero
// values and the first error is preserved.
func TestStickyError(t *testing.T) {
	r := NewReader([]byte{0x81, 0x82}) // a varint whose last byte is missing
	if got := r.U64(); got != 0 {
		t.Fatalf("truncated u64 = %d, want 0", got)
	}
	first := r.Err()
	if first == nil {
		t.Fatal("truncated read reported no error")
	}
	if got := r.Bytes(); got != nil {
		t.Fatalf("read after error = %v, want nil", got)
	}
	if r.Err() != first {
		t.Fatal("error not sticky")
	}
}

// TestLenGuard: Len and Count reject lengths above the caller's bound and
// lengths exceeding the remaining input, so corrupt headers cannot drive
// huge allocations.
func TestLenGuard(t *testing.T) {
	b := AppendU64(nil, 1_000_000)
	r := NewReader(b)
	if n := r.Len(64); n != 0 || r.Err() == nil {
		t.Fatalf("Len(64) on length 1e6 = %d, err %v", n, r.Err())
	}
	r = NewReader(AppendU64(nil, 16))
	if n := r.Len(1 << 20); n != 0 || r.Err() == nil {
		t.Fatalf("Len beyond remaining input = %d, err %v", n, r.Err())
	}
	// Count holds the length to the elements the input can carry: two
	// 16-byte elements fit 47 bytes, three do not.
	tail := make([]byte, 47)
	if n := NewReader(append(AppendU64(nil, 2), tail...)).Count(64, 16); n != 2 {
		t.Fatalf("Count of 2 elements in 47 bytes = %d", n)
	}
	r = NewReader(append(AppendU64(nil, 3), tail...))
	if n := r.Count(64, 16); n != 0 || r.Err() != ErrMalformed {
		t.Fatalf("Count of 3 elements in 47 bytes = %d, err %v", n, r.Err())
	}
	// size is the smallest encoding of one element: pairs of varints
	// take two bytes at least, so 23 fit 47 bytes and 24 do not.
	if n := NewReader(append(AppendU64(nil, 23), tail...)).Count(64, 2); n != 23 {
		t.Fatalf("Count of 23 two-byte elements in 47 bytes = %d", n)
	}
	r = NewReader(append(AppendU64(nil, 24), tail...))
	if n := r.Count(64, 2); n != 0 || r.Err() != ErrMalformed {
		t.Fatalf("Count of 24 two-byte elements in 47 bytes = %d, err %v", n, r.Err())
	}
}

// TestBytesLengthGuard: a length prefix larger than the remaining input
// is an error, not a panic or short read.
func TestBytesLengthGuard(t *testing.T) {
	b := AppendU64(nil, 1<<40)
	b = append(b, 1, 2, 3)
	r := NewReader(b)
	if got := r.Bytes(); got != nil || r.Err() == nil {
		t.Fatalf("oversized Bytes = %v, err %v", got, r.Err())
	}
}

// TestTwoPass: a decode that fails in its validating pass never runs its
// storing pass, and leaves the reader holding the error; one that passes
// runs both, over the same bytes.
func TestTwoPass(t *testing.T) {
	payload := AppendU64(AppendU64(nil, 1), 300)
	for _, c := range []struct {
		name    string
		payload []byte
		want    []uint64
		err     error
	}{
		{"whole", payload, []uint64{1, 300}, nil},
		{"cut short", payload[:len(payload)-1], []uint64{7, 7}, ErrTruncated},
	} {
		t.Run(c.name, func(t *testing.T) {
			dst := []uint64{7, 7}
			r := NewReader(c.payload)
			err := r.TwoPass(func(r *Reader, apply bool) error {
				for i := range dst {
					v := r.U64()
					if apply {
						dst[i] = v
					}
				}
				return r.Err()
			})
			if err != c.err || r.Err() != c.err {
				t.Fatalf("TwoPass = %v (reader %v), want %v", err, r.Err(), c.err)
			}
			if dst[0] != c.want[0] || dst[1] != c.want[1] {
				t.Fatalf("target %v, want %v", dst, c.want)
			}
		})
	}
}

// TestVarint: AppendU64 writes the shortest LEB128 encoding, SizeU64
// predicts its length, and U64 reads it back, at every length from one
// byte to ten.
func TestVarint(t *testing.T) {
	for _, c := range []struct {
		v   uint64
		enc []byte
	}{
		{0, []byte{0}},
		{1, []byte{1}},
		{127, []byte{0x7f}},
		{128, []byte{0x80, 1}},
		{300, []byte{0xac, 2}},
		{1<<63 - 1, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}},
		{^uint64(0), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1}},
	} {
		enc := AppendU64(nil, c.v)
		if !bytes.Equal(enc, c.enc) || SizeU64(c.v) != len(enc) {
			t.Fatalf("%d encodes to %x (SizeU64 %d), want %x", c.v, enc, SizeU64(c.v), c.enc)
		}
		r := NewReader(enc)
		if got := r.U64(); got != c.v || r.Done() != nil {
			t.Fatalf("%x decodes to %d (%v), want %d", enc, got, r.Done(), c.v)
		}
	}
	for shift := range 64 {
		for _, v := range []uint64{1<<shift - 1, 1 << shift, 1<<shift + 1} {
			if n := len(AppendU64(nil, v)); SizeU64(v) != n {
				t.Fatalf("SizeU64(%d) = %d, encoding is %d bytes", v, SizeU64(v), n)
			}
		}
	}
	if n := SizeBytes(200); n != 202 || len(AppendBytes(nil, make([]byte, 200))) != n {
		t.Fatalf("SizeBytes(200) = %d, AppendBytes wrote %d", n, len(AppendBytes(nil, make([]byte, 200))))
	}
}

// TestHostileVarint: a varint cut mid-value is truncated; one of eleven
// bytes or more, one whose tenth byte carries bits past 64, and one that
// is not the shortest encoding of its value are malformed. Each poisons
// the reader for good, and none panics.
func TestHostileVarint(t *testing.T) {
	cont := func(n int) []byte { return bytes.Repeat([]byte{0x80}, n) }
	for _, c := range []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"cut after one byte", []byte{0x80}, ErrTruncated},
		{"cut mid-value", AppendU64(nil, 1<<40)[:3], ErrTruncated},
		{"cut after nine continuation bytes", cont(9), ErrTruncated},
		{"eleven continuation bytes", append(cont(11), 1), ErrMalformed},
		{"tenth byte of 2", append(cont(9), 2), ErrMalformed},
		{"tenth byte of 0x7f", append(cont(9), 0x7f), ErrMalformed},
		{"overlong zero", []byte{0x80, 0}, ErrMalformed},
		{"overlong one", []byte{0x81, 0x80, 0}, ErrMalformed},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := NewReader(append(c.in, 1, 2, 3))
			if c.want == ErrTruncated {
				r = NewReader(c.in)
			}
			if got := r.U64(); got != 0 || r.Err() != c.want {
				t.Fatalf("U64 = %d, err %v; want 0, %v", got, r.Err(), c.want)
			}
			if r.Byte() != 0 || r.U64() != 0 || r.Err() != c.want {
				t.Fatalf("reads after the error: err %v, want %v", r.Err(), c.want)
			}
		})
	}
}
