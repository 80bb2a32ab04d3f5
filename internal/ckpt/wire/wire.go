// Package wire is the binary codec underneath warm-state checkpoints.
//
// It is deliberately a leaf package with no imports from the simulator so
// that every stateful component (caches, predictor tables, trace-cache
// storage, the load address generator) can expose Append/Load methods
// without creating import cycles. Integers are unsigned LEB128 varints,
// so the small values that dominate warm state (tags, LRU distances,
// lengths, table entries) mostly take one to three bytes, not eight; the
// encoding is allocation-conscious on the append side and — critically
// for the checkpoint-as-cache contract — impossible to make panic on
// hostile input. A torn or corrupt snapshot must decode into a clean
// error, never a crash, and only the shortest encoding of a value
// decodes, so equal states have one encoding.
package wire

import (
	"encoding/binary"
	"errors"
	"math/bits"
)

// ErrTruncated is reported when a reader runs past the end of its buffer.
var ErrTruncated = errors.New("wire: truncated input")

// ErrMalformed is reported for structurally invalid input, e.g. a length
// prefix that exceeds the bytes remaining, or a varint that is overlong
// or overflows 64 bits.
var ErrMalformed = errors.New("wire: malformed input")

// AppendU64 appends v as an unsigned LEB128 varint: seven bits a byte,
// low bits first, one byte below 128 and at most ten.
func AppendU64(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// SizeU64 returns the length AppendU64 appends for v.
func SizeU64(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// SizeBytes returns the length AppendBytes appends for n bytes.
func SizeBytes(n int) int { return SizeU64(uint64(n)) + n }

// AppendBool appends b as a single byte.
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendByte appends a single raw byte.
func AppendByte(dst []byte, b byte) []byte { return append(dst, b) }

// AppendBytes appends a varint length prefix followed by the raw bytes.
func AppendBytes(dst []byte, b []byte) []byte {
	dst = AppendU64(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendString appends s with a varint length prefix.
func AppendString(dst []byte, s string) []byte {
	dst = AppendU64(dst, uint64(len(s)))
	return append(dst, s...)
}

// Reader decodes a buffer written with the Append functions. Errors are
// sticky: after the first short or malformed read every subsequent call
// returns a zero value, so decode loops can defer the single error check
// to the end. A failed read also consumes the rest of the input (fail), so
// U64's fast path needs no error check of its own.
type Reader struct {
	b   []byte
	pos int
	err error
}

// NewReader wraps b for decoding. The reader aliases b; callers must not
// mutate it mid-decode.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// U64 decodes a varint. Input that ends inside it is ErrTruncated; one
// longer than ten bytes, over 64 bits, or not the shortest encoding of
// its value (a last byte of zero) is ErrMalformed.
//
// Warm state is mostly two- and three-byte varints of mixed length, which
// a byte loop decodes at a branch misprediction apiece. So a varint that
// ends within eight readable bytes decodes from one 64-bit load without a
// branch on its length; the rest, and every error, take u64.
func (r *Reader) U64() uint64 {
	if r.pos <= len(r.b)-8 {
		x := binary.LittleEndian.Uint64(r.b[r.pos:])
		if stop := ^x & 0x8080808080808080; stop != 0 {
			// The varint ends in byte k, the first with its top bit
			// clear; keep bytes 0..k (all eight for k = 7, where the
			// shift reaches 64) without their continuation bits.
			end := uint(bits.TrailingZeros64(stop)) + 1 // 8(k+1)
			x &= (1<<end - 1) & 0x7f7f7f7f7f7f7f7f
			if end > 8 && x>>(end-8) == 0 {
				r.fail(ErrMalformed) // not the shortest encoding
				return 0
			}
			// Pack the 7-bit groups: pairs, then quads, then all eight.
			x = x&0x007f007f007f007f | x>>1&0x3f803f803f803f80
			x = x&0x00003fff00003fff | x>>2&0x0fffc0000fffc000
			x = x&0x000000000fffffff | x>>4&0x00ffffff_f0000000
			r.pos += int(end / 8)
			return x
		}
	}
	return r.u64()
}

// u64 is U64's general case: a varint near the end of the input or longer
// than eight bytes, or an error.
func (r *Reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.pos:])
	switch {
	case n == 0:
		r.fail(ErrTruncated)
		return 0
	case n < 0 || (n > 1 && r.b[r.pos+n-1] == 0):
		r.fail(ErrMalformed)
		return 0
	}
	r.pos += n
	return v
}

// fail records err as the reader's error and consumes the rest of the
// input.
func (r *Reader) fail(err error) {
	r.err = err
	r.pos = len(r.b)
}

// Bool decodes a single byte as a bool. Any nonzero byte is true.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// Byte decodes one raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.b) {
		r.fail(ErrTruncated)
		return 0
	}
	v := r.b[r.pos]
	r.pos++
	return v
}

// Bytes decodes a length-prefixed byte slice. The result aliases the
// reader's buffer; callers that retain it must copy.
func (r *Reader) Bytes() []byte {
	n := r.U64()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)-r.pos) {
		r.fail(ErrMalformed)
		return nil
	}
	v := r.b[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return v
}

// String decodes a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// Len decodes a u64 and validates it against max — and against the bytes
// remaining, since every element of the loop it gates consumes at least
// one — for use as a slice length before a decode loop. Invalid values
// poison the reader, which bounds memory and iteration on corrupt input.
func (r *Reader) Len(max int) int { return r.Count(max, 1) }

// Count is Len for a loop whose elements each consume at least size
// bytes, the smallest encoding of one element (a varint takes one): the
// decoded length must also fit the remaining bytes at size apiece.
func (r *Reader) Count(max, size int) int {
	n := r.U64()
	if r.err != nil {
		return 0
	}
	if n > uint64(max) || n > uint64((len(r.b)-r.pos)/size) {
		r.fail(ErrMalformed)
		return 0
	}
	return int(n)
}

// TwoPass restores a payload in place with the all-or-nothing contract of
// a decode into scratch, without the scratch copy: decode runs first with
// apply false, only validating, and then, if that succeeded, again from
// the same position with apply true, storing straight into its target. A
// failed first pass leaves the target untouched and r holding the error.
// It rewinds r rather than validate over a copy of it, which would escape
// to the heap through the indirect call: a restore allocates nothing.
func (r *Reader) TwoPass(decode func(r *Reader, apply bool) error) error {
	pos, err := r.pos, r.err
	if err := decode(r, false); err != nil {
		return err
	}
	r.pos, r.err = pos, err
	return decode(r, true)
}

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Done returns the first error encountered, or ErrMalformed if undecoded
// bytes remain. Call it after the last field of a fixed-shape decode.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.b) {
		return ErrMalformed
	}
	return nil
}
