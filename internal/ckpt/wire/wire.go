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
// to the end.
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
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.pos:])
	switch {
	case n == 0:
		r.err = ErrTruncated
		return 0
	case n < 0 || (n > 1 && r.b[r.pos+n-1] == 0):
		r.err = ErrMalformed
		return 0
	}
	r.pos += n
	return v
}

// Bool decodes a single byte as a bool. Any nonzero byte is true.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// Byte decodes one raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.b) {
		r.err = ErrTruncated
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
		r.err = ErrMalformed
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
		r.err = ErrMalformed
		return 0
	}
	return int(n)
}

// TwoPass restores a payload in place with the all-or-nothing contract of
// a decode into scratch, without the scratch copy: decode runs first over
// a copy of r with apply false, only validating, and then, if that
// succeeded, over r with apply true, storing straight into its target. A
// failed first pass leaves the target untouched and r holding the error.
func (r *Reader) TwoPass(decode func(r *Reader, apply bool) error) error {
	check := *r
	if err := decode(&check, false); err != nil {
		*r = check
		return err
	}
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
