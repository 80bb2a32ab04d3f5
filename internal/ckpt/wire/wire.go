// Package wire is the binary codec underneath warm-state checkpoints.
//
// It is deliberately a leaf package with no imports from the simulator so
// that every stateful component (caches, predictor tables, trace-cache
// storage, the load address generator) can expose Append/Load methods
// without creating import cycles. The encoding is fixed-width
// little-endian: simple, allocation-conscious on the append side, and —
// critically for the checkpoint-as-cache contract — impossible to make
// panic on hostile input. A torn or corrupt snapshot must decode into a
// clean error, never a crash.
package wire

import (
	"encoding/binary"
	"errors"
)

// ErrTruncated is reported when a reader runs past the end of its buffer.
var ErrTruncated = errors.New("wire: truncated input")

// ErrMalformed is reported for structurally invalid input, e.g. a length
// prefix that exceeds the bytes remaining.
var ErrMalformed = errors.New("wire: malformed input")

// AppendU64 appends v in little-endian order.
func AppendU64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

// AppendBool appends b as a single byte.
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendByte appends a single raw byte.
func AppendByte(dst []byte, b byte) []byte { return append(dst, b) }

// AppendBytes appends a u64 length prefix followed by the raw bytes.
func AppendBytes(dst []byte, b []byte) []byte {
	dst = AppendU64(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendString appends s with a u64 length prefix.
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

// U64 decodes a little-endian uint64.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.pos+8 > len(r.b) {
		r.err = ErrTruncated
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.pos:])
	r.pos += 8
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

// Count is Len for a loop whose elements each consume size bytes: the
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
