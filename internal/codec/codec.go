// Package codec provides the length-prefixed big-endian binary field codec
// shared by the SAP, billing, and wire-protocol message formats.
//
// The Writer appends fields; the Reader consumes them in the same order
// and accumulates the first error, so decoding code stays linear:
//
//	r := codec.NewReader(b)
//	v.Name = r.String()
//	v.Count = r.Uint32()
//	return r.Done()
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrShort is returned when input is exhausted mid-field.
var ErrShort = errors.New("codec: input too short")

var errBool = errors.New("codec: bool byte is neither 0 nor 1")

// Writer accumulates encoded fields.
type Writer struct{ b []byte }

// NewWriter returns a Writer with optional capacity hint.
func NewWriter(sizeHint int) *Writer { return &Writer{b: make([]byte, 0, sizeHint)} }

// AppendTo returns a Writer whose fields extend dst; Out returns the
// extended slice. The allocation-free path for callers that reuse a
// scratch buffer.
func AppendTo(dst []byte) Writer { return Writer{b: dst} }

// Bytes appends a length-prefixed byte field.
func (w *Writer) Bytes(v []byte) {
	w.b = binary.BigEndian.AppendUint32(w.b, uint32(len(v)))
	w.b = append(w.b, v...)
}

// String appends a length-prefixed string field.
func (w *Writer) String(v string) {
	w.b = binary.BigEndian.AppendUint32(w.b, uint32(len(v)))
	w.b = append(w.b, v...)
}

// Begin opens a length-prefixed field whose content is whatever the caller
// appends until End: a nested message is encoded in place, in the buffer it
// is a field of, where Bytes(inner.Marshal()) builds it apart and copies
// it. Fields nest; each End takes the mark its Begin returned.
func (w *Writer) Begin() (mark int) {
	w.b = append(w.b, 0, 0, 0, 0)
	return len(w.b)
}

// End closes the field opened at mark by writing its length prefix.
func (w *Writer) End(mark int) {
	binary.BigEndian.PutUint32(w.b[mark-4:], uint32(len(w.b)-mark))
}

// Uint32 appends a fixed 4-byte field.
func (w *Writer) Uint32(v uint32) { w.b = binary.BigEndian.AppendUint32(w.b, v) }

// Uint64 appends a fixed 8-byte field.
func (w *Writer) Uint64(v uint64) { w.b = binary.BigEndian.AppendUint64(w.b, v) }

// Byte appends a single byte.
func (w *Writer) Byte(v byte) { w.b = append(w.b, v) }

// Bool appends a single 0/1 byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

// Float64 appends an IEEE-754 big-endian float.
func (w *Writer) Float64(v float64) { w.Uint64(math.Float64bits(v)) }

// Out returns the accumulated encoding.
func (w *Writer) Out() []byte { return w.b }

// Reader consumes encoded fields, latching the first error.
type Reader struct {
	b   []byte
	err error
}

// NewReader wraps b for decoding.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Bytes reads a length-prefixed byte field. The returned slice aliases the
// input; callers that retain it must copy.
func (r *Reader) Bytes() []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < 4 {
		r.err = ErrShort
		return nil
	}
	n := binary.BigEndian.Uint32(r.b)
	if uint64(len(r.b)-4) < uint64(n) {
		r.err = ErrShort
		return nil
	}
	v := r.b[4 : 4+n]
	r.b = r.b[4+n:]
	return v
}

// BytesCopy reads a length-prefixed byte field into fresh storage.
func (r *Reader) BytesCopy() []byte {
	v := r.Bytes()
	if v == nil {
		return nil
	}
	return append([]byte(nil), v...)
}

// String reads a length-prefixed string field.
func (r *Reader) String() string { return string(r.Bytes()) }

// Uint32 reads a fixed 4-byte field.
func (r *Reader) Uint32() uint32 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 4 {
		r.err = ErrShort
		return 0
	}
	v := binary.BigEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

// Uint64 reads a fixed 8-byte field.
func (r *Reader) Uint64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.err = ErrShort
		return 0
	}
	v := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

// Byte reads a single byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 1 {
		r.err = ErrShort
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// Bool reads a single 0/1 byte; any other byte is an error, so a decoded
// message re-encodes to the bytes it came from. Like every failed read, it
// consumes nothing.
func (r *Reader) Bool() bool {
	if r.err == nil && len(r.b) > 0 && r.b[0] > 1 {
		r.err = errBool
		return false
	}
	return r.Byte() == 1
}

// Float64 reads an IEEE-754 big-endian float.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// Err returns the latched error, if any.
func (r *Reader) Err() error { return r.err }

// Len returns how many bytes are left to read: a format with an optional
// trailing field asks before it reads one.
func (r *Reader) Len() int { return len(r.b) }

// Done returns the latched error, or an error when input remains.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("codec: %d trailing bytes", len(r.b))
	}
	return nil
}
