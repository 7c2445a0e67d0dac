// Package codec provides the length-prefixed big-endian binary field codec
// shared by the SAP, billing, NAS and wire-protocol message formats.
//
// A message declares its fields once, in wire order, in a method that walks
// them with a Coder:
//
//	func (m *Msg) fields(c codec.Coder) codec.Coder {
//		c.String(&m.Name)
//		c.Uint32(&m.Count)
//		return c
//	}
//
// and that one list is its size (Size), its encoding (Encode, Append) and
// its decoding (Decode). Begin and End nest a length-prefixed span in place
// — a message inside a message, or the span a signature covers — and when
// reading, End hands back the span's bytes. A read error latches: the
// fields after it read nothing, and Decode returns it.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// ErrShort is returned when input is exhausted mid-field.
var ErrShort = errors.New("codec: input too short")

var errBool = errors.New("codec: bool byte is neither 0 nor 1")

type mode uint8

const (
	appending mode = iota // the zero value: a Coder{} appends to nil
	sizing
	reading
)

// Coder walks a message's fields in one of three modes: sizing, appending
// or reading. Each field method takes a pointer to the field, reads it when
// sizing or appending, and sets it when reading. A message's fields method
// takes the Coder and returns it by value, so the Coder stays on the stack
// even when that method is called through an interface.
type Coder struct {
	mode mode
	b    []byte // appending: the output; reading: the input
	n    int    // sizing: the length so far; reading: the offset of the next field
	end  int    // reading: where the innermost open span ends
	err  error  // reading: the first error
}

// Size is the length of what fields lists.
func Size(fields func(Coder) Coder) int { return fields(Coder{mode: sizing}).n }

// Encode returns what fields lists, in a buffer of exactly its size.
func Encode(fields func(Coder) Coder) []byte {
	return Append(make([]byte, 0, Size(fields)), fields)
}

// Reencode encodes what fields lists into buf's storage and returns it: for
// a scratch encoding — a span to hash or sign — in a buffer its owner keeps
// from call to call. The first encoding takes a buffer of exactly its size,
// and one that outgrows buf a larger one.
func Reencode(buf []byte, fields func(Coder) Coder) []byte {
	if cap(buf) == 0 {
		return Encode(fields)
	}
	return Append(buf[:0], fields)
}

// Append appends what fields lists to dst and returns the extended slice.
func Append(dst []byte, fields func(Coder) Coder) []byte { return fields(Coder{b: dst}).b }

// Decode sets what fields lists from b, which it must consume exactly.
// Decoded fields own their bytes, except those read with View, which alias
// b: a caller that reuses b (a frame buffer, an opened plaintext) copies
// such a field where it keeps it. A string field whose bytes equal what it
// already holds keeps that string (String).
func Decode(b []byte, fields func(Coder) Coder) error {
	c := fields(Coder{mode: reading, b: b, end: len(b)})
	return c.done()
}

func (c *Coder) done() error {
	if c.err == nil && c.n != c.end {
		return fmt.Errorf("codec: %d trailing bytes", c.end-c.n)
	}
	return c.err
}

// take consumes k bytes of the open span, or latches ErrShort and consumes
// nothing.
func (c *Coder) take(k int) []byte {
	if c.err != nil {
		return nil
	}
	if k < 0 || k > c.end-c.n {
		c.err = ErrShort
		return nil
	}
	c.n += k
	return c.b[c.n-k : c.n]
}

// read consumes a k-byte big-endian integer, k in {1, 4, 8}.
func (c *Coder) read(k int) uint64 {
	f := c.take(k)
	switch {
	case f == nil:
		return 0
	case k == 1:
		return uint64(f[0])
	case k == 4:
		return uint64(binary.BigEndian.Uint32(f))
	}
	return binary.BigEndian.Uint64(f)
}

// write sizes or appends a k-byte big-endian integer, k in {1, 4, 8}.
func (c *Coder) write(v uint64, k int) {
	switch {
	case c.mode == sizing:
		c.n += k
	case k == 1:
		c.b = append(c.b, byte(v))
	case k == 4:
		c.b = binary.BigEndian.AppendUint32(c.b, uint32(v))
	default:
		c.b = binary.BigEndian.AppendUint64(c.b, v)
	}
}

// field consumes a length-prefixed field in place; a failed read consumes
// nothing.
func (c *Coder) field() []byte {
	at := c.n
	f := c.take(int(c.read(4)))
	if c.err != nil {
		c.n = at
	}
	return f
}

// raw sizes or appends v without a length prefix.
func (c *Coder) raw(v []byte) {
	if c.mode == sizing {
		c.n += len(v)
	} else {
		c.b = append(c.b, v...)
	}
}

// Bytes codes a length-prefixed byte field. Reading, it copies: an empty
// field decodes nil.
func (c *Coder) Bytes(v *[]byte) {
	if c.mode != reading {
		c.write(uint64(len(*v)), 4)
		c.raw(*v)
	} else if f := c.field(); len(f) > 0 {
		*v = append([]byte(nil), f...)
	} else {
		*v = nil
	}
}

// View is Bytes, except that what it reads aliases the input.
func (c *Coder) View(v *[]byte) {
	if c.mode != reading {
		c.Bytes(v)
	} else {
		*v = c.field()
	}
}

// String codes a length-prefixed string field. Reading, a field whose
// bytes equal *v leaves *v as it is: a caller that already holds the
// identifier a message should carry sets it before decoding, and the
// decoder adopts the held string instead of allocating a copy. Any other
// bytes decode to a string of their own.
func (c *Coder) String(v *string) {
	if c.mode != reading {
		c.write(uint64(len(*v)), 4)
		if c.mode == sizing {
			c.n += len(*v)
		} else {
			c.b = append(c.b, *v...)
		}
	} else if f := c.field(); string(f) != *v {
		*v = string(f)
	}
}

// Fixed codes a length-prefixed field of exactly len(v) bytes, such as an
// array's: reading, any other length is an error, and consumes nothing.
func (c *Coder) Fixed(v []byte) {
	if c.mode != reading {
		c.write(uint64(len(v)), 4)
		c.raw(v)
		return
	}
	at := c.n
	if f := c.field(); c.err == nil && len(f) != len(v) {
		c.n, c.err = at, fmt.Errorf("codec: a %d-byte field where %d belong", len(f), len(v))
	} else {
		copy(v, f)
	}
}

// Raw codes len(v) bytes with no length prefix.
func (c *Coder) Raw(v []byte) {
	if c.mode != reading {
		c.raw(v)
	} else {
		copy(v, c.take(len(v)))
	}
}

// Byte codes a single byte.
func (c *Coder) Byte(v *byte) {
	if c.mode != reading {
		c.write(uint64(*v), 1)
	} else {
		*v = byte(c.read(1))
	}
}

// Bool codes a single 0/1 byte. Reading, any other byte is an error, so a
// decoded message re-encodes to the bytes it came from; like every failed
// read, it consumes nothing.
func (c *Coder) Bool(v *bool) {
	if c.mode != reading {
		var b uint64
		if *v {
			b = 1
		}
		c.write(b, 1)
		return
	}
	switch c.read(1) {
	case 0:
		*v = false
	case 1:
		*v = true
	default:
		c.n--
		c.err, *v = errBool, false
	}
}

// Uint32 codes a fixed 4-byte field.
func (c *Coder) Uint32(v *uint32) {
	if c.mode != reading {
		c.write(uint64(*v), 4)
	} else {
		*v = uint32(c.read(4))
	}
}

// Uint64 codes a fixed 8-byte field.
func (c *Coder) Uint64(v *uint64) {
	if c.mode != reading {
		c.write(*v, 8)
	} else {
		*v = c.read(8)
	}
}

// Int64 codes a signed 8-byte field, two's complement.
func (c *Coder) Int64(v *int64) {
	if c.mode != reading {
		c.write(uint64(*v), 8)
	} else {
		*v = int64(c.read(8))
	}
}

// Float64 codes an IEEE-754 big-endian float.
func (c *Coder) Float64(v *float64) {
	if c.mode != reading {
		c.write(math.Float64bits(*v), 8)
	} else {
		*v = math.Float64frombits(c.read(8))
	}
}

// Unix codes a time as its whole Unix seconds, in 8 bytes.
func (c *Coder) Unix(v *time.Time) {
	if c.mode != reading {
		c.write(uint64(v.Unix()), 8)
	} else {
		*v = time.Unix(int64(c.read(8)), 0)
	}
}

// Span is an open length-prefixed span, from Begin to its End.
type Span struct{ at, end int }

// Begin opens a length-prefixed span whose content is the fields coded
// until End: a nested message is encoded in place, in the buffer it is a
// field of. Spans nest; each End takes the Span its Begin returned.
func (c *Coder) Begin() Span {
	switch c.mode {
	case sizing:
		c.n += 4
		return Span{}
	case appending:
		c.b = append(c.b, 0, 0, 0, 0)
		return Span{at: len(c.b)}
	}
	s := Span{end: c.end}
	if f := c.field(); c.err == nil {
		s.at = c.n - len(f)
		c.n, c.end = s.at, c.n // the fields until End read the span alone
	}
	return s
}

// End closes the span s opened. Reading, the span's fields must have
// consumed it exactly, and End returns its bytes (nil after an error, which
// consumes nothing); otherwise it returns nil.
func (c *Coder) End(s Span) []byte {
	switch c.mode {
	case sizing:
		return nil
	case appending:
		binary.BigEndian.PutUint32(c.b[s.at-4:], uint32(len(c.b)-s.at))
		return nil
	}
	err := c.done()
	if c.end = s.end; err != nil {
		c.err = err
		return nil
	}
	return c.b[s.at:c.n]
}

// Optional codes the presence of a trailing optional group of fields:
// sizing or appending, present; reading, whether the open span has bytes
// left.
func (c *Coder) Optional(present bool) bool {
	if c.mode != reading {
		return present
	}
	return c.err == nil && c.n < c.end
}

// Check latches err when reading and ok is false: a decoded value the
// format does not allow.
func (c *Coder) Check(ok bool, err error) {
	if c.mode == reading && !ok && c.err == nil {
		c.err = err
	}
}

// List codes the count of a list and returns the slice its elements are
// then coded into, one after another: *v, or when reading, *v made anew at
// the decoded count (nil for none). The count goes on the wire times unit —
// 1 for a count, or an element's size for elements of that fixed size laid
// end to end, whose length prefix it then is. Reading, a count above max,
// or a length no multiple of unit, latches tooMany before anything is
// allocated, and consumes nothing.
func List[T any](c *Coder, v *[]T, unit, max int, tooMany error) []T {
	if c.mode != reading {
		c.write(uint64(unit*len(*v)), 4)
		return *v
	}
	n := c.read(4)
	if c.err == nil && (n%uint64(unit) != 0 || n/uint64(unit) > uint64(max)) {
		c.n, c.err = c.n-4, tooMany
	}
	*v = nil
	if c.err == nil && n > 0 {
		*v = make([]T, n/uint64(unit))
	}
	return *v
}
