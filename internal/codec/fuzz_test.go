package codec

import (
	"bytes"
	"testing"
)

// readOps is how many kinds of field read FuzzCodecReader draws from.
const readOps = 8

// FuzzCodecReader drives a Coder in reading mode field by field: ops picks
// a sequence of reads (one byte each, modulo readOps), data is what they
// read. Whatever the bytes, the Coder does not panic; no slice or string a
// read sets is longer than the input left when it was read; a failed read
// consumes nothing; and the prefix it consumed re-encodes, through an
// appending Coder mirroring the successful reads, to the same bytes —
// which is what makes every decoder built on it canonical. done is nil
// exactly when nothing failed and nothing is left.
func FuzzCodecReader(f *testing.F) {
	valid := Encode(func(c Coder) Coder {
		b, s, none := []byte{1, 2, 3}, "hello", []byte(nil)
		u32, u64, by, on, fl := uint32(0xDEADBEEF), uint64(1<<60), byte(0x7F), true, -2.5
		c.Bytes(&b)
		c.String(&s)
		c.Uint32(&u32)
		c.Uint64(&u64)
		c.Byte(&by)
		c.Bool(&on)
		c.Float64(&fl)
		c.Bytes(&none)
		return c
	})
	f.Add([]byte{0, 2, 3, 4, 5, 6, 7, 1}, valid)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 0}, valid)
	f.Add([]byte{0}, []byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})
	f.Add([]byte{2, 2}, []byte{0, 0, 0, 1, 'x', 0, 0})
	f.Add([]byte{7, 3, 4}, []byte{0x7F, 0xF8, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, ops, data []byte) {
		r := reader(data)
		var out Coder // appending
		for _, op := range ops {
			left := r.end - r.n
			var got int // bytes a read slice or string holds
			switch op % readOps {
			case 0:
				var v []byte
				r.View(&v)
				got = len(v)
				if r.err == nil {
					out.Bytes(&v)
				}
			case 1:
				var v []byte
				r.Bytes(&v)
				got = len(v)
				if r.err == nil {
					out.Bytes(&v)
				}
			case 2:
				var v string
				r.String(&v)
				got = len(v)
				if r.err == nil {
					out.String(&v)
				}
			case 3:
				var v uint32
				if r.Uint32(&v); r.err == nil {
					out.Uint32(&v)
				}
			case 4:
				var v uint64
				if r.Uint64(&v); r.err == nil {
					out.Uint64(&v)
				}
			case 5:
				var v byte
				if r.Byte(&v); r.err == nil {
					out.Byte(&v)
				}
			case 6:
				var v bool
				if r.Bool(&v); r.err == nil {
					out.Bool(&v)
				}
			case 7:
				var v float64
				if r.Float64(&v); r.err == nil {
					out.Float64(&v)
				}
			}
			if got > left {
				t.Fatalf("op %d read %d bytes with %d left", op%readOps, got, left)
			}
			if r.err != nil && r.end-r.n != left {
				t.Fatalf("op %d failed and consumed %d bytes", op%readOps, left-(r.end-r.n))
			}
		}
		if consumed := data[:r.n]; !bytes.Equal(out.b, consumed) {
			t.Fatalf("consumed %x, re-encoded %x", consumed, out.b)
		}
		if done := r.done(); (done == nil) != (r.err == nil && r.n == r.end) {
			t.Fatalf("done = %v with error %v and %d bytes left", done, r.err, r.end-r.n)
		}
	})
}
