package codec

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

// readOps is how many kinds of field read FuzzCodecReader draws from.
const readOps = 16

// FuzzCodecReader drives a Coder in reading mode field by field: ops picks
// a sequence of reads (one byte each, modulo readOps), data is what they
// read. Whatever the bytes, the Coder does not panic; no slice or string a
// read sets, and no span Begin opens, is longer than the input left when
// it was read; a failed read consumes nothing; and the prefix it consumed
// re-encodes, through an appending Coder mirroring the successful reads, to
// the same bytes — which is what makes every decoder built on it canonical.
// A List op reads the count alone (the elements are whatever ops follow),
// an End closes the innermost span a Begin opened and returns its bytes,
// and a span still open when the ops run out is compared at the length its
// prefix declares. done is nil exactly when nothing failed and nothing is
// left.
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
	nested := Encode(func(c Coder) Coder {
		fx, i64, when := [4]byte{1, 2, 3, 4}, int64(-7), time.Unix(1_700_000_000, 0)
		s := c.Begin()
		c.Fixed(fx[:])
		c.Int64(&i64)
		c.End(s)
		c.Unix(&when)
		ns := []uint32{5, 6}
		for i := range List(&c, &ns, 1, 4, errTooMany) {
			c.Uint32(&ns[i])
		}
		ws := [][4]byte{{9, 9, 9, 9}}
		for i := range List(&c, &ws, 4, 3, errTooMany) {
			c.Raw(ws[i][:])
		}
		return c
	})
	f.Add([]byte{13, 8, 9, 14, 15, 10, 11, 3, 3, 12, 8}, nested)
	f.Add([]byte{13, 8, 14, 9}, nested)                         // End with a field of the span left
	f.Add([]byte{13, 13, 8}, nested)                            // Begin over a field that is no span
	f.Add([]byte{11, 12, 8}, []byte{0, 0, 0, 9, 0, 0, 0, 6, 0}) // a count over max, a length no multiple of the unit
	f.Fuzz(func(t *testing.T, ops, data []byte) {
		r := reader(data)
		var out Coder // appending
		// open is a span Begin opened in both Coders, with its content's
		// length; unfinished patches the mirror's prefix, which only End
		// writes, for a span whose End never succeeds.
		type open struct {
			r, out Span
			size   int
		}
		var spans []open
		unfinished := func(s open) { binary.BigEndian.PutUint32(out.b[s.out.at-4:], uint32(s.size)) }
		for _, op := range ops {
			at, left := r.n, r.end-r.n
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
			case 8:
				var v [4]byte
				if r.Fixed(v[:]); r.err == nil {
					out.Fixed(v[:])
				}
			case 9:
				var v int64
				if r.Int64(&v); r.err == nil {
					out.Int64(&v)
				}
			case 10:
				var v time.Time
				if r.Unix(&v); r.err == nil {
					out.Unix(&v)
				}
			case 11:
				var v []uint32
				if List(r, &v, 1, 4, errTooMany); r.err == nil {
					List(&out, &v, 1, 4, errTooMany)
				}
			case 12:
				var v [][4]byte
				if List(r, &v, 4, 3, errTooMany); r.err == nil {
					List(&out, &v, 4, 3, errTooMany)
				}
			case 13:
				if s := r.Begin(); r.err == nil {
					got = r.end - r.n
					spans = append(spans, open{s, out.Begin(), got})
				}
			case 14:
				if len(spans) == 0 {
					continue
				}
				s := spans[len(spans)-1]
				spans = spans[:len(spans)-1]
				b := r.End(s.r)
				if r.err != nil {
					unfinished(s)
					break
				}
				out.End(s.out)
				if !bytes.Equal(b, data[r.n-s.size:r.n]) {
					t.Fatalf("End returned %x, the span holds %x", b, data[r.n-s.size:r.n])
				}
			case 15:
				if more := r.Optional(true); more != (r.err == nil && r.n < r.end) || r.n != at {
					t.Fatalf("Optional = %v with error %v and %d of %d bytes left", more, r.err, r.end-r.n, left)
				}
			}
			if got > left {
				t.Fatalf("op %d read %d bytes with %d left", op%readOps, got, left)
			}
			if r.err != nil && r.n != at {
				t.Fatalf("op %d failed and consumed %d bytes", op%readOps, r.n-at)
			}
		}
		for _, s := range spans {
			unfinished(s)
		}
		if consumed := data[:r.n]; !bytes.Equal(out.b, consumed) {
			t.Fatalf("consumed %x, re-encoded %x", consumed, out.b)
		}
		if done := r.done(); (done == nil) != (r.err == nil && r.n == r.end) {
			t.Fatalf("done = %v with error %v and %d bytes left", done, r.err, r.end-r.n)
		}
	})
}
