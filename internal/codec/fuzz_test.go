package codec

import (
	"bytes"
	"testing"
)

// readOps is how many kinds of Reader call FuzzCodecReader draws from.
const readOps = 8

// FuzzCodecReader drives Reader directly: ops picks a sequence of calls
// (one byte each, modulo readOps), data is what they read. Whatever the
// bytes, the Reader does not panic; no slice or string it returns is
// longer than the input left when it was read; a failed read consumes
// nothing; and the prefix it consumed re-encodes, through Writer calls
// mirroring the successful reads, to the same bytes — which is what makes
// every decoder built on it canonical. Done is nil exactly when nothing
// failed and nothing is left.
func FuzzCodecReader(f *testing.F) {
	w := NewWriter(0)
	w.Bytes([]byte{1, 2, 3})
	w.String("hello")
	w.Uint32(0xDEADBEEF)
	w.Uint64(1 << 60)
	w.Byte(0x7F)
	w.Bool(true)
	w.Float64(-2.5)
	w.Bytes(nil)
	valid := w.Out()
	f.Add([]byte{0, 2, 3, 4, 5, 6, 7, 1}, valid)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 0}, valid)
	f.Add([]byte{0}, []byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})
	f.Add([]byte{2, 2}, []byte{0, 0, 0, 1, 'x', 0, 0})
	f.Add([]byte{7, 3, 4}, []byte{0x7F, 0xF8, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, ops, data []byte) {
		r := NewReader(data)
		var out Writer
		for _, op := range ops {
			left := r.Len()
			var got int // bytes a returned slice or string holds
			switch op % readOps {
			case 0:
				v := r.Bytes()
				got = len(v)
				if r.Err() == nil {
					out.Bytes(v)
				}
			case 1:
				v := r.BytesCopy()
				got = len(v)
				if r.Err() == nil {
					out.Bytes(v)
				}
			case 2:
				v := r.String()
				got = len(v)
				if r.Err() == nil {
					out.String(v)
				}
			case 3:
				if v := r.Uint32(); r.Err() == nil {
					out.Uint32(v)
				}
			case 4:
				if v := r.Uint64(); r.Err() == nil {
					out.Uint64(v)
				}
			case 5:
				if v := r.Byte(); r.Err() == nil {
					out.Byte(v)
				}
			case 6:
				if v := r.Bool(); r.Err() == nil {
					out.Bool(v)
				}
			case 7:
				if v := r.Float64(); r.Err() == nil {
					out.Float64(v)
				}
			}
			if got > left {
				t.Fatalf("op %d returned %d bytes with %d left", op%readOps, got, left)
			}
			if r.Err() != nil && r.Len() != left {
				t.Fatalf("op %d failed and consumed %d bytes", op%readOps, left-r.Len())
			}
		}
		consumed := data[:len(data)-r.Len()]
		if !bytes.Equal(out.Out(), consumed) {
			t.Fatalf("consumed %x, re-encoded %x", consumed, out.Out())
		}
		if done := r.Done(); (done == nil) != (r.Err() == nil && r.Len() == 0) {
			t.Fatalf("Done = %v with error %v and %d bytes left", done, r.Err(), r.Len())
		}
	})
}
