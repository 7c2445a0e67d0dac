package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestRoundTripAllFieldTypes(t *testing.T) {
	w := NewWriter(64)
	w.Bytes([]byte{1, 2, 3})
	w.String("hello")
	w.Uint32(0xDEADBEEF)
	w.Uint64(1 << 60)
	w.Byte(0x7F)
	w.Bool(true)
	w.Bool(false)
	w.Float64(3.14159)

	r := NewReader(w.Out())
	if got := r.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("bytes = %v", got)
	}
	if got := r.String(); got != "hello" {
		t.Fatalf("string = %q", got)
	}
	if got := r.Uint32(); got != 0xDEADBEEF {
		t.Fatalf("u32 = %x", got)
	}
	if got := r.Uint64(); got != 1<<60 {
		t.Fatalf("u64 = %x", got)
	}
	if got := r.Byte(); got != 0x7F {
		t.Fatalf("byte = %x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("bools wrong")
	}
	if got := r.Float64(); got != 3.14159 {
		t.Fatalf("float = %v", got)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyFields(t *testing.T) {
	w := NewWriter(0)
	w.Bytes(nil)
	w.String("")
	r := NewReader(w.Out())
	if got := r.Bytes(); len(got) != 0 {
		t.Fatalf("bytes = %v", got)
	}
	if got := r.String(); got != "" {
		t.Fatalf("string = %q", got)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestErrorLatching(t *testing.T) {
	r := NewReader([]byte{0, 0}) // too short for anything
	_ = r.Uint32()
	if !errors.Is(r.Err(), ErrShort) {
		t.Fatalf("err = %v", r.Err())
	}
	// Subsequent reads return zero values without panicking.
	if r.Uint64() != 0 || r.Byte() != 0 || r.String() != "" || r.Bytes() != nil || r.Bool() || r.Float64() != 0 {
		t.Fatal("post-error reads not zero")
	}
	if !errors.Is(r.Done(), ErrShort) {
		t.Fatal("Done did not surface latched error")
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	w := NewWriter(8)
	w.Uint32(7)
	r := NewReader(append(w.Out(), 0xFF))
	if r.Uint32() != 7 {
		t.Fatal("value wrong")
	}
	if err := r.Done(); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestMaliciousLengthPrefix(t *testing.T) {
	// Length prefix claims 4 GB: must latch ErrShort, not allocate.
	r := NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})
	if got := r.Bytes(); got != nil {
		t.Fatalf("got %d bytes", len(got))
	}
	if !errors.Is(r.Err(), ErrShort) {
		t.Fatalf("err = %v", r.Err())
	}
}

func TestBytesCopyIndependent(t *testing.T) {
	w := NewWriter(16)
	w.Bytes([]byte{9, 9, 9})
	buf := w.Out()
	r := NewReader(buf)
	got := r.BytesCopy()
	buf[4] = 0 // mutate underlying storage
	if got[0] != 9 {
		t.Fatal("BytesCopy aliases input")
	}
}

func TestFloatSpecials(t *testing.T) {
	for _, v := range []float64{0, math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64} {
		w := NewWriter(8)
		w.Float64(v)
		if got := NewReader(w.Out()).Float64(); got != v {
			t.Fatalf("float %v -> %v", v, got)
		}
	}
	// NaN round-trips as NaN.
	w := NewWriter(8)
	w.Float64(math.NaN())
	if got := NewReader(w.Out()).Float64(); !math.IsNaN(got) {
		t.Fatalf("NaN -> %v", got)
	}
}

// Property: any sequence of (bytes, string, u32, u64) fields round-trips.
func TestPropertyMixedRoundTrip(t *testing.T) {
	f := func(b1 []byte, s1 string, u32 uint32, u64 uint64, by byte) bool {
		w := NewWriter(0)
		w.Bytes(b1)
		w.String(s1)
		w.Uint32(u32)
		w.Uint64(u64)
		w.Byte(by)
		r := NewReader(w.Out())
		return bytes.Equal(r.Bytes(), b1) && r.String() == s1 &&
			r.Uint32() == u32 && r.Uint64() == u64 && r.Byte() == by && r.Done() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: decoding any random garbage either errors or consumes input
// without panicking.
func TestPropertyGarbageSafe(t *testing.T) {
	f := func(garbage []byte) bool {
		r := NewReader(garbage)
		_ = r.Bytes()
		_ = r.String()
		_ = r.Uint64()
		_ = r.Done()
		return true // reaching here without panic is the property
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestBoolIsStrict: a bool byte other than 0 or 1 is an error, not true —
// otherwise a decoded message would not re-encode to its own bytes.
func TestBoolIsStrict(t *testing.T) {
	for b, want := range map[byte]bool{0: false, 1: true} {
		r := NewReader([]byte{b})
		if got := r.Bool(); got != want || r.Done() != nil {
			t.Fatalf("byte %d: %v, %v", b, got, r.Done())
		}
	}
	r := NewReader([]byte{2, 1})
	if r.Bool(); r.Bool() || r.Done() == nil {
		t.Fatal("byte 2 decoded as a bool")
	}
}

// msg exercises every Coder field kind through one list.
type msg struct {
	name   string
	raw    []byte
	view   []byte
	nonce  [4]byte
	tag    [2]byte
	n32    uint32
	n64    uint64
	i64    int64
	by     byte
	ok     bool
	f      float64
	at     time.Time
	list   []string
	signed []byte // read: the nested span's bytes
	extra  *uint32
}

var errTooMany = errors.New("too many")

func (m *msg) fields(c Coder) Coder {
	span := c.Begin()
	c.String(&m.name)
	c.Bytes(&m.raw)
	c.View(&m.view)
	c.Fixed(m.nonce[:])
	if signed := c.End(span); signed != nil {
		m.signed = signed
	}
	c.Raw(m.tag[:])
	c.Uint32(&m.n32)
	c.Uint64(&m.n64)
	c.Int64(&m.i64)
	c.Byte(&m.by)
	c.Bool(&m.ok)
	c.Float64(&m.f)
	c.Unix(&m.at)
	list := List(&c, &m.list, 1, 3, errTooMany)
	for i := range list {
		c.String(&list[i])
	}
	if c.Optional(m.extra != nil) {
		if m.extra == nil {
			m.extra = new(uint32)
		}
		c.Uint32(m.extra)
	}
	return c
}

// One list is the size, the encoding and the decoding; a decoded message
// re-encodes to its bytes, owns them except for View, and End hands back
// the nested span it closed.
func TestCoderOneListThreeModes(t *testing.T) {
	extra := uint32(7)
	in := &msg{name: "n", raw: []byte{1}, view: []byte{2, 3}, nonce: [4]byte{4}, tag: [2]byte{5, 6}, n32: 8, n64: 9,
		i64: -10, by: 11, ok: true, f: 1.5, at: time.Unix(1_700_000_000, 0), list: []string{"a", "bc"}, extra: &extra}
	b := Encode(in.fields)
	if len(b) != Size(in.fields) || cap(b) != len(b) {
		t.Fatalf("%d bytes in a buffer of %d, Size %d", len(b), cap(b), Size(in.fields))
	}
	if got := Append([]byte{0xAA}, in.fields); !bytes.Equal(got[1:], b) {
		t.Fatal("Append differs from Encode")
	}
	var out msg
	if err := Decode(b, out.fields); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(Encode(out.fields), b) || *out.extra != extra || out.at.Unix() != in.at.Unix() || out.i64 != -10 {
		t.Fatalf("decoded %+v", out)
	}
	if !bytes.Equal(out.signed, b[4:4+binary.BigEndian.Uint32(b)]) {
		t.Fatal("End did not return the span's bytes")
	}
	b[4+4+1+4] = 0xEE     // raw's one byte
	b[4+4+1+4+1+4] = 0xEE // view's first byte
	if out.raw[0] != 1 || out.view[0] != 0xEE {
		t.Fatal("Bytes must copy, View must alias")
	}

	var empty msg
	if err := Decode(Encode(empty.fields), empty.fields); err != nil || empty.raw != nil || empty.list != nil || empty.extra != nil {
		t.Fatalf("empty fields decode to %+v, %v", empty, err)
	}
}

// Reading refuses, and names, what the list does not allow.
func TestCoderRefusals(t *testing.T) {
	good := Encode((&msg{list: []string{"a"}}).fields)
	at := func(off int, v byte) []byte {
		b := bytes.Clone(good)
		b[off] = v
		return b
	}
	listAt := len(good) - 4 - 4 - 1
	for _, c := range []struct {
		name string
		b    []byte
		want error
	}{
		{"short", good[:len(good)-1], ErrShort},
		{"trailing", append(bytes.Clone(good), 0), nil},
		{"span longer than its fields", at(3, good[3]+1), nil},
		{"fixed field of another length", at(4+4+4+4+3, 3), nil},
		{"list above its bound", at(listAt+3, 4), errTooMany},
		{"bool byte 2", at(listAt-8-8-1, 2), errBool},
	} {
		var m msg
		err := Decode(c.b, m.fields)
		if err == nil || c.want != nil && !errors.Is(err, c.want) {
			t.Errorf("%s: %v, want %v", c.name, err, c.want)
		}
	}
}
