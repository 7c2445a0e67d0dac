package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

// reader is a Coder in reading mode over b, as Decode starts one.
func reader(b []byte) *Coder { return &Coder{mode: reading, b: b, end: len(b)} }

// scalars is one field of each primitive kind.
type scalars struct {
	b      []byte
	s      string
	u32    uint32
	u64    uint64
	by     byte
	on, no bool
	f      float64
}

func (v *scalars) fields(c Coder) Coder {
	c.View(&v.b)
	c.String(&v.s)
	c.Uint32(&v.u32)
	c.Uint64(&v.u64)
	c.Byte(&v.by)
	c.Bool(&v.on)
	c.Bool(&v.no)
	c.Float64(&v.f)
	return c
}

func TestRoundTripAllFieldTypes(t *testing.T) {
	in := scalars{b: []byte{1, 2, 3}, s: "hello", u32: 0xDEADBEEF, u64: 1 << 60, by: 0x7F, on: true, f: 3.14159}
	var out scalars
	if err := Decode(Encode(in.fields), out.fields); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("decoded %+v, want %+v", out, in)
	}
}

func TestEmptyFields(t *testing.T) {
	var in, out scalars
	b := Encode(in.fields)
	if err := Decode(b, out.fields); err != nil {
		t.Fatal(err)
	}
	if len(out.b) != 0 || out.s != "" {
		t.Fatalf("bytes = %v, string = %q", out.b, out.s)
	}
}

func TestErrorLatching(t *testing.T) {
	r := reader([]byte{0, 0}) // too short for anything
	var v scalars
	r.Uint32(&v.u32)
	if !errors.Is(r.err, ErrShort) {
		t.Fatalf("err = %v", r.err)
	}
	// Subsequent reads set zero values without panicking.
	v = scalars{b: []byte{1}, s: "x", u64: 1, by: 1, on: true, f: 1}
	r.Uint64(&v.u64)
	r.Byte(&v.by)
	r.String(&v.s)
	r.View(&v.b)
	r.Bool(&v.on)
	r.Float64(&v.f)
	if !reflect.DeepEqual(v, scalars{}) {
		t.Fatalf("post-error reads not zero: %+v", v)
	}
	if !errors.Is(r.done(), ErrShort) {
		t.Fatal("done did not surface latched error")
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	v := uint32(7)
	u32 := func(c Coder) Coder { c.Uint32(&v); return c }
	b := append(Encode(u32), 0xFF)
	v = 0
	if err := Decode(b, u32); err == nil || v != 7 {
		t.Fatalf("value %d, err %v: trailing byte accepted", v, err)
	}
}

func TestMaliciousLengthPrefix(t *testing.T) {
	// Length prefix claims 4 GB: must latch ErrShort, not allocate.
	r := reader([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})
	var got []byte
	if r.Bytes(&got); got != nil {
		t.Fatalf("got %d bytes", len(got))
	}
	if !errors.Is(r.err, ErrShort) {
		t.Fatalf("err = %v", r.err)
	}
}

func TestBytesCopyIndependent(t *testing.T) {
	v := []byte{9, 9, 9}
	buf := Encode(func(c Coder) Coder { c.Bytes(&v); return c })
	var got []byte
	reader(buf).Bytes(&got)
	buf[4] = 0 // mutate underlying storage
	if got[0] != 9 {
		t.Fatal("Bytes aliases input")
	}
}

// A string field whose bytes equal the string it holds keeps that string,
// allocating nothing; any other bytes decode to a string of their own, which
// does not alias the input.
func TestStringAdoptsHeldValue(t *testing.T) {
	id := "broker.example"
	buf := Encode(func(c Coder) Coder { c.String(&id); return c })
	held := string([]byte(id)) // equal, at an address of its own
	got := held
	if n := testing.AllocsPerRun(100, func() {
		got = held
		reader(buf).String(&got)
	}); n != 0 || unsafe.StringData(got) != unsafe.StringData(held) {
		t.Fatalf("decoding the held value: %v allocations, adopted %t", n, unsafe.StringData(got) == unsafe.StringData(held))
	}
	for _, other := range []string{"", "broker.exampl", "broker.examplf"} {
		got := other
		reader(buf).String(&got)
		buf[4] ^= 0xFF // the decoded string must not see the input move
		if got != id {
			t.Fatalf("holding %q, decoded %q", other, got)
		}
		buf[4] ^= 0xFF
	}
}

func TestFloatSpecials(t *testing.T) {
	roundTrip := func(v float64) float64 {
		f := func(c Coder) Coder { c.Float64(&v); return c }
		b := Encode(f)
		v = 0
		if err := Decode(b, f); err != nil {
			t.Fatal(err)
		}
		return v
	}
	for _, v := range []float64{0, math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64} {
		if got := roundTrip(v); got != v {
			t.Fatalf("float %v -> %v", v, got)
		}
	}
	// NaN round-trips as NaN.
	if got := roundTrip(math.NaN()); !math.IsNaN(got) {
		t.Fatalf("NaN -> %v", got)
	}
}

// Property: any sequence of (bytes, string, u32, u64) fields round-trips.
func TestPropertyMixedRoundTrip(t *testing.T) {
	f := func(b1 []byte, s1 string, u32 uint32, u64 uint64, by byte) bool {
		in := scalars{b: b1, s: s1, u32: u32, u64: u64, by: by}
		var out scalars
		return Decode(Encode(in.fields), out.fields) == nil && bytes.Equal(out.b, b1) && out.s == s1 &&
			out.u32 == u32 && out.u64 == u64 && out.by == by
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: decoding any random garbage either errors or consumes input
// without panicking.
func TestPropertyGarbageSafe(t *testing.T) {
	f := func(garbage []byte) bool {
		var v scalars
		_ = Decode(garbage, func(c Coder) Coder {
			c.View(&v.b)
			c.String(&v.s)
			c.Uint64(&v.u64)
			return c
		})
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
		r := reader([]byte{b})
		var got bool
		if r.Bool(&got); got != want || r.done() != nil {
			t.Fatalf("byte %d: %v, %v", b, got, r.done())
		}
	}
	r := reader([]byte{2, 1})
	var got bool
	r.Bool(&got)
	if r.Bool(&got); got || r.done() == nil {
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
