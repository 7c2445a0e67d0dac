package codec

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
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
