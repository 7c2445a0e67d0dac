package wire

import (
	"bytes"
	"testing"

	"cellbricks/internal/obs"
)

func TestFrameCtxRoundTrip(t *testing.T) {
	sc := obs.SpanContext{Trace: 0xabc, Span: 0xdef, Parent: 0x123}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TypeNAS, sc, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	msgType, got, payload, err := readOne(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if msgType != TypeNAS {
		t.Fatalf("type = %d, want %d (traced bit must be stripped)", msgType, TypeNAS)
	}
	if got != sc {
		t.Fatalf("ctx round trip %+v != %+v", got, sc)
	}
	if string(payload) != "payload" {
		t.Fatalf("payload = %q", payload)
	}
}

// TestUntracedFrameBytesUnchanged: WriteFrame with a zero context writes
// the pre-tracing frame, byte for byte: a 4-byte big-endian length, the
// type byte with no traced bit, the payload.
func TestUntracedFrameBytesUnchanged(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TypeSAPAuthRequest, obs.SpanContext{}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if want := []byte{0, 0, 0, 2, 0x01, 'x'}; !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("zero-ctx frame = %x, want the pre-tracing %x", buf.Bytes(), want)
	}
}

// TestReadFrameDiscardsCtx: a readFrame caller that discards the span
// context of a traced frame (as a client reading its reply does) still sees
// the unmasked type and the bare payload.
func TestReadFrameDiscardsCtx(t *testing.T) {
	var buf bytes.Buffer
	sc := obs.SpanContext{Trace: 1, Span: 2, Parent: 3}
	if err := WriteFrame(&buf, TypeNAS, sc, []byte("body")); err != nil {
		t.Fatal(err)
	}
	msgType, _, payload, err := readOne(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if msgType != TypeNAS || string(payload) != "body" {
		t.Fatalf("legacy read got type=%d payload=%q", msgType, payload)
	}
}

// TestServerCtxHandlerReceivesContext: CallCtx carries the context across
// a real socket into a ctx-aware server handler; plain Call arrives with a
// zero context.
func TestServerCtxHandlerReceivesContext(t *testing.T) {
	got := make(chan obs.SpanContext, 2)
	s, err := NewServerCtx("127.0.0.1:0", func(sc obs.SpanContext, msgType byte, payload []byte) (byte, []byte, error) {
		got <- sc
		return TypeNASReply, payload, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	want := obs.SpanContext{Trace: 77, Span: 88, Parent: 99}
	if _, _, err := c.CallCtx(TypeNAS, want, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	if sc := <-got; sc != want {
		t.Fatalf("server saw ctx %+v, want %+v", sc, want)
	}
	if _, _, err := c.Call(TypeNAS, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	if sc := <-got; sc.Valid() {
		t.Fatalf("plain call must arrive with zero ctx, got %+v", sc)
	}
}
