package sap

import (
	"bytes"
	"crypto/sha256"
	"testing"
)

// FuzzUnmarshalAuthReqU covers the request a bTelco parses from an untrusted
// UE: no panic, and a request that decodes re-encodes to exactly the bytes
// it was decoded from. The corpus under testdata/fuzz/FuzzUnmarshalAuthReqU
// holds a first-contact request (sealed vector and signature), a ticketed
// one (no signature), a truncated one and one with a trailing byte.
func FuzzUnmarshalAuthReqU(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := UnmarshalAuthReqU(b)
		if err != nil {
			return
		}
		if out := m.Marshal(); !bytes.Equal(out, b) {
			t.Fatalf("request %x re-encodes to %x", b, out)
		}
	})
}

// FuzzUnmarshalAuthReqT checks the claim the broker's MAC check rests on
// (AuthReqT.signedSum): the decoder is canonical. An accepted request
// re-encodes to exactly the bytes it was decoded from, and one with a
// MAC-sized Sig carries the digest of its signed bytes, taken while
// decoding; no other does. The corpus under
// testdata/fuzz/FuzzUnmarshalAuthReqT holds a signed and a MAC'd request of
// newFixture's principals, the MAC'd one without its certificate, short by a
// byte and with a byte too many, and one whose signed span has a byte after
// the terms.
func FuzzUnmarshalAuthReqT(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := UnmarshalAuthReqT(b)
		if err != nil {
			return
		}
		if out := m.Marshal(); !bytes.Equal(out, b) {
			t.Fatalf("request %x re-encodes to %x", b, out)
		}
		if macd := len(m.Sig) == telcoMACSize; m.summed != macd || macd && m.signedSum != sha256.Sum256(m.signedBytes()) {
			t.Fatalf("a %d-byte Sig decoded with digest %x (taken: %v)", len(m.Sig), m.signedSum, m.summed)
		}
	})
}

// FuzzReceiptCodec covers both receipt messages: a bTelco's request as the
// broker parses it, and the broker's answer as the bTelco parses it. The same
// bytes go to both decoders: no panic, and whatever decodes re-encodes to
// exactly the bytes it was decoded from. The corpus under
// testdata/fuzz/FuzzReceiptCodec holds a request with and without a
// certificate, a granted receipt, a refusal disowning a grant, and a refusal
// whose granted byte is 2 — a value no encoder writes, which the codec now
// refuses.
func FuzzReceiptCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		if m, err := UnmarshalReceiptReq(b); err == nil {
			if out := m.Marshal(); !bytes.Equal(out, b) {
				t.Fatalf("receipt request %x re-encodes to %x", b, out)
			}
		}
		if m, err := UnmarshalReceiptResp(b); err == nil {
			if out := m.Marshal(); !bytes.Equal(out, b) {
				t.Fatalf("receipt answer %x re-encodes to %x", b, out)
			}
		}
	})
}
