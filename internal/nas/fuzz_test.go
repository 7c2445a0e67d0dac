package nas

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
)

// fuzzMaster keys the checked-in FuzzUnprotect corpus.
var fuzzMaster = testMaster(0xF0)

// fuzzPair returns a sender and a receiver that has accepted counts 0-3 in
// dir: the sender's next count is 4, and anything below 4 is a replay.
func fuzzPair(t testing.TB, dir Direction) (tx, rx *SecurityContext) {
	tx, rx = NewSecurityContext(fuzzMaster), NewSecurityContext(fuzzMaster)
	for i := 0; i < 3; i++ {
		tx.Protect(dir, nil)
	}
	if _, err := rx.Unprotect(dir, tx.Protect(dir, nil)); err != nil {
		t.Fatal(err)
	}
	return tx, rx
}

// FuzzUnprotect covers the NAS security envelope (ROADMAP 7a) from both
// sides. As another party's bytes, msg never panics Unprotect, fails only in
// the four ways it documents, and a refusal consumes no counter. As a
// payload, msg round-trips, and one flipped bit anywhere in its protected
// form — flip picks it — is refused, never deciphered. (The tag is 32 bits:
// a body bit whose flip leaves the tag valid exists once in 2³² messages,
// and finding one would be a finding about MACSize, not about this code.)
// The seed corpus under testdata/fuzz/FuzzUnprotect holds genuine messages
// under fuzzMaster at fresh, replayed and future counts, in both
// directions, truncations, and payloads on either side of the MAC's stack
// buffer.
func FuzzUnprotect(f *testing.F) {
	f.Add([]byte{}, uint16(0), false)
	f.Add(make([]byte, hdrLen+MACSize), uint16(39), true)
	f.Fuzz(func(t *testing.T, msg []byte, flip uint16, downlink bool) {
		dir := Uplink
		if downlink {
			dir = Downlink
		}
		tx, rx := fuzzPair(t, dir)
		pt, err := rx.Unprotect(dir, msg)
		switch {
		case err == nil:
			if len(pt) != len(msg)-hdrLen-MACSize || binary.BigEndian.Uint32(msg) < 4 || Direction(msg[4]) != dir {
				t.Fatalf("accepted %x as %d plaintext bytes", msg, len(pt))
			}
			if _, err := rx.Unprotect(dir, msg); !errors.Is(err, ErrReplay) {
				t.Fatalf("accepted message offered again: %v", err)
			}
			return
		case errors.Is(err, ErrTooShort):
			if len(msg) >= hdrLen+MACSize {
				t.Fatalf("%d-byte message called short", len(msg))
			}
		case errors.Is(err, ErrIntegrity), errors.Is(err, ErrReplay):
		default: // the direction mismatch has no sentinel
			if Direction(msg[4]) == dir {
				t.Fatalf("unexpected error %v", err)
			}
		}
		if pt != nil {
			t.Fatalf("plaintext alongside %v", err)
		}

		// The refusal left rx where it was: msg, as a payload, is the next
		// message it accepts — but not with a bit flipped.
		wire := tx.Protect(dir, msg)
		flipped := bytes.Clone(wire)
		bit := int(flip) % (8 * len(wire))
		flipped[bit/8] ^= 1 << (bit % 8)
		switch pt, err := rx.Unprotect(dir, flipped); {
		case err == nil:
			t.Fatalf("bit %d flipped and still deciphered, to %x", bit, pt)
		case bit/8 == 4:
			if errors.Is(err, ErrIntegrity) || errors.Is(err, ErrReplay) || errors.Is(err, ErrTooShort) {
				t.Fatalf("flipped direction byte: %v, want the direction mismatch", err)
			}
		case !errors.Is(err, ErrIntegrity):
			t.Fatalf("bit %d flipped: %v, want ErrIntegrity", bit, err)
		}
		if got, err := rx.Unprotect(dir, wire); err != nil || !bytes.Equal(got, msg) {
			t.Fatalf("round trip of a %d-byte payload after two refusals: %d bytes, %v", len(msg), len(got), err)
		}
	})
}

// FuzzDecode covers the NAS message decoders (ROADMAP 7a): no panic, and an
// accepted input is exactly the encoding of what it decoded to — which also
// says no field was sized by a length prefix the input did not back — so
// Decode ∘ Encode = id in both directions. The seed corpus under
// testdata/fuzz/FuzzDecode holds every message type, truncations, trailing
// bytes and length prefixes of 4 GiB.
func FuzzDecode(f *testing.F) {
	for _, m := range allMessages() {
		f.Add(Encode(m))
	}
	// The retired dedicated-bearer types decode to ErrUnknownMessage.
	f.Add([]byte{11, 0, 0, 0, 0, 0, 0, 0, 99, 0, 0, 0, 8, 'i', 'n', 't', 'e', 'r', 'n', 'e', 't', 8})
	f.Add([]byte{12, 0, 0, 0, 0, 0, 0, 0, 99, 0, 0, 0, 6, 8})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Decode(b)
		if err != nil {
			if m != nil {
				t.Fatalf("a message alongside %v", err)
			}
			return
		}
		enc := Encode(m)
		if !bytes.Equal(enc, b) {
			t.Fatalf("%T decoded from %x re-encodes to %x", m, b, enc)
		}
		back, err := Decode(enc)
		if err != nil || !reflect.DeepEqual(back, m) {
			t.Fatalf("%T does not survive its own encoding: %+v, %v", m, back, err)
		}
	})
}
